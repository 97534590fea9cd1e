import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from svyanova.design import SampleDraw, WeightMode, build_weights
from svyanova.errors import PosteriorError
from svyanova.inference import (ChainConfig, ParamState, PriorConfig, integrated_loglik,
                                augmented_logpseudolikelihood, posterior_means, run_gibbs,
                                run_integrated_mcmc)

from helpers import (CASES, cluster_logintegrand, make_instance, mcse,
                     quad_cluster_logintegral, reference_scan, single_cluster_instance)

PARAMS = ("b0", "sigma_a", "sigma_eps")
LOG_WEIGHT_CASES = [c for c in CASES if c.values[0].get("log_weights")]


class TestKnownIdentities:
    def test_single_unit_gaussian_convolution(self):
        # one cluster, one unit, unit weights: the marginal of y is
        # N(mu, tau_eps^-1 + tau_a^-1)
        sample, weights, _, _ = make_instance(0, m_max=1, nk_max=1, w_range=(1.0, 1.0))
        y = float(sample.y_s[0][0])
        mu, tau_a, tau_eps = 0.4, 0.9, 1.7
        got = integrated_loglik((mu, tau_a, tau_eps), sample, weights)
        expected = norm.logpdf(y, loc=mu, scale=math.sqrt(1 / tau_eps + 1 / tau_a))
        assert got == pytest.approx(float(expected), rel=1e-12)

    @given(c=st.floats(-50, 50), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, c, seed):
        sample, weights, state, _ = make_instance(seed)
        base = integrated_loglik((state.mu, state.tau_a, state.tau_eps), sample, weights)
        shifted_sample = replace(sample, y=sample.y + c)
        shifted = integrated_loglik((state.mu + c, state.tau_a, state.tau_eps),
                                    shifted_sample, weights)
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-7)

    def test_nonpositive_precision_rejected(self):
        sample, weights, _, _ = make_instance(1)
        with pytest.raises(ValueError):
            integrated_loglik((0.0, -1.0, 1.0), sample, weights)
        with pytest.raises(ValueError):
            integrated_loglik((0.0, 1.0, 0.0), sample, weights)


class TestQuadratureOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_adaptive_quadrature_per_cluster(self, seed):
        sample, weights, state, _ = make_instance(seed)
        for k in range(sample.m):
            sub_s, sub_w = single_cluster_instance(sample, weights, k)
            got = integrated_loglik((state.mu, state.tau_a, state.tau_eps), sub_s, sub_w)
            oracle = quad_cluster_logintegral(
                sample.y_s[k], weights.w_jk[k], weights.w_k[k],
                state.mu, state.tau_a, state.tau_eps)
            assert abs(math.expm1(got - oracle)) <= 1e-8

    @pytest.mark.parametrize("seed", [100, 200])
    def test_matches_grid_integration_of_augmented(self, seed):
        # exp(augmented at fixed theta) integrated over an a_k grid matches
        # the closed-form per-cluster marginal
        sample, weights, state, _ = make_instance(seed, m_max=1)
        g = cluster_logintegrand(sample.y_s[0], weights.w_jk[0], weights.w_k[0],
                                 state.mu, state.tau_a, state.tau_eps)
        phi = state.tau_eps * weights.w_jk[0].sum() + state.tau_a * weights.w_k[0]
        h = state.tau_eps * np.sum(weights.w_jk[0] * (sample.y_s[0] - state.mu)) / phi
        width = 12 / math.sqrt(phi)
        grid = np.linspace(h - width, h + width, 20001)
        vals = np.array([g(a) for a in grid])
        log_integral = vals.max() + math.log(
            np.trapezoid(np.exp(vals - vals.max()), grid))
        got = integrated_loglik((state.mu, state.tau_a, state.tau_eps), sample, weights)
        assert got == pytest.approx(log_integral, rel=1e-6, abs=1e-6)

    def test_integrand_consistent_with_augmented_likelihood(self):
        # the per-cluster integrand oracle is the augmented log likelihood
        # restricted to one cluster
        sample, weights, state, _ = make_instance(5, m_max=1)
        g = cluster_logintegrand(sample.y_s[0], weights.w_jk[0], weights.w_k[0],
                                 state.mu, state.tau_a, state.tau_eps)
        st0 = ParamState(state.mu, state.tau_a, state.tau_eps,
                         np.array([float(state.a[0])]))
        assert g(float(state.a[0])) == pytest.approx(
            augmented_logpseudolikelihood(st0, sample, weights), rel=1e-12)


def _fsum_loglik(sample, weights, mu, tau_a, tau_eps) -> float:
    """integrated_loglik summed term by term with math.fsum, per unit: the
    within-cluster residuals about each cluster mean and the between term
    q_k (ybar_k - mu)^2, q_k = 1/(1/(tau_a w_k) + 1/(tau_eps sw_k))."""
    terms = []
    for k in range(sample.m):
        units = range(sample.offsets[k], sample.offsets[k + 1])
        w = [float(weights.w_marg[j]) for j in units]
        y = [float(sample.y[j]) for j in units]
        w_k, sw = float(weights.w_k[k]), math.fsum(w)
        ybar = math.fsum(wj * yj for wj, yj in zip(w, y)) / sw
        phi = tau_eps * sw + tau_a * w_k
        q = tau_a * w_k * tau_eps * sw / phi
        terms += [-0.5 * math.log(phi), 0.5 * w_k * math.log(tau_a),
                  0.5 * sw * math.log(tau_eps), -0.5 * (sw + w_k - 1) * math.log(2 * math.pi),
                  -0.5 * q * (ybar - mu) ** 2]
        terms += [-0.5 * tau_eps * wj * (yj - ybar) ** 2 for wj, yj in zip(w, y)]
    return math.fsum(terms)


class TestCancellationFree:
    """The integrated log-likelihood is a sum of same-signed residual terms,
    so it keeps its digits where the expanded squares would cancel: with
    weights spanning 1e-2..1e3 and tau_a far below tau_eps."""

    @staticmethod
    def _states(state):
        # the last two lose 1e-12 and 1e-10 relative to expanded squares
        return [(state.mu, state.tau_a, state.tau_eps),
                (state.mu + 10.0, state.tau_a * 1e-6, state.tau_eps * 1e3),
                (state.mu + 100.0, state.tau_a * 1e-8, state.tau_eps * 1e2)]

    @pytest.mark.parametrize("case", LOG_WEIGHT_CASES)
    def test_matches_fsum_reference(self, case):
        sample, weights, state, _ = make_instance(**case)
        for mu, tau_a, tau_eps in self._states(state):
            got = integrated_loglik((mu, tau_a, tau_eps), sample, weights)
            want = _fsum_loglik(sample, weights, mu, tau_a, tau_eps)
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("c", [-37.5, 1e3])
    @pytest.mark.parametrize("case", LOG_WEIGHT_CASES)
    def test_invariant_to_shift(self, case, c):
        sample, weights, state, _ = make_instance(**case)
        shifted = replace(sample, y=sample.y + c)
        for mu, tau_a, tau_eps in self._states(state):
            base = integrated_loglik((mu, tau_a, tau_eps), sample, weights)
            moved = integrated_loglik((mu + c, tau_a, tau_eps), shifted, weights)
            assert moved == pytest.approx(base, rel=1e-12, abs=0)


# Known defects of the reference scan the oracle exposes; the collapsed draws
# pass on every case.
_SCAN_SLOW = {
    "weights-1e-2-1e3-0": "the scan mixes too slowly in mu under weights spanning 1e-2..1e3 "
                          "(b0 ESS about 11 in 2e5 sweeps)",
    "weights-1e-2-1e3-3": "the scan mixes too slowly in mu under weights spanning 1e-2..1e3 "
                          "(b0 ESS about 27 in 2e5 sweeps)",
}


class TestCollapsedOracle:
    """posterior_means is the deterministic reference the samplers are
    checked against, within 4 Monte Carlo standard errors (sd/sqrt(ESS),
    Geyer ESS).  Every CASES posterior has finite second moments:
    kappa + 3/2 > 1, W/2 + alpha1 > 3/2 and S/2 + alpha2 > 3/2."""

    CHAIN = ChainConfig(n_iterations=6000, n_burnin=2000)

    @staticmethod
    def _check(draws, oracle):
        for p in PARAMS:
            values = draws.values(p)
            assert np.isfinite(values).all()
            assert abs(values.mean() - oracle[p]) <= 4 * mcse(values), p

    @pytest.mark.parametrize("case", CASES)
    def test_collapsed_draws_match(self, case):
        sample, weights, _, prior = make_instance(**case)
        draws = run_integrated_mcmc(sample, weights, prior,
                                    replace(self.CHAIN, seed=case["seed"]))
        self._check(draws, posterior_means(sample, weights, prior))

    @pytest.mark.parametrize("case", CASES)
    def test_gibbs_matches(self, case):
        sample, weights, _, prior = make_instance(**case)
        draws = run_gibbs(sample, weights, prior, replace(self.CHAIN, seed=case["seed"]))
        self._check(draws, posterior_means(sample, weights, prior))

    @pytest.mark.parametrize("case", [
        pytest.param(*c.values, id=c.id,
                     marks=[pytest.mark.xfail(reason=_SCAN_SLOW[c.id], strict=True)]
                     if c.id in _SCAN_SLOW else [])
        for c in CASES])
    def test_reference_scan_matches(self, case):
        # the scan draws from the conditionals criterion 02 checks and shares
        # no code with the collapse, so this checks posterior_means (and
        # through it both samplers) independently
        sample, weights, _, prior = make_instance(**case)
        draws = reference_scan(sample, weights, prior, replace(self.CHAIN, seed=case["seed"]))
        self._check(draws, posterior_means(sample, weights, prior))

    @pytest.mark.parametrize("case", [CASES[i] for i in (0, 7, 21, 25, 29)])
    def test_gibbs_effects_follow_their_conditional(self, case):
        # (a_ik - h_k(theta_i)) sqrt(phi_k(theta_i)), with h_k and phi_k
        # written out from the uncentred data, is N(0, 1) pooled over draws
        # and clusters
        from scipy.stats import kstest

        sample, weights, _, prior = make_instance(**case)
        draws = run_gibbs(sample, weights, prior, ChainConfig(n_iterations=3000, n_burnin=1000,
                                                               seed=case["seed"]))
        w, starts = weights.w_marg, sample.offsets[:-1]
        sw = np.add.reduceat(w, starts)
        swy = np.add.reduceat(w * sample.y, starts)
        mu, tau_a, tau_eps = draws.mu[:, None], draws.tau_a[:, None], draws.tau_eps[:, None]
        phi = tau_eps * sw + tau_a * weights.w_k
        h = tau_eps * (swy - mu * sw) / phi
        z = ((draws.a - h) * np.sqrt(phi)).ravel()
        assert kstest(z, "norm").pvalue > 1e-3

    @pytest.mark.parametrize("n", [1, 5])
    def test_one_cluster_normalized_is_explicit_error(self, n):
        # normalized double weights give W = 1: with n = 1, kappa + 3/2 = 0.2
        # and sigma_eps has no finite mean; with n = 5, W/2 + alpha1 = 0.6 and
        # sigma_a has none.  Either is an error naming the condition, not a
        # chain of overflowing draws.
        y = np.random.default_rng(n).normal(1.0, 2.0, size=n)
        sample = SampleDraw(cluster_ids=np.array([0]), offsets=np.array([0, n]),
                            units=np.arange(n), pi_h=np.array([0.3]),
                            pi_cond=np.full(n, 0.5), y=y)
        weights = build_weights(sample, WeightMode.DOUBLE)
        match = "kappa" if n == 1 else "alpha1"
        with pytest.raises(PosteriorError, match=match):
            run_integrated_mcmc(sample, weights, PriorConfig(), ChainConfig())
        with pytest.raises(PosteriorError, match=match):
            posterior_means(sample, weights, PriorConfig())


class TestInverseCdf:
    """x is drawn from the piecewise log-linear interpolant of log p on the
    grid; where log p is itself linear the draws are exact."""

    @pytest.mark.parametrize("rate", [1.0, -0.5, 0.0, 30.0])
    def test_truncated_exponential(self, rate):
        from scipy.stats import kstest
        from svyanova.inference import _draw_x

        lo, hi = 0.0, 5.0
        xs = np.array([lo, 0.3, 1.0, 2.5, 2.6, hi])  # uneven on purpose
        u = np.random.default_rng(5).uniform(size=20000)
        draws = _draw_x(xs, -rate * xs, u)
        assert lo <= draws.min() and draws.max() <= hi
        if rate == 0.0:
            cdf = lambda x: (x - lo) / (hi - lo)
        else:
            cdf = lambda x: np.expm1(-rate * (x - lo)) / np.expm1(-rate * (hi - lo))
        assert kstest(draws, cdf).pvalue > 1e-3
