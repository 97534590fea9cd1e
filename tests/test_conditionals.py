import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import gamma, norm

from svyanova.inference import (ParamState, PriorConfig, augmented_logpseudolikelihood,
                                augmented_logpseudoposterior, fc_a_k, fc_mu,
                                fc_tau_a, fc_tau_eps, log_priors)

from helpers import CASES, make_instance


def _one_cluster(y, w_jk, w_k):
    from svyanova.design import SampleDraw, WeightMode, WeightSet

    y = np.asarray(y, dtype=float)
    w_jk = np.asarray(w_jk, dtype=float)
    offsets = np.array([0, len(y)])
    sample = SampleDraw(cluster_ids=np.array([0]), offsets=offsets, units=np.arange(len(y)),
                        pi_h=np.array([1.0]), pi_cond=np.ones(len(y)), y=y)
    weights = WeightSet(mode=WeightMode.DOUBLE, w_k=np.array([float(w_k)]), offsets=offsets,
                        w_cond=w_jk, w_marg=w_jk, M_hat=float(w_k))
    return sample, weights


class TestClusterEffectConditional:
    def test_single_unit_substitution(self):
        sample, weights = _one_cluster(y=[2.0], w_jk=[1.0], w_k=1.0)
        h, phi = fc_a_k(0, mu=0.0, tau_a=1.0, tau_eps=1.0, sample=sample, weights=weights)
        assert phi == pytest.approx(2.0)
        assert h == pytest.approx(1.0)

    def test_prior_domination_shrinks_to_zero(self):
        sample, weights = _one_cluster(y=[2.0], w_jk=[1.0], w_k=1.0)
        h, _ = fc_a_k(0, mu=0.0, tau_a=1e9, tau_eps=1.0, sample=sample, weights=weights)
        assert abs(h) < 1e-6

    def test_hand_example(self):
        sample, weights = _one_cluster(y=[1.0, 3.0], w_jk=[2.0, 1.0], w_k=2.0)
        h, phi = fc_a_k(0, mu=1.0, tau_a=0.25, tau_eps=0.5, sample=sample, weights=weights)
        assert phi == pytest.approx(0.5 * 3 + 0.25 * 2)  # 2.0
        assert h == pytest.approx(1.0 / 2.0)              # e = 0.5*(0 + 2) = 1


class TestInterceptConditional:
    def test_constant_data(self):
        sample, weights = _one_cluster(y=[4.0, 4.0, 4.0], w_jk=[1.0, 2.5, 0.3], w_k=1.0)
        mean, _ = fc_mu(np.zeros(1), tau_eps=1.7, sample=sample, weights=weights)
        assert mean == pytest.approx(4.0)

    def test_hand_example(self):
        sample, weights = _one_cluster(y=[1.0, 3.0], w_jk=[1.0, 1.0], w_k=1.0)
        mean, prec = fc_mu(np.array([1.0]), tau_eps=1.0, sample=sample, weights=weights)
        assert mean == pytest.approx(1.0)
        assert prec == pytest.approx(2.0)

    def test_weight_doubling_homogeneity(self):
        sample1, weights1 = _one_cluster(y=[1.0, 3.0, -2.0], w_jk=[1.0, 2.0, 3.0], w_k=1.0)
        sample2, weights2 = _one_cluster(y=[1.0, 3.0, -2.0], w_jk=[2.0, 4.0, 6.0], w_k=1.0)
        a = np.array([0.4])
        m1, p1 = fc_mu(a, 1.3, sample1, weights1)
        m2, p2 = fc_mu(a, 1.3, sample2, weights2)
        assert m2 == pytest.approx(m1)
        assert p2 == pytest.approx(2 * p1)


class TestPrecisionConditionals:
    def test_tau_a_hand_example(self):
        shape, scale = fc_tau_a(np.array([1.0, -1.0]), np.array([1.0, 1.0]),
                                PriorConfig(1.0, 1.0, 1.0, 1.0))
        assert shape == pytest.approx(2.0)
        assert scale == pytest.approx(2.0)

    def test_tau_a_pure_prior_scale(self):
        prior = PriorConfig(0.7, 1.9, 1.0, 1.0)
        _, scale = fc_tau_a(np.zeros(5), np.ones(5), prior)
        assert scale == pytest.approx(prior.beta1)

    def test_tau_a_posterior_mean_monte_carlo(self):
        # with m = 1e5 equal weights, the IG posterior mean of tau_a^-1
        # approaches the empirical variance of a
        rng = np.random.default_rng(42)
        sigma = 1.7
        a = rng.normal(0.0, sigma, size=100_000)
        shape, scale = fc_tau_a(a, np.ones(100_000), PriorConfig())
        ig_mean = scale / (shape - 1)
        assert ig_mean == pytest.approx(sigma ** 2, rel=0.02)

    def test_tau_eps_hand_example(self):
        sample, weights = _one_cluster(y=[2.0], w_jk=[3.0], w_k=1.0)
        shape, scale = fc_tau_eps(0.0, np.zeros(1), sample, weights,
                                  PriorConfig(1.0, 1.0, 1.0, 1.0))
        assert shape == pytest.approx(2.5)   # 0.5*3 + 1
        assert scale == pytest.approx(7.0)   # 0.5*3*4 + 1

    def test_tau_eps_zero_residuals(self):
        sample, weights = _one_cluster(y=[1.5, 1.5], w_jk=[1.0, 4.0], w_k=1.0)
        prior = PriorConfig(1.0, 1.0, 2.0, 0.9)
        _, scale = fc_tau_eps(1.0, np.array([0.5]), sample, weights, prior)
        assert scale == pytest.approx(prior.beta2)

    def test_census_reduces_to_standard_update(self):
        # unit weights: the usual conjugate IG update of an unweighted model
        rng = np.random.default_rng(3)
        y = rng.normal(2.0, 1.0, size=12)
        sample, weights = _one_cluster(y=y, w_jk=np.ones(12), w_k=1.0)
        prior = PriorConfig(1.0, 1.0, 1.3, 0.7)
        shape, scale = fc_tau_eps(2.0, np.zeros(1), sample, weights, prior)
        assert shape == pytest.approx(prior.alpha2 + 0.5 * 12)
        assert scale == pytest.approx(prior.beta2 + 0.5 * np.sum((y - 2.0) ** 2))


class TestTauEpsCancellationFree:
    """The tau_eps scale is WSS plus per-cluster squares of ybar_k - mu - a_k,
    so moving y and mu by c, and y and a_k by a cluster offset d_k, leaves it
    at its per-unit value: a math.fsum over w_jk (y_jk - mu - a_k)^2.
    Expanding the squares over totals would lose about 5e-10 relative at
    offsets of 1e3."""

    @staticmethod
    def _fsum_scale(sample, weights, mu, a, prior):
        terms = [float(weights.w_marg[j]) * (float(sample.y[j]) - mu - float(a[k])) ** 2
                 for k in range(sample.m) for j in range(sample.offsets[k], sample.offsets[k + 1])]
        return 0.5 * math.fsum(terms) + prior.beta2

    @pytest.mark.parametrize("spread", [0.0, 1e3])
    @pytest.mark.parametrize("c", [-37.5, 1e3, 1e6])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_fsum_reference(self, case, c, spread):
        sample, weights, state, prior = make_instance(**case)
        d = np.random.default_rng(case["seed"]).normal(0.0, spread, size=sample.m)
        moved = replace(sample, y=sample.y + c + np.repeat(d, sample.n_k))
        mu, a = state.mu + c, state.a + d
        _, scale = fc_tau_eps(mu, a, moved, weights, prior)
        assert scale == pytest.approx(self._fsum_scale(moved, weights, mu, a, prior),
                                      rel=1e-12, abs=0)


class TestConjugacyAgainstJoint:
    """Each full conditional must match the normalized grid restriction of
    the augmented joint along its own coordinate."""

    GRID = 200

    @staticmethod
    def _normalized(vals: np.ndarray) -> np.ndarray:
        vals = np.exp(vals - vals.max())
        return vals / vals.sum()

    def _joint_along(self, instance, coord: str, grid: np.ndarray, k: int = 0):
        sample, weights, state, prior = instance
        out = np.empty(len(grid))
        for i, g in enumerate(grid):
            if coord == "a":
                a = state.a.copy()
                a[k] = g
                s = ParamState(state.mu, state.tau_a, state.tau_eps, a)
            elif coord == "mu":
                s = ParamState(g, state.tau_a, state.tau_eps, state.a)
            elif coord == "tau_a":
                s = ParamState(state.mu, g, state.tau_eps, state.a)
            else:
                s = ParamState(state.mu, state.tau_a, g, state.a)
            out[i] = augmented_logpseudoposterior(s, sample, weights, prior)
        return out

    @pytest.mark.parametrize("case", CASES)
    def test_a_k_conditional(self, case):
        instance = make_instance(**case)
        sample, weights, state, prior = instance
        h, phi = fc_a_k(0, state.mu, state.tau_a, state.tau_eps, sample, weights)
        grid = np.linspace(h - 5 / math.sqrt(phi), h + 5 / math.sqrt(phi), self.GRID)
        joint = self._normalized(self._joint_along(instance, "a", grid))
        closed = norm.pdf(grid, loc=h, scale=phi ** -0.5)
        closed /= closed.sum()
        np.testing.assert_allclose(joint, closed, rtol=1e-6)

    @pytest.mark.parametrize("case", CASES)
    def test_mu_conditional(self, case):
        instance = make_instance(**case)
        sample, weights, state, prior = instance
        mean, prec = fc_mu(state.a, state.tau_eps, sample, weights)
        grid = np.linspace(mean - 5 / math.sqrt(prec), mean + 5 / math.sqrt(prec), self.GRID)
        joint = self._normalized(self._joint_along(instance, "mu", grid))
        closed = norm.pdf(grid, loc=mean, scale=prec ** -0.5)
        closed /= closed.sum()
        np.testing.assert_allclose(joint, closed, rtol=1e-6)

    @pytest.mark.parametrize("case", CASES)
    def test_tau_a_conditional(self, case):
        instance = make_instance(**case)
        sample, weights, state, prior = instance
        shape, scale = fc_tau_a(state.a, weights.w_k, prior)
        dist = gamma(a=shape, scale=1.0 / scale)  # tau_a ~ Gamma(shape, rate=scale)
        grid = np.linspace(dist.ppf(1e-4), dist.ppf(1 - 1e-4), self.GRID)
        joint = self._normalized(self._joint_along(instance, "tau_a", grid))
        closed = dist.pdf(grid)
        closed /= closed.sum()
        np.testing.assert_allclose(joint, closed, rtol=1e-6)

    @pytest.mark.parametrize("case", CASES)
    def test_tau_eps_conditional(self, case):
        instance = make_instance(**case)
        sample, weights, state, prior = instance
        shape, scale = fc_tau_eps(state.mu, state.a, sample, weights, prior)
        dist = gamma(a=shape, scale=1.0 / scale)
        grid = np.linspace(dist.ppf(1e-4), dist.ppf(1 - 1e-4), self.GRID)
        joint = self._normalized(self._joint_along(instance, "tau_eps", grid))
        closed = dist.pdf(grid)
        closed /= closed.sum()
        np.testing.assert_allclose(joint, closed, rtol=1e-6)


class TestCollapseIdentity:
    """The double-weighted flat form equals the nested cluster-weighted form
    exactly when w_jk = w_k * w_{j|k}."""

    @staticmethod
    def _nested_form(sample, weights, state):
        total = 0.0
        for k in range(len(sample.y_s)):
            r = sample.y_s[k] - state.mu - state.a[k]
            unit_ll = np.sum(weights.w_j_given_k[k] * (
                0.5 * math.log(state.tau_eps) - 0.5 * math.log(2 * math.pi)
                - 0.5 * state.tau_eps * r ** 2))
            a_ll = (0.5 * math.log(state.tau_a) - 0.5 * math.log(2 * math.pi)
                    - 0.5 * state.tau_a * state.a[k] ** 2)
            total += weights.w_k[k] * (unit_ll + a_ll)
        return float(total)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_identity(self, seed):
        sample, weights, state, prior = make_instance(seed)
        flat = augmented_logpseudolikelihood(state, sample, weights)
        nested = self._nested_form(sample, weights, state)
        assert math.isclose(flat, nested, rel_tol=1e-12, abs_tol=1e-12)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_posterior_equals_likelihood_plus_priors(self, seed):
        sample, weights, state, prior = make_instance(seed)
        lhs = augmented_logpseudoposterior(state, sample, weights, prior)
        rhs = augmented_logpseudolikelihood(state, sample, weights) + \
            log_priors(state.tau_a, state.tau_eps, prior)
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)

    def test_unit_weights_give_ordinary_joint(self):
        # w == 1 reduces to the unweighted hierarchical log joint
        rng = np.random.default_rng(0)
        y = [rng.normal(size=3), rng.normal(size=2)]
        from helpers import census_sample
        from svyanova.popgen import Population, PopulationConfig

        cfg = PopulationConfig(M=2, N_h=(3, 2), mu0=0.0, sigma_a0=1.0,
                               sigma_eps0=1.0, seed=0)
        pop = Population(config=cfg, a0=np.zeros(2), eps0=np.concatenate(y),
                         y=np.concatenate(y))
        sample = census_sample(pop)
        from svyanova.design import WeightMode, build_weights

        weights = build_weights(sample, WeightMode.EQUAL)
        state = ParamState(0.3, 1.1, 0.8, np.array([0.2, -0.4]))
        got = augmented_logpseudolikelihood(state, sample, weights)
        expected = 0.0
        for k in range(2):
            expected += float(np.sum(norm.logpdf(
                y[k], loc=0.3 + state.a[k], scale=state.tau_eps ** -0.5)))
            expected += float(norm.logpdf(state.a[k], scale=state.tau_a ** -0.5))
        assert got == pytest.approx(expected, rel=1e-12)
