import math

import numpy as np
import pytest

from svyanova.design import SampleDraw, WeightMode, build_weights
from svyanova.errors import ConfigError
from svyanova.inference import (ChainConfig, ParamState, PriorConfig,
                                integrated_logposterior, map_estimate, run_gibbs,
                                run_integrated_mcmc)
from svyanova.popgen import PopulationConfig, generate_population

from helpers import CASES, census_sample, make_instance

PRIOR = PriorConfig()


def _moment_estimates(pop):
    """One-way ANOVA method-of-moments with equal cluster sizes."""
    n = pop.config.N_h[0]
    ys = np.split(pop.y, pop.offsets[1:-1])
    means = np.array([y.mean() for y in ys])
    grand = pop.y.mean()
    msw = sum(float(np.sum((y - y.mean()) ** 2)) for y in ys) / (pop.M * (n - 1))
    msb = n * float(np.sum((means - grand) ** 2)) / (pop.M - 1)
    var_a = max((msb - msw) / n, 0.0)
    return grand, np.sqrt(var_a), np.sqrt(msw)


class TestMapEstimate:
    def test_census_matches_moment_estimates(self):
        pop = generate_population(PopulationConfig(
            M=200, N_h=20, mu0=1.0, sigma_a0=2.0, sigma_eps0=3.0, seed=12))
        sample = census_sample(pop)
        weights = build_weights(sample, WeightMode.EQUAL)
        theta, _, converged = map_estimate(sample, weights, PRIOR)
        mu_mm, sa_mm, se_mm = _moment_estimates(pop)
        assert converged
        assert theta.mu == pytest.approx(mu_mm, abs=0.05)
        assert theta.sigma_a == pytest.approx(sa_mm, abs=0.1)
        assert theta.sigma_eps == pytest.approx(se_mm, abs=0.05)

    def test_ascent_from_init(self):
        sample, weights, state, prior = make_instance(8)
        init = ParamState(state.mu, state.tau_a, state.tau_eps)
        theta, _, _ = map_estimate(sample, weights, prior, init=init)
        assert integrated_logposterior(theta, sample, weights, prior) >= \
            integrated_logposterior(init, sample, weights, prior)

    def test_unknown_init_rejected(self):
        sample, weights, _, prior = make_instance(2)
        with pytest.raises(ConfigError, match="bogus"):
            map_estimate(sample, weights, prior, init="bogus")
        chain = ChainConfig(n_iterations=10, n_burnin=5, init="bogus")
        for run in (run_gibbs, run_integrated_mcmc):
            with pytest.raises(ConfigError, match="bogus"):
                run(sample, weights, prior, chain)

    def test_deterministic_given_seed(self):
        # the search draws nothing: the seed is accepted and ignored
        sample, weights, _, prior = make_instance(4)
        t1, l1, c1 = map_estimate(sample, weights, prior, seed=5)
        t2, l2, c2 = map_estimate(sample, weights, prior, seed=5)
        t3, l3, c3 = map_estimate(sample, weights, prior, seed=6)
        assert (t1.mu, t1.tau_a, t1.tau_eps, l1, c1) == (t2.mu, t2.tau_a, t2.tau_eps, l2, c2)
        assert (t1.mu, t1.tau_a, t1.tau_eps, l1, c1) == (t3.mu, t3.tau_a, t3.tau_eps, l3, c3)

    @pytest.mark.parametrize("case", CASES)
    def test_no_coordinate_step_improves(self, case):
        sample, weights, _, prior = make_instance(**case)
        theta, _, converged = map_estimate(sample, weights, prior)
        assert converged
        best = integrated_logposterior(theta, sample, weights, prior)
        x = (theta.mu, math.log(theta.tau_a), math.log(theta.tau_eps))
        for i in range(3):
            for step in (-1e-4, 1e-4):
                y = list(x)
                y[i] += step
                moved = (y[0], math.exp(y[1]), math.exp(y[2]))
                assert integrated_logposterior(moved, sample, weights, prior) <= best

    @pytest.mark.parametrize("n", [1, 5], ids=["kappa-negative", "tau_a-edge"])
    def test_one_cluster_has_no_interior_mode(self, n):
        # normalized weights give W = 1, so W/2 + alpha1 - 1 < 0 under the
        # default priors and the posterior grows without bound as tau_a -> 0;
        # with one unit, kappa <= 0 and tau_eps has no mode either
        y = np.random.default_rng(n).normal(1.0, 2.0, size=n)
        sample = SampleDraw(cluster_ids=np.array([0]), offsets=np.array([0, n]),
                            units=np.arange(n), pi_h=np.array([0.3]),
                            pi_cond=np.full(n, 0.5), y=y)
        weights = build_weights(sample, WeightMode.DOUBLE)
        theta, loglik, converged = map_estimate(sample, weights, PRIOR)
        assert not converged
        assert all(math.isfinite(v) for v in (theta.mu, theta.tau_a, theta.tau_eps, loglik))
        if n > 1:
            assert math.log(theta.tau_a) < -599.0

    def test_returns_loglik_at_estimate(self):
        from svyanova.inference import integrated_loglik

        sample, weights, _, prior = make_instance(6)
        theta, loglik, _ = map_estimate(sample, weights, prior)
        assert loglik == pytest.approx(integrated_loglik(theta, sample, weights), rel=1e-12)

    def test_near_posterior_mean_at_moderate_scale(self):
        # the point estimate tracks the integrated-chain posterior mean once
        # enough clusters are sampled
        from svyanova.design import (ClusterDesign, TwoStageDesign, UnitDesign,
                                     draw_two_stage_sample)
        from svyanova.inference import ChainConfig, run_integrated_mcmc

        pop = generate_population(PopulationConfig(
            M=1000, N_h=40, mu0=1.0, sigma_a0=2.0, sigma_eps0=3.0, seed=44))
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.SYMMETRIC_QUADRATIC, m=200, n_k=5, seed=45)
        sample = draw_two_stage_sample(pop, design)
        weights = build_weights(sample, WeightMode.DOUBLE)
        theta, _, _ = map_estimate(sample, weights, PRIOR)
        draws = run_integrated_mcmc(sample, weights, PRIOR,
                                    ChainConfig(n_iterations=4000, n_burnin=2000, seed=46))
        assert theta.mu == pytest.approx(draws.mean("b0"), abs=0.1)
        assert theta.sigma_a == pytest.approx(draws.mean("sigma_a"), abs=0.1)
        assert theta.sigma_eps == pytest.approx(draws.mean("sigma_eps"), abs=0.1)
