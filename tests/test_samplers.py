import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from svyanova.design import (ClusterDesign, TwoStageDesign, UnitDesign, WeightMode,
                             build_weights, draw_two_stage_sample)
from svyanova.errors import ConfigError, PosteriorError
from svyanova.inference import (ChainConfig, ParamState, PriorConfig, map_estimate,
                                run_gibbs, run_integrated_mcmc)
from svyanova.popgen import PopulationConfig, generate_population

from helpers import census_sample, make_instance


CHAIN = ChainConfig(n_iterations=3000, n_burnin=1000, seed=11)
PRIOR = PriorConfig()


@pytest.fixture(scope="module")
def census_fit():
    """Equal-weight census fit on a 500x40 population."""
    pop = generate_population(PopulationConfig(
        M=500, N_h=40, mu0=1.0, sigma_a0=2.0, sigma_eps0=3.0, seed=60))
    sample = census_sample(pop)
    weights = build_weights(sample, WeightMode.EQUAL)
    draws = run_gibbs(sample, weights, PRIOR, CHAIN)
    return pop, sample, weights, draws


class TestGibbs:
    def test_census_recovers_truth(self, census_fit):
        pop, _, _, draws = census_fit
        truth = {"b0": pop.config.mu0, "sigma_a": pop.config.sigma_a0,
                 "sigma_eps": pop.config.sigma_eps0}
        for p, val in truth.items():
            assert abs(draws.mean(p) - val) < 3 * draws.sd(p)

    def test_seed_determinism(self, census_fit):
        _, sample, weights, draws = census_fit
        again = run_gibbs(sample, weights, PRIOR, CHAIN)
        assert np.array_equal(draws.mu, again.mu)
        assert np.array_equal(draws.tau_a, again.tau_a)
        assert np.array_equal(draws.a, again.a)

    @pytest.mark.parametrize("thin", [1, 3])
    @pytest.mark.parametrize("runner", [run_gibbs, run_integrated_mcmc])
    def test_draw_count_and_thinning(self, census_fit, runner, thin):
        _, sample, weights, _ = census_fit
        chain = ChainConfig(n_iterations=1000, n_burnin=400, thin=thin, seed=1)
        draws = runner(sample, weights, PRIOR, chain)
        np.testing.assert_array_equal(draws.iterations, np.arange(400, 1000, thin))
        assert draws.n_draws == len(draws.iterations) == 600 // thin
        if runner is run_gibbs:
            assert draws.a.shape == (draws.n_draws, sample.m)
        else:
            assert draws.a is None

    def test_stores_cluster_effects(self, census_fit):
        _, sample, _, draws = census_fit
        assert draws.a is not None
        assert draws.a.shape == (draws.n_draws, sample.m)

    def test_translation_equivariance(self, medium_population):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.SYMMETRIC_QUADRATIC, m=50, n_k=5, seed=4)
        sample = draw_two_stage_sample(medium_population, design)
        weights = build_weights(sample, WeightMode.DOUBLE)
        base = run_gibbs(sample, weights, PRIOR, CHAIN)
        c = 7.5
        shifted_sample = replace(sample, y=sample.y + c)
        shifted = run_gibbs(shifted_sample, weights, PRIOR, CHAIN)
        mc = 3 * (base.sd("b0") + shifted.sd("b0")) / math.sqrt(base.n_draws / 10)
        assert abs(shifted.mean("b0") - base.mean("b0") - c) < mc
        for p in ("sigma_a", "sigma_eps"):
            tol = 3 * (base.sd(p) + shifted.sd(p)) / math.sqrt(base.n_draws / 10)
            assert abs(shifted.mean(p) - base.mean(p)) < tol

    def test_nan_response_raises_posterior_error(self):
        sample, weights, _, prior = make_instance(3)
        bad = sample.y.copy()
        bad[0] = math.nan
        nan_sample = replace(sample, y=bad)
        with pytest.raises(PosteriorError, match="reaches nan"):
            run_gibbs(nan_sample, weights, prior,
                      ChainConfig(n_iterations=10, n_burnin=1, seed=0,
                                  init=ParamState(0.0, 1.0, 1.0)))

    def test_draws_differ_from_integrated_at_same_seed(self):
        # the effects' normals come first, so the two routes' (mu, tau_a,
        # tau_eps) draws are independent samples, not copies of each other
        sample, weights, _, prior = make_instance(3)
        chain = ChainConfig(n_iterations=400, n_burnin=100, seed=7)
        g = run_gibbs(sample, weights, prior, chain)
        i = run_integrated_mcmc(sample, weights, prior, chain)
        assert not np.any(g.mu == i.mu)

    def test_invalid_chain_config(self):
        with pytest.raises(ConfigError):
            ChainConfig(n_iterations=100, n_burnin=100)
        with pytest.raises(ConfigError):
            ChainConfig(thin=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("key", ["alpha1", "beta1", "alpha2", "beta2"])
    def test_invalid_prior_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            PriorConfig(**{key: value})


class TestCensusReduction:
    def test_all_modes_identical_at_census(self, small_population):
        # pi == 1 makes every weight exactly one, so the three modes give
        # bitwise-identical chains under the same seed
        sample = census_sample(small_population)
        chain = ChainConfig(n_iterations=300, n_burnin=100, seed=17)
        draws = {mode: run_gibbs(sample, build_weights(sample, mode), PRIOR, chain)
                 for mode in WeightMode}
        for mode in (WeightMode.SINGLE, WeightMode.DOUBLE):
            assert np.array_equal(draws[mode].mu, draws[WeightMode.EQUAL].mu)
            assert np.array_equal(draws[mode].tau_a, draws[WeightMode.EQUAL].tau_a)


class TestShiftInvariance:
    """y + c moves b0 by c and leaves the scales alone, up to the rounding of
    y + c itself (1e-15 |c| covers a few ulp of c), for c up to 1e6."""

    KINDS = ({}, {"m_max": 1, "nk_max": 1}, {"m_max": 20, "nk_max": 20},
             {"w_range": (0.01, 1000.0), "log_weights": True})

    @given(c=st.floats(-1e6, 1e6), seed=st.integers(0, 19), kind=st.sampled_from(KINDS))
    @example(c=1e6, seed=5, kind=KINDS[2])
    @settings(max_examples=40, deadline=None)
    def test_map_and_gibbs_follow_the_shift(self, c, seed, kind):
        sample, weights, _, prior = make_instance(seed, **kind)
        shifted = replace(sample, y=sample.y + c)
        b0_tol = 1e-9 + 1e-15 * abs(c)
        chain = ChainConfig(n_iterations=300, n_burnin=100, seed=seed)
        base, moved = (run_gibbs(s, weights, prior, chain) for s in (sample, shifted))
        np.testing.assert_allclose(moved.mu - c, base.mu, rtol=0, atol=b0_tol)
        for p in ("sigma_a", "sigma_eps"):
            np.testing.assert_allclose(moved.values(p), base.values(p), rtol=1e-9)
        (base, _, _), (moved, _, _) = (map_estimate(s, weights, prior)
                                       for s in (sample, shifted))
        assert abs(moved.mu - c - base.mu) <= b0_tol
        assert moved.sigma_a == pytest.approx(base.sigma_a, rel=1e-9)
        assert moved.sigma_eps == pytest.approx(base.sigma_eps, rel=1e-9)


class TestIntegratedMcmc:
    def test_seed_determinism(self, medium_population):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.SYMMETRIC_QUADRATIC, m=40, n_k=5, seed=9)
        sample = draw_two_stage_sample(medium_population, design)
        weights = build_weights(sample, WeightMode.DOUBLE)
        d1 = run_integrated_mcmc(sample, weights, PRIOR, CHAIN)
        d2 = run_integrated_mcmc(sample, weights, PRIOR, CHAIN)
        assert np.array_equal(d1.mu, d2.mu)
        assert d1.acceptance_rate == d2.acceptance_rate
        assert d1.a is None

    def test_agrees_with_gibbs(self, medium_population):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.SYMMETRIC_QUADRATIC, m=60, n_k=5, seed=2)
        sample = draw_two_stage_sample(medium_population, design)
        weights = build_weights(sample, WeightMode.DOUBLE)
        chain = ChainConfig(n_iterations=6000, n_burnin=2000, seed=5)
        g = run_gibbs(sample, weights, PRIOR, chain)
        i = run_integrated_mcmc(sample, weights, PRIOR, chain)
        for p in ("b0", "sigma_a", "sigma_eps"):
            # both chains target the same marginal; allow combined MC error
            tol = 3 * (g.sd(p) + i.sd(p)) / math.sqrt(g.n_draws / 30)
            assert abs(g.mean(p) - i.mean(p)) < max(tol, 0.05)

    def test_draws_are_independent(self, medium_population):
        # exact draws: every one is kept and none leans on the one before
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.SYMMETRIC_QUADRATIC, m=60, n_k=5, seed=2)
        sample = draw_two_stage_sample(medium_population, design)
        weights = build_weights(sample, WeightMode.DOUBLE)
        draws = run_integrated_mcmc(sample, weights, PRIOR, CHAIN)
        assert draws.acceptance_rate == 1.0
        for p in ("b0", "sigma_a", "sigma_eps"):
            v = draws.values(p) - draws.mean(p)
            lag1 = float(v[1:] @ v[:-1]) / float(v @ v)
            assert abs(lag1) < 4 / math.sqrt(draws.n_draws)

    def test_vague_one_point_target_is_explicit_error(self):
        # one data point under a vague prior: kappa + 3/2 = 0.02, so sigma_eps
        # has no finite posterior mean
        sample, weights, _, _ = make_instance(0, m_max=1, nk_max=1, w_range=(1.0, 1.0))
        prior = PriorConfig(0.01, 0.01, 0.01, 0.01)
        chain = ChainConfig(n_iterations=6000, n_burnin=3000, seed=21)
        with pytest.raises(PosteriorError, match="kappa"):
            run_integrated_mcmc(sample, weights, prior, chain)

    def test_explicit_init_state(self, small_population):
        sample = census_sample(small_population)
        weights = build_weights(sample, WeightMode.EQUAL)
        chain = ChainConfig(n_iterations=500, n_burnin=200, seed=3,
                            init=ParamState(0.5, 0.3, 0.2))
        draws = run_integrated_mcmc(sample, weights, PRIOR, chain)
        assert draws.n_draws == 300


class TestStreamPin:
    """Draws of one small instance, pinned so that a change to the random
    streams is made on purpose: a kernel rewrite that keeps the streams
    moves the draws by rounding only, and MAP within its search tolerance."""

    CHAIN = ChainConfig(n_iterations=60, n_burnin=10, seed=11)

    @pytest.mark.parametrize("runner, first, last", [
        (run_gibbs,
         (-0.2625983767983374, 5.2362244972696725, 0.1381649988583922),
         (0.06470165826944102, 8.599867256780897, 0.14157038478462164)),
        (run_integrated_mcmc,
         (-0.3011320372532631, 7.1889597546792805, 0.16941926240530142),
         (-0.11474947482519851, 15.06629201557328, 0.08020786683950931)),
    ], ids=["gibbs", "integrated"])
    def test_chain_draws(self, runner, first, last):
        sample, weights, _, prior = make_instance(3)
        draws = runner(sample, weights, prior, self.CHAIN)
        assert draws.n_draws == 50
        for i, want in ((0, first), (-1, last)):
            got = (draws.mu[i], draws.tau_a[i], draws.tau_eps[i])
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        if runner is run_integrated_mcmc:
            assert draws.acceptance_rate == 1.0
        else:
            assert (draws.a[0, 0], draws.a[-1, -1]) == pytest.approx(
                (-0.038290088194157475, 0.1845789702946365), rel=1e-12, abs=0)

    def test_map_theta(self):
        sample, weights, _, prior = make_instance(3)
        theta, _, converged = map_estimate(sample, weights, prior, seed=11)
        assert converged
        assert (theta.mu, theta.tau_a, theta.tau_eps) == pytest.approx(
            (-0.3363704203154593, 8.483960072356554, 0.13044054884640058), rel=1e-6)


class TestDrawsMatrixIO:
    def test_csv_export(self, tmp_path, census_fit):
        _, _, _, draws = census_fit
        path = tmp_path / "draws.csv"
        draws.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,mu,sigma_a,sigma_eps"
        assert len(lines) == draws.n_draws + 1
        first = lines[1].split(",")
        assert float(first[1]) == draws.mu[0]

    def test_csv_export_with_effects(self, tmp_path, census_fit):
        _, sample, _, draws = census_fit
        path = tmp_path / "draws_a.csv"
        draws.to_csv(path, include_effects=True)
        header = path.read_text().splitlines()[0].split(",")
        assert header[4] == "a_1"
        assert len(header) == 4 + sample.m

    def test_summary_shape(self, census_fit):
        _, _, _, draws = census_fit
        s = draws.summary(mode="equal")
        assert set(s) == {"mode", "point_estimates", "posterior_sd", "quantiles",
                          "acceptance_rate", "converged"}
        assert set(s["point_estimates"]) == {"b0", "sigma_a", "sigma_eps"}
        assert set(s["quantiles"]["b0"]) == {"q05", "q50", "q95"}
