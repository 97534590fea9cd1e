import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binomtest

from svyanova import design, diagnostics
from svyanova.design import (ClusterDesign, TwoStageDesign, UnitDesign,
                             WeightMode, WeightSet, build_weights,
                             draw_two_stage_sample, inclusion_probs, size_measures)
from svyanova.diagnostics import (bounds_report, informativeness_summary,
                                  informativeness_to_csv, weighted_re_average,
                                  weighted_residual_balance)
from svyanova.errors import DesignError
from svyanova.inference import ChainConfig, DrawsMatrix, PriorConfig, run_gibbs
from svyanova.popgen import PopulationConfig, generate_population
from svyanova.rng import substream

from helpers import census_sample


def _design(unit_kind, n_k, seed=0, m=10):
    return TwoStageDesign(ClusterDesign.SRS, unit_kind, m=m, n_k=n_k, seed=seed)


class TestBalance:
    def test_srs_balanced(self, medium_population):
        rep = weighted_residual_balance(medium_population, _design(UnitDesign.SRS, 5),
                                        n_replicates=50)
        assert abs(rep.overall_mean) < 3 * rep.mc_se
        assert rep.per_cluster.shape == (medium_population.M,)
        assert np.all(rep.sampling_fraction == 5 / 40)

    def test_quadratic_unbalanced_at_small_fraction(self, medium_population):
        rep = weighted_residual_balance(medium_population,
                                        _design(UnitDesign.QUADRATIC, 5),
                                        n_replicates=50)
        assert rep.overall_mean > 5 * rep.mc_se

    def test_census_within_cluster_balances(self, medium_population):
        n = medium_population.config.N_h[0]
        rep = weighted_residual_balance(medium_population,
                                        _design(UnitDesign.QUADRATIC, n),
                                        n_replicates=3)
        # f_h = 1 forces the statistic to the population residual mean
        pop_mean = medium_population.eps0.mean()
        assert rep.overall_mean == pytest.approx(pop_mean, abs=1e-12)

    def test_monotone_in_sampling_fraction(self, medium_population):
        # |imbalance| at n_k=20 below n_k=5, replicate-paired sign test
        rep5 = weighted_residual_balance(medium_population,
                                         _design(UnitDesign.QUADRATIC, 5, seed=3),
                                         n_replicates=40)
        rep20 = weighted_residual_balance(medium_population,
                                          _design(UnitDesign.QUADRATIC, 20, seed=3),
                                          n_replicates=40)
        wins = int(np.sum(np.abs(rep5.replicate_means) > np.abs(rep20.replicate_means)))
        assert binomtest(wins, 40, 0.5, alternative="greater").pvalue < 0.01

    @pytest.mark.parametrize("unit", [UnitDesign.SRS, UnitDesign.LINEAR,
                                      UnitDesign.QUADRATIC])
    @pytest.mark.parametrize("T", [1, 2, 7])
    def test_census_per_cluster_is_cluster_mean(self, small_population, unit, T):
        # n_k == N_h: every unit's pi is 1 (by capping under the informative
        # designs), so every draw is the whole cluster and the statistic is
        # the cluster's mean noise, whatever T
        pop = small_population
        n = pop.config.N_h[0]
        for h in range(pop.M):
            assert np.all(inclusion_probs(size_measures(pop, unit, cluster=h), n) == 1.0)
        rep = weighted_residual_balance(pop, _design(unit, n), n_replicates=T)
        want = np.array([e.mean() for e in np.split(pop.eps0, pop.offsets[1:-1])])
        np.testing.assert_allclose(rep.per_cluster, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rep.replicate_means, np.full(T, want.mean()),
                                   rtol=1e-12, atol=1e-12)
        assert np.all(rep.sampling_fraction == 1.0)

    def test_non_integer_probability_sum_rejected(self, small_population, monkeypatch):
        # the sum check runs once per cluster, before any replicate draws
        def off_by_half(sizes, n):
            return np.full(sizes.shape, (n + 0.5) / sizes.shape[1])

        def no_draws(*key):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(design, "inclusion_probs", off_by_half)
        monkeypatch.setattr(diagnostics, "substream", no_draws)
        with pytest.raises(DesignError, match="not an integer"):
            weighted_residual_balance(small_population, _design(UnitDesign.SRS, 5), 3)

    def test_first_order_selection_frequencies_match_pi(self):
        # the balance's stream (seed, 4, t) selects unit j of cluster h with
        # probability pi_{j|h}: over T replicates its count is Binomial(T, pi),
        # so the z-scores of all units with 0 < pi < 1 are about N(0, 1);
        # unequal N_h gives several blocks, and quadratic sizes make some
        # rows cap
        sizes = np.random.default_rng(7).integers(4, 13, size=80)
        pop = generate_population(PopulationConfig(M=80, N_h=tuple(sizes.tolist()), mu0=1.0,
                                                   sigma_a0=2.0, sigma_eps0=3.0, seed=19))
        T = 400
        counts, pi = np.zeros(pop.N), np.zeros(pop.N)
        blocks = design.unit_blocks(pop, UnitDesign.QUADRATIC, 3, np.arange(pop.M))
        for t in range(T):
            for block, sel in design.select_units(pop, blocks, 3, substream(0, 4, t)):
                counts[block.starts[:, None] + sel] += 1
                pi[block.starts[:, None] + np.arange(block.pi.shape[1])] = block.pi
        assert np.any(pi == 1.0)
        inner = (pi > 0) & (pi < 1)
        z = (counts[inner] - T * pi[inner]) / np.sqrt(T * pi[inner] * (1 - pi[inner]))
        assert abs(z.mean()) < 0.1
        assert 0.9 < z.std() < 1.1
        np.testing.assert_array_equal(counts[pi == 1.0], T)

    def test_unit_order_is_the_stable_argsort(self):
        keys = np.random.default_rng(3).random((50, 40))
        keys[7, [3, 9, 30]] = keys[7, 12]  # ties are ordered by position
        keys[8] = 0.5
        for rows in (keys, keys[:7]):
            np.testing.assert_array_equal(design._stable_order(rows),
                                          np.argsort(rows, axis=1, kind="stable"))

    def test_replicate_count_validated(self, medium_population):
        with pytest.raises(ValueError):
            weighted_residual_balance(medium_population, _design(UnitDesign.SRS, 5), 0)


class TestWeightedREAverage:
    @staticmethod
    def _draws_with_a(a):
        n = len(a)
        return DrawsMatrix(mu=np.zeros(n), tau_a=np.ones(n), tau_eps=np.ones(n),
                           a=np.asarray(a, dtype=float))

    @staticmethod
    def _weights(w_k):
        w_k = np.asarray(w_k, dtype=float)
        return WeightSet(mode=WeightMode.DOUBLE, w_k=w_k, offsets=np.arange(len(w_k) + 1),
                         w_cond=np.ones(len(w_k)), w_marg=np.ones(len(w_k)),
                         M_hat=float(w_k.sum()))

    def test_zero_effects(self):
        out = weighted_re_average(self._draws_with_a(np.zeros((5, 3))),
                                  self._weights([1, 1, 1]))
        assert out.mean == 0.0

    def test_hand_arithmetic(self):
        out = weighted_re_average(self._draws_with_a([[1.0, -1.0, 2.0]]),
                                  self._weights([1, 1, 1]))
        assert out.mean == pytest.approx(2 / 3)

    def test_integrated_draws_rejected(self):
        draws = DrawsMatrix(mu=np.zeros(3), tau_a=np.ones(3), tau_eps=np.ones(3), a=None)
        with pytest.raises(ValueError):
            weighted_re_average(draws, self._weights([1.0]))

    def test_posterior_sd_contracts_with_m(self):
        # the O(1/M) variance rate: quadrupling... m factor 16 => sd ratio ~ 4
        chain = ChainConfig(n_draws=800, seed=2)
        sds = {}
        for m, M in ((50, 1000), (800, 4000)):
            pop = generate_population(PopulationConfig(
                M=M, N_h=40, mu0=1.0, sigma_a0=2.0, sigma_eps0=3.0, seed=m))
            design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                    UnitDesign.SYMMETRIC_QUADRATIC, m=m, n_k=5, seed=m)
            sample = draw_two_stage_sample(pop, design)
            weights = build_weights(sample, WeightMode.DOUBLE)
            draws = run_gibbs(sample, weights, PriorConfig(), chain)
            sds[m] = weighted_re_average(draws, weights).sd
        ratio = sds[50] / sds[800]
        assert 2.5 <= ratio <= 6.0


class TestInformativeness:
    def test_census_quantiles_match(self, small_population):
        sample = census_sample(small_population)
        s = informativeness_summary(small_population, sample)
        assert s.population_quantiles == s.sample_quantiles

    def test_symmetric_quadratic_widens_spread(self, medium_population):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.SYMMETRIC_QUADRATIC, m=60, n_k=5, seed=31)
        sample = draw_two_stage_sample(medium_population, design)
        s = informativeness_summary(medium_population, sample, design="study1")
        pop_q = s.population_quantiles["a"]
        smp_q = s.sample_quantiles["a"]
        assert smp_q[2] - smp_q[0] > pop_q[2] - pop_q[0]

    def test_linear_asymmetric_shifts_median(self, medium_population):
        design = TwoStageDesign(ClusterDesign.LINEAR_ASYMMETRIC, UnitDesign.SRS,
                                m=60, n_k=5, seed=33)
        sample = draw_two_stage_sample(medium_population, design)
        s = informativeness_summary(medium_population, sample)
        assert s.sample_quantiles["a"][1] > s.population_quantiles["a"][1]

    def test_invariant_to_unit_relabeling(self, small_population):
        design = TwoStageDesign(ClusterDesign.SRS, UnitDesign.QUADRATIC,
                                m=20, n_k=5, seed=13)
        sample = draw_two_stage_sample(small_population, design)
        s1 = informativeness_summary(small_population, sample)
        # permute each cluster's stored unit order; the set of sampled units
        # is unchanged, so quantiles are too
        rng = np.random.default_rng(0)
        perm = np.concatenate([start + rng.permutation(n)
                               for start, n in zip(sample.offsets[:-1], sample.n_k)])
        relabeled = replace(sample, units=sample.units[perm], pi_cond=sample.pi_cond[perm],
                            y=sample.y[perm])
        s2 = informativeness_summary(small_population, relabeled)
        assert s1.sample_quantiles == s2.sample_quantiles

    def test_csv_layout(self, tmp_path, small_population):
        sample = census_sample(small_population)
        s = informativeness_summary(small_population, sample, design="census")
        path = tmp_path / "info.csv"
        informativeness_to_csv([s], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "design,source,variable,q05,q50,q95"
        assert len(lines) == 1 + 4  # 2 sources x 2 variables


class TestBounds:
    def test_census_all_ones_no_flag(self, small_population):
        sample = census_sample(small_population)
        weights = build_weights(sample, WeightMode.DOUBLE, normalize=False)
        rep = bounds_report(small_population, sample, weights)
        assert rep.cluster_weight_bound == pytest.approx(1.0)
        assert rep.unit_weight_bound == pytest.approx(1.0)
        assert rep.cluster_fraction == 1.0
        assert not rep.flagged

    def test_default_threshold_behavior(self, medium_population):
        design = TwoStageDesign(ClusterDesign.SRS, UnitDesign.SRS, m=10, n_k=5, seed=1)
        sample = draw_two_stage_sample(medium_population, design)
        weights = build_weights(sample, WeightMode.DOUBLE)
        rep = bounds_report(medium_population, sample, weights)
        assert rep.cluster_fraction == pytest.approx(0.05)
        assert not rep.flagged

    def test_tiny_fraction_flagged(self, medium_population):
        design = TwoStageDesign(ClusterDesign.SRS, UnitDesign.SRS, m=1, n_k=5, seed=1)
        sample = draw_two_stage_sample(medium_population, design)
        weights = build_weights(sample, WeightMode.DOUBLE)
        rep = bounds_report(medium_population, sample, weights)
        assert rep.cluster_fraction == pytest.approx(0.005)
        assert rep.flagged

    def test_json_serializable(self, small_population):
        sample = census_sample(small_population)
        weights = build_weights(sample, WeightMode.DOUBLE)
        rep = bounds_report(small_population, sample, weights)
        assert json.loads(json.dumps(rep.to_json()))["cluster_fraction"] == 1.0
