import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2_contingency

from svyanova import design as design_module
from svyanova.design import (ClusterDesign, SampleDraw, TwoStageDesign, UnitDesign,
                             WeightMode, build_weights, draw_two_stage_sample,
                             inclusion_probs, sample_from_csv,
                             sample_to_csv, size_measures, systematic_pps)
from svyanova.errors import DesignError
from svyanova.popgen import Population, PopulationConfig
from svyanova.rng import substream

from helpers import census_sample


def _toy_population():
    cfg = PopulationConfig(M=3, N_h=(3, 2, 3), mu0=0.0, sigma_a0=1.0,
                           sigma_eps0=1.0, seed=0)
    a0 = np.array([0.0, 2.0, -2.0])
    eps0 = np.array([-1.0, 0.0, 2.0, -4.0, 1.0, 0.5, -0.5, 3.0])
    return Population(config=cfg, a0=a0, eps0=eps0, y=np.repeat(a0, cfg.N_h) + eps0)


class TestSizeMeasures:
    def test_quadratic_symmetric_clusters(self):
        pop = _toy_population()
        np.testing.assert_allclose(
            size_measures(pop, ClusterDesign.QUADRATIC_SYMMETRIC), [1.0, 5.0, 5.0])

    def test_linear_asymmetric_clusters(self):
        pop = _toy_population()
        np.testing.assert_allclose(
            size_measures(pop, ClusterDesign.LINEAR_ASYMMETRIC), [3.0, 5.0, 1.0])

    def test_srs_clusters(self):
        pop = _toy_population()
        np.testing.assert_allclose(size_measures(pop, ClusterDesign.SRS), [1, 1, 1])

    def test_weak_quadratic_units(self):
        pop = _toy_population()
        np.testing.assert_allclose(
            size_measures(pop, UnitDesign.WEAK_QUADRATIC, cluster=0), [1.0, 1.0, 2.2])

    def test_quadratic_units(self):
        pop = _toy_population()
        np.testing.assert_allclose(
            size_measures(pop, UnitDesign.QUADRATIC, cluster=0), [1.0, 1.0, 5.0])

    def test_symmetric_quadratic_units(self):
        pop = _toy_population()
        np.testing.assert_allclose(
            size_measures(pop, UnitDesign.SYMMETRIC_QUADRATIC, cluster=0), [2.0, 1.0, 5.0])

    def test_linear_units_use_population_min(self):
        pop = _toy_population()  # global eps min is -4 (cluster 1)
        np.testing.assert_allclose(
            size_measures(pop, UnitDesign.LINEAR, cluster=0), [4.0, 5.0, 7.0])
        np.testing.assert_allclose(
            size_measures(pop, UnitDesign.WEAK_LINEAR, cluster=0), [1.9, 2.2, 2.8])

    def test_all_positive(self):
        pop = _toy_population()
        for kind in UnitDesign:
            for h in range(3):
                assert np.all(size_measures(pop, kind, cluster=h) > 0)

    def test_unit_kind_requires_cluster(self):
        with pytest.raises(DesignError):
            size_measures(_toy_population(), UnitDesign.QUADRATIC)


class TestInclusionProbs:
    def test_uniform_sizes(self):
        np.testing.assert_allclose(inclusion_probs(np.ones(4), 2), [0.5] * 4)

    def test_capping_redistributes(self):
        # 2*10/12 > 1 caps the big element; the leftover budget of 1 splits
        # over the remaining equal sizes
        np.testing.assert_allclose(inclusion_probs([10, 1, 1], 2), [1.0, 0.5, 0.5])

    def test_no_capping_needed(self):
        np.testing.assert_allclose(inclusion_probs([1, 5, 5], 1),
                                   [1 / 11, 5 / 11, 5 / 11])

    def test_census(self):
        np.testing.assert_allclose(inclusion_probs([3.0, 0.1, 9.0], 3), [1, 1, 1])

    @pytest.mark.parametrize("sizes, n, message", [
        ([1.0, 1.0], 3, "cannot select n=3 from 2"),
        ([1.0, 0.0, 1.0], 1, "size measures must be positive"),
        ([np.nan, 1.0, 1.0], 1, "size measures must be finite, got nan"),
        ([np.inf, 1.0, 1.0], 1, "size measures must be finite, got inf"),
        ([1.0, -np.inf, 1.0], 2, "size measures must be finite, got -inf"),
    ], ids=["oversized-n", "zero", "nan", "inf", "minus-inf"])
    def test_invalid_input_rejected(self, sizes, n, message):
        with pytest.raises(DesignError, match=message):
            inclusion_probs(np.array(sizes), n)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_sum_and_range_properties(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 40))
        n = int(rng.integers(1, size + 1))
        sizes = rng.lognormal(0.0, 1.5, size=size)
        pi = inclusion_probs(sizes, n)
        assert abs(pi.sum() - n) < 1e-12 * max(1, n)
        assert np.all(pi <= 1.0)
        assert np.all(pi >= 0.0)


class TestInclusionProbsRows:
    @staticmethod
    def _assert_rows_match(sizes, n):
        got = inclusion_probs(sizes, n)
        for row, pi in zip(sizes, got):
            assert pi.tobytes() == inclusion_probs(row, n).tobytes()
        return got

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_bit_for_bit_per_row(self, seed):
        # widths on both sides of numpy's 8-wide pairwise-sum unrolling and
        # block of 128, lognormal sizes heavy enough that many rows cap
        rng = np.random.default_rng(seed)
        size = int(rng.choice([1, 3, 7, 8, 9, 16, 40, 127, 128, 129, 300]))
        n = int(rng.integers(1, size + 1))
        sizes = rng.lognormal(0.0, rng.uniform(0.0, 3.0), size=(int(rng.integers(1, 12)), size))
        self._assert_rows_match(sizes, n)

    def test_capped_and_uncapped_rows(self):
        # row 0 caps in two rounds, row 2 in one, row 1 not at all
        sizes = np.array([[100.0, 10.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0]])
        pi = self._assert_rows_match(sizes, 3)
        np.testing.assert_array_equal(pi, [[1, 1, 0.5, 0.5], [0.75] * 4,
                                           [1, 2 / 3, 2 / 3, 2 / 3]])

    def test_invalid_input_rejected(self):
        with pytest.raises(DesignError, match="cannot select n=3 from 2"):
            inclusion_probs(np.ones((2, 2)), 3)
        with pytest.raises(DesignError, match="must be positive"):
            inclusion_probs(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
        with pytest.raises(DesignError, match="must be finite, got nan"):
            inclusion_probs(np.array([[1.0, 1.0], [np.nan, 1.0]]), 1)


class TestSystematicPps:
    def test_certainty_inclusion(self, rng):
        for _ in range(5):
            assert list(systematic_pps(np.array([1.0, 1.0]), rng)) == [0, 1]

    @pytest.mark.parametrize("pi, message", [
        ([0.5, 0.4], "sum to 0.9, not an integer"),
        ([1.5, 0.5], r"must lie in \[0, 1\]"),
        ([np.nan, 0.5, 0.5], "inclusion probabilities must be finite, got nan"),
        ([np.inf, 0.5, 0.5], "inclusion probabilities must be finite, got inf"),
        ([0.5, 0.5, -np.inf], "inclusion probabilities must be finite, got -inf"),
    ], ids=["noninteger-sum", "above-one", "nan", "inf", "minus-inf"])
    def test_invalid_probabilities_rejected(self, rng, pi, message):
        with pytest.raises(DesignError, match=message):
            systematic_pps(np.array(pi), rng)

    def test_first_order_fidelity_uniform(self):
        pi = np.array([0.5, 0.5, 0.5, 0.5])
        rng = np.random.default_rng(1234)
        counts = np.zeros(4)
        draws = 100_000
        for _ in range(draws):
            counts[systematic_pps(pi, rng)] += 1
        freq = counts / draws
        # 3 binomial standard errors ~ 0.0047
        np.testing.assert_allclose(freq, 0.5, atol=0.005)

    def test_first_order_fidelity_unequal(self):
        pi = np.array([0.2, 0.8])
        rng = np.random.default_rng(4321)
        hits = 0
        draws = 100_000
        for _ in range(draws):
            hits += 1 in systematic_pps(pi, rng)
        assert abs(hits / draws - 0.8) < 0.005

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_returns_n_distinct_sorted(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 30))
        n = int(rng.integers(1, size + 1))
        pi = inclusion_probs(rng.lognormal(0, 1, size=size), n)
        sel = systematic_pps(pi, rng)
        assert len(sel) == n
        assert len(set(sel.tolist())) == n
        assert np.all(np.diff(sel) > 0)


class TestTwoStageSample:
    def test_census_includes_everything(self, small_population):
        pop = small_population
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.SYMMETRIC_QUADRATIC,
                                m=pop.M, n_k=pop.config.N_h[0], seed=1)
        sample = draw_two_stage_sample(pop, design)
        assert sample.m == pop.M
        assert np.all(sample.pi_h == 1.0)
        for i in range(sample.m):
            assert np.all(sample.pi_l_given_h[i] == 1.0)
            assert len(sample.unit_ids[i]) == pop.config.N_h[i]

    def test_invalid_design_rejected(self, small_population):
        with pytest.raises(DesignError):
            draw_two_stage_sample(small_population, TwoStageDesign(
                ClusterDesign.SRS, UnitDesign.SRS, m=small_population.M + 1, n_k=1, seed=0))
        with pytest.raises(DesignError):
            draw_two_stage_sample(small_population, TwoStageDesign(
                ClusterDesign.SRS, UnitDesign.SRS, m=1, n_k=10**6, seed=0))

    def test_probability_sums(self, small_population):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.QUADRATIC, m=10, n_k=4, seed=3)
        sample = draw_two_stage_sample(small_population, design)
        assert abs(sample.pi_h.sum() - design.m) < 1e-9
        for k, units, pi in zip(sample.cluster_ids, sample.unit_ids, sample.pi_l_given_h):
            roster = inclusion_probs(size_measures(small_population, design.unit_kind,
                                                   cluster=k), design.n_k)
            np.testing.assert_array_equal(pi, roster[units])

    def test_determinism(self, small_population):
        design = TwoStageDesign(ClusterDesign.LINEAR_ASYMMETRIC, UnitDesign.LINEAR,
                                m=12, n_k=5, seed=42)
        s1 = draw_two_stage_sample(small_population, design)
        s2 = draw_two_stage_sample(small_population, design)
        assert np.array_equal(s1.cluster_ids, s2.cluster_ids)
        for a, b in zip(s1.unit_ids, s2.unit_ids):
            assert np.array_equal(a, b)

    def test_srs_selection_frequencies(self):
        cfg = PopulationConfig(M=20, N_h=4, mu0=0.0, sigma_a0=1.0, sigma_eps0=1.0, seed=8)
        from svyanova.popgen import generate_population

        pop = generate_population(cfg)
        counts = np.zeros(20)
        draws = 10_000
        for t in range(draws):
            design = TwoStageDesign(ClusterDesign.SRS, UnitDesign.SRS, m=5, n_k=2, seed=t)
            counts[draw_two_stage_sample(pop, design).cluster_ids] += 1
        np.testing.assert_allclose(counts / draws, 0.25, atol=0.02)

    def test_informative_design_widens_sampled_effects(self, medium_population):
        # quadratic-symmetric cluster PPS oversamples both tails of a
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.SYMMETRIC_QUADRATIC, m=50, n_k=5, seed=17)
        sample = draw_two_stage_sample(medium_population, design)
        pop_spread = np.subtract(*np.quantile(medium_population.a0, [0.95, 0.05]))
        smp_spread = np.subtract(*np.quantile(
            medium_population.a0[sample.cluster_ids], [0.95, 0.05]))
        assert smp_spread > pop_spread

    def test_stage2_independent_across_clusters(self):
        # with both clusters always selected, unit selections in one cluster
        # carry no information about the other (chi-square on 2x2 table)
        cfg = PopulationConfig(M=2, N_h=6, mu0=0.0, sigma_a0=1.0, sigma_eps0=1.0, seed=5)
        from svyanova.popgen import generate_population

        pop = generate_population(cfg)
        table = np.zeros((2, 2), dtype=int)
        for t in range(4000):
            design = TwoStageDesign(ClusterDesign.SRS, UnitDesign.QUADRATIC,
                                    m=2, n_k=2, seed=t)
            s = draw_two_stage_sample(pop, design)
            i = int(0 in s.unit_ids[0])
            j = int(0 in s.unit_ids[1])
            table[i, j] += 1
        _, p, _, _ = chi2_contingency(table)
        assert p > 1e-3

    def test_cluster_units_do_not_depend_on_m(self, medium_population, monkeypatch):
        # stage 2 keys every cluster's random numbers by its population id
        # in one stream, so a cluster selected under two designs that differ
        # only in m gets the same units; each draw makes two substreams
        calls = []

        def counted(*key):
            calls.append(key)
            return substream(*key)

        monkeypatch.setattr(design_module, "substream", counted)
        units = {}
        for m in (1, 10, 40, medium_population.M):
            calls.clear()
            design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC, UnitDesign.LINEAR,
                                    m=m, n_k=5, seed=23)
            sample = draw_two_stage_sample(medium_population, design)
            assert calls == [(23, 1), (23, 2)]
            units[m] = dict(zip(sample.cluster_ids.tolist(), sample.unit_ids))
        # m = M selects every cluster
        for m in (1, 10, 40):
            for k, sel in units[m].items():
                np.testing.assert_array_equal(sel, units[medium_population.M][k])


class TestDesignStreamPin:
    """Sample draws and balance report of one small population with unequal
    cluster sizes under the linear unit designs, pinned exactly: a design
    layer rewrite that keeps the random streams reproduces them bit for bit.
    The sample's clusters come from the stream (seed, 1), its units from
    the one stream (seed, 2), and the balance values from the
    per-replicate stream (seed, 4, t)."""

    POP = PopulationConfig(M=12, N_h=(6, 9, 7, 12, 8, 10, 6, 11, 9, 7, 8, 10), mu0=1.0,
                           sigma_a0=2.0, sigma_eps0=3.0, seed=41)

    @pytest.mark.parametrize("unit, first_units, last_units, overall, rep_means", [
        (UnitDesign.LINEAR, [0, 1, 3, 4], [1, 2, 5, 6], 0.4968143813285802,
         [0.15656970157399805, 1.1507137960352936, 0.5685098090984285,
          0.11146421860660038]),
        (UnitDesign.WEAK_LINEAR, [0, 1, 4, 7], [1, 2, 5, 6], 0.40517408899288626,
         [0.2590915148653868, 0.8335322057535004, 0.32939912319512166,
          0.1986735121575357]),
    ], ids=["linear", "weak_linear"])
    def test_draws_and_balance(self, unit, first_units, last_units, overall, rep_means):
        from svyanova.diagnostics import weighted_residual_balance
        from svyanova.popgen import generate_population

        pop = generate_population(self.POP)
        design = TwoStageDesign(ClusterDesign.LINEAR_ASYMMETRIC, unit, m=5, n_k=4, seed=43)
        sample = draw_two_stage_sample(pop, design)
        assert sample.cluster_ids.tolist() == [1, 6, 7, 8, 11]
        assert sample.unit_ids[0].tolist() == first_units
        assert sample.unit_ids[-1].tolist() == last_units
        balance = weighted_residual_balance(pop, design, n_replicates=4)
        assert balance.overall_mean == overall
        assert balance.replicate_means.tolist() == rep_means


class TestWeights:
    def test_census_double_unnormalized(self, small_population):
        sample = census_sample(small_population)
        w = build_weights(sample, WeightMode.DOUBLE, normalize=False)
        assert np.all(w.w_k == 1.0)
        for i in range(sample.m):
            assert np.all(w.w_jk[i] == 1.0)
        np.testing.assert_allclose([u.sum() for u in w.w_j_given_k], small_population.config.N_h)
        assert w.M_hat == small_population.M

    def test_cluster_normalization_arithmetic(self):
        sample = SampleDraw(
            cluster_ids=np.array([0, 1]), offsets=np.array([0, 1, 2]),
            units=np.array([0, 0]), pi_h=np.array([0.5, 0.25]),
            pi_cond=np.array([1.0, 1.0]), y=np.array([0.0, 0.0]),
        )
        w = build_weights(sample, WeightMode.DOUBLE, normalize=True)
        np.testing.assert_allclose(w.w_k, [2 / 3, 4 / 3])
        assert abs(w.w_k.sum() - 2) < 1e-12

    def test_equal_mode_all_ones(self, small_population):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.QUADRATIC, m=10, n_k=4, seed=3)
        sample = draw_two_stage_sample(small_population, design)
        w = build_weights(sample, WeightMode.EQUAL)
        assert np.all(w.w_k == 1.0)
        for i in range(sample.m):
            assert np.all(w.w_jk[i] == 1.0)
            assert np.all(w.w_j_given_k[i] == 1.0)

    def test_single_mode_unweighted_prior(self, small_population):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.QUADRATIC, m=10, n_k=4, seed=3)
        sample = draw_two_stage_sample(small_population, design)
        w = build_weights(sample, WeightMode.SINGLE, normalize=True)
        assert np.all(w.w_k == 1.0)
        for i in range(sample.m):
            assert abs(w.w_jk[i].sum() - design.n_k) < 1e-9
            np.testing.assert_array_equal(w.w_jk[i], w.w_j_given_k[i])

    @pytest.mark.parametrize("normalize", [True, False])
    def test_double_mode_product_identity(self, small_population, normalize):
        design = TwoStageDesign(ClusterDesign.LINEAR_ASYMMETRIC,
                                UnitDesign.WEAK_LINEAR, m=15, n_k=6, seed=11)
        sample = draw_two_stage_sample(small_population, design)
        w = build_weights(sample, WeightMode.DOUBLE, normalize=normalize)
        for i in range(sample.m):
            np.testing.assert_allclose(w.w_jk[i], w.w_k[i] * w.w_j_given_k[i], rtol=1e-15)

    def test_weights_positive_and_bounded(self, small_population):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.QUADRATIC, m=10, n_k=4, seed=3)
        sample = draw_two_stage_sample(small_population, design)
        w = build_weights(sample, WeightMode.DOUBLE, normalize=False)
        min_pi = min(sample.cluster_probs().min(),
                     min(p.min() for p in sample.selected_unit_probs()))
        bound = max(design.m, design.n_k) / min_pi
        assert np.all(w.w_k > 0)
        for i in range(sample.m):
            assert np.all(w.w_jk[i] > 0)
            assert np.all(w.w_jk[i] <= bound / min_pi + 1e-9)


class TestSampleCsv:
    def test_round_trip(self, small_population, tmp_path):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.QUADRATIC, m=8, n_k=3, seed=21)
        sample = draw_two_stage_sample(small_population, design)
        weights = build_weights(sample, WeightMode.DOUBLE)
        path = tmp_path / "sample.csv"
        sample_to_csv(sample, weights, path)

        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sample.n_total

        loaded = sample_from_csv(path)
        assert loaded.m == sample.m
        np.testing.assert_array_equal(loaded.cluster_probs(), sample.cluster_probs())
        for i in range(sample.m):
            np.testing.assert_array_equal(loaded.y_s[i], sample.y_s[i])
            np.testing.assert_array_equal(loaded.selected_unit_probs()[i],
                                          sample.selected_unit_probs()[i])
        # weights rebuilt from the round-tripped probabilities match
        w2 = build_weights(loaded, WeightMode.DOUBLE)
        np.testing.assert_allclose(w2.w_k, weights.w_k, rtol=1e-12)
        for i in range(sample.m):
            np.testing.assert_allclose(w2.w_jk[i], weights.w_jk[i], rtol=1e-12)

    @pytest.fixture
    def sample_csv(self, small_population, tmp_path):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.QUADRATIC, m=4, n_k=3, seed=21)
        sample = draw_two_stage_sample(small_population, design)
        path = tmp_path / "sample.csv"
        sample_to_csv(sample, build_weights(sample, WeightMode.DOUBLE), path)
        return path

    @staticmethod
    def _set_cells(path, column, values_by_line):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for line, value in values_by_line.items():
            rows[line - 1][rows[0].index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize("column, value", [
        ("y", "abc"), ("y", "nan"), ("y", "-inf"), ("y", ""),
        ("pi_h", "0"), ("pi_h", "1.5"), ("pi_h", "nan"),
        ("pi_l_given_h", "-0.5"), ("pi_l_given_h", "0.0"), ("pi_l_given_h", "1.0000001"),
        ("cluster_id", "x"), ("unit_id", "1.5"),
    ])
    def test_invalid_value_names_column_and_line(self, sample_csv, column, value):
        self._set_cells(sample_csv, column, {4: value})
        with pytest.raises(DesignError, match=f"line 4: {column} must be"):
            sample_from_csv(sample_csv)

    def test_repeated_unit_names_both_lines(self, sample_csv):
        # the first data row appended three times would load as three more units
        with open(sample_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(sample_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows + [rows[1]] * 3)
        message = (f"lines 2 and {len(rows) + 1}: unit {rows[1][1]} of cluster {rows[1][0]} "
                   "appears twice")
        with pytest.raises(DesignError, match=message):
            sample_from_csv(sample_csv)

    def test_same_unit_id_in_two_clusters_allowed(self, sample_csv):
        with open(sample_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        clusters = sorted({row[0] for row in rows[1:]})
        first_of = {c: next(row for row in rows[1:] if row[0] == c) for c in clusters[:2]}
        self._set_cells(sample_csv, "unit_id",
                        {rows.index(first_of[c]) + 1: "999999" for c in clusters[:2]})
        assert sample_from_csv(sample_csv).n_total == len(rows) - 1

    def test_out_of_range_probabilities_in_one_cluster_rejected(self, sample_csv):
        # 1.5 and -0.5 keep the cluster's sum, so nothing downstream notices
        self._set_cells(sample_csv, "pi_l_given_h", {2: "1.5", 3: "-0.5"})
        with pytest.raises(DesignError, match=r"line 2: pi_l_given_h must be in \(0, 1\]"):
            sample_from_csv(sample_csv)

    def test_rows_grouped_by_cluster_in_file_order(self, sample_csv):
        loaded = sample_from_csv(sample_csv)
        with open(sample_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1:] = rows[1:][::-1]  # clusters and units in reverse
        with open(sample_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        reversed_ = sample_from_csv(sample_csv)
        np.testing.assert_array_equal(reversed_.offsets, loaded.offsets)
        np.testing.assert_array_equal(reversed_.pi_h, loaded.pi_h)
        for a, b in zip(reversed_.y_s, loaded.y_s):
            np.testing.assert_array_equal(a, b[::-1])

    def test_blank_lines_skipped_and_short_row_named(self, sample_csv):
        # blank lines are not rows, so they shift no line number; a cell
        # missing from a short row reads as None
        loaded = sample_from_csv(sample_csv)
        with open(sample_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(sample_csv, "w", newline="") as fh:
            csv.writer(fh).writerows([rows[0], [], *rows[1:3], [], *rows[3:]])
        padded = sample_from_csv(sample_csv)
        np.testing.assert_array_equal(padded.y, loaded.y)
        np.testing.assert_array_equal(padded.pi_cond, loaded.pi_cond)
        rows[3] = rows[3][:4]
        with open(sample_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(DesignError, match="line 4: pi_l_given_h must be in .* got None"):
            sample_from_csv(sample_csv)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,unit_id\n0,0\n")
        with pytest.raises(DesignError):
            sample_from_csv(path)
