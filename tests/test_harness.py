import json
import math
from dataclasses import replace

import numpy as np
import pytest

import svyanova
from svyanova.design import ClusterDesign, TwoStageDesign, UnitDesign
from svyanova.errors import ConfigError
from svyanova.harness import (ESTIMATORS, ReplicationReport, Scenario,
                              ScenarioFailure, aggregate_quantiles,
                              emit_plot_data, load_scenarios, report_to_json,
                              run_grid, run_scenario)
from svyanova.inference import ChainConfig, ParamState, PriorConfig
from svyanova.popgen import PopulationConfig


def _scenario(scenario_id="t", M=40, N_h=8, m=10, n_k=3, R=3, base_seed=5,
              estimators=("equal_gibbs", "double_gibbs"),
              cluster=ClusterDesign.QUADRATIC_SYMMETRIC,
              unit=UnitDesign.SYMMETRIC_QUADRATIC, iters=300, burn=100):
    return Scenario(
        scenario_id=scenario_id,
        population=PopulationConfig(M=M, N_h=N_h, mu0=1.0, sigma_a0=2.0,
                                    sigma_eps0=3.0, seed=0),
        design=TwoStageDesign(cluster, unit, m=m, n_k=n_k, seed=0),
        estimators=estimators, R=R, base_seed=base_seed,
        chain=ChainConfig(n_iterations=iters, n_burnin=burn, seed=0),
        priors=PriorConfig(),
    )


class TestRunScenario:
    def test_estimate_vectors_have_R_entries(self):
        rep = run_scenario(_scenario(R=4))
        for e in rep.scenario.estimators:
            for p in ("b0", "sigma_a", "sigma_eps"):
                assert rep.estimates[(e, p)].shape == (4,)
        assert all(not f for f in rep.failures)

    def test_census_single_replicate_is_plain_fit(self):
        scen = _scenario(M=30, N_h=6, m=30, n_k=6, R=1,
                         estimators=("equal_gibbs",), iters=600, burn=200)
        rep = run_scenario(scen)
        assert rep.R == 1
        assert abs(rep.estimates[("equal_gibbs", "b0")][0] - 1.0) < 1.5

    def test_deterministic_given_base_seed(self, tmp_path):
        r1 = run_scenario(_scenario(base_seed=77))
        r2 = run_scenario(_scenario(base_seed=77))
        for key in r1.estimates:
            np.testing.assert_array_equal(r1.estimates[key], r2.estimates[key])
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_plot_data([r1], d1)
        emit_plot_data([r2], d2)
        assert (d1 / "estimates_long.csv").read_bytes() == \
            (d2 / "estimates_long.csv").read_bytes()
        assert (d1 / "quantiles.csv").read_bytes() == (d2 / "quantiles.csv").read_bytes()

    def test_replicate_isolation(self):
        # per-replicate seed splitting: a shorter run is a prefix of a longer
        r3 = run_scenario(_scenario(R=3, base_seed=9))
        r2 = run_scenario(_scenario(R=2, base_seed=9))
        for key in r2.estimates:
            np.testing.assert_array_equal(r2.estimates[key], r3.estimates[key][:2])

    def test_estimators_see_identical_samples(self):
        # gibbs under equal vs double mode share the replicate sample; with a
        # census design all weights are 1, so estimates coincide exactly
        scen = _scenario(M=20, N_h=5, m=20, n_k=5, R=2,
                         estimators=("equal_gibbs", "single_gibbs", "double_gibbs"))
        rep = run_scenario(scen)
        for p in ("b0", "sigma_a", "sigma_eps"):
            np.testing.assert_array_equal(rep.estimates[("equal_gibbs", p)],
                                          rep.estimates[("double_gibbs", p)])
            np.testing.assert_array_equal(rep.estimates[("equal_gibbs", p)],
                                          rep.estimates[("single_gibbs", p)])

    def test_parallel_workers_match_serial(self):
        scen = _scenario(R=3, base_seed=41)
        serial = run_scenario(scen, workers=1)
        parallel = run_scenario(scen, workers=2)
        for key in serial.estimates:
            np.testing.assert_array_equal(serial.estimates[key], parallel.estimates[key])

    def test_all_estimator_kinds_run(self):
        scen = _scenario(R=1, estimators=ESTIMATORS, iters=400, burn=150)
        rep = run_scenario(scen)
        assert not rep.failures[0]
        # the collapsed route keeps every independent draw
        assert rep.diagnostics[0]["double_integrated"]["acceptance_rate"] == 1.0
        assert rep.diagnostics[0]["double_map"]["converged"] in (True, False)

    def test_improper_integrated_posterior_is_a_nan_row_with_message(self):
        # one sampled cluster under normalized weights: W/2 + alpha1 = 0.6, so
        # sigma_a has no finite posterior mean, under the integrated posterior
        # and under the augmented one whose marginal it is
        rep = run_scenario(_scenario(m=1, R=1, estimators=("double_gibbs",
                                                           "double_integrated")))
        for est in ("double_gibbs", "double_integrated"):
            assert rep.failures[0][est].startswith("PosteriorError: W/2 + alpha1")
            assert all(math.isnan(rep.estimates[(est, p)][0])
                       for p in ("b0", "sigma_a", "sigma_eps"))


class TestQuantileAggregation:
    def test_type7_linear_interpolation(self):
        est = {("equal_gibbs", "b0"): np.array([10.0, 20.0, 30.0, 40.0])}
        q05, q50, q95 = aggregate_quantiles(est)[("equal_gibbs", "b0")]
        # type-7: h = (n-1)q, linear between order statistics
        assert q50 == pytest.approx(25.0)
        assert q05 == pytest.approx(10.0 + 0.15 * 10.0)
        assert q95 == pytest.approx(30.0 + 0.85 * 10.0)

    def test_nan_failures_excluded(self):
        est = {("equal_gibbs", "b0"): np.array([1.0, math.nan, 3.0])}
        q05, q50, q95 = aggregate_quantiles(est)[("equal_gibbs", "b0")]
        assert q50 == pytest.approx(2.0)

    def test_map_estimates_clipped(self):
        est = {("double_map", "sigma_a"): np.array([2.0, 1e6, 2.0]),
               ("double_gibbs", "sigma_a"): np.array([2.0, 1e6, 2.0])}
        q = aggregate_quantiles(est)
        assert q[("double_map", "sigma_a")][2] <= 10.0
        assert q[("double_gibbs", "sigma_a")][2] > 10.0


class TestRunGrid:
    def test_empty_grid(self):
        assert run_grid([]) == []

    def test_failing_scenario_isolated(self):
        good = _scenario(scenario_id="a-good", R=2)
        bad = _scenario(scenario_id="b-bad", R=2, n_k=1000)  # n_k > N_h
        out = run_grid([bad, good])
        assert len(out) == 2
        assert isinstance(out[0], ReplicationReport)       # sorted by id
        assert out[0].scenario.scenario_id == "a-good"
        assert isinstance(out[1], ScenarioFailure)

    def test_stable_ordering(self):
        scens = [_scenario(scenario_id=f"s{i}", R=1, estimators=("equal_gibbs",))
                 for i in (3, 1, 2)]
        out = run_grid(scens)
        assert [r.scenario.scenario_id for r in out] == ["s1", "s2", "s3"]


class TestEmitPlotData:
    def test_row_counts_and_round_trip(self, tmp_path):
        scen = _scenario(R=5, estimators=("equal_gibbs", "double_gibbs"))
        rep = run_scenario(scen)
        long_path, quant_path = emit_plot_data([rep], tmp_path)

        import csv

        with open(long_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3 * 5  # estimators x parameters x replicates

        with open(quant_path, newline="") as fh:
            qrows = list(csv.DictReader(fh))
        assert len(qrows) == 2 * 3

        # recomputing quantiles from the long file reproduces the report
        for qrow in qrows:
            key = (qrow["estimator"], qrow["parameter"])
            vals = np.array([float(r["estimate"]) for r in rows
                             if (r["estimator"], r["parameter"]) == key])
            expect = np.quantile(vals[np.isfinite(vals)], (0.05, 0.5, 0.95))
            got = np.array([float(qrow[c]) for c in ("q05", "q50", "q95")])
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_truth_reference_included(self, tmp_path):
        rep = run_scenario(_scenario(R=2))
        _, quant_path = emit_plot_data([rep], tmp_path)
        import csv

        with open(quant_path, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["truth"]) in (1.0, 2.0, 3.0)

    def test_report_json_shape(self):
        rep = run_scenario(_scenario(R=2))
        js = report_to_json(rep)
        assert js["scenario"]["R"] == 2
        assert js["n_failures"] == 0
        assert "equal_gibbs/b0" in js["quantiles"]

    def test_report_json_echoes_scenario_and_chain_health(self):
        scen = _scenario(M=12, N_h=[3 + h % 4 for h in range(12)], m=6, n_k=2, R=2,
                         estimators=("double_gibbs", "double_integrated", "double_map"))
        rep = run_scenario(scen)
        js = json.loads(json.dumps(report_to_json(rep)))
        assert js["scenario"]["N_h"] == [3 + h % 4 for h in range(12)]
        assert js["scenario"]["chain"] == {"n_iterations": 300, "n_burnin": 100,
                                           "thin": 1, "init": "auto"}
        assert js["scenario"]["priors"] == {"alpha1": 0.1, "beta1": 0.1,
                                            "alpha2": 0.1, "beta2": 0.1}
        assert js["scenario"]["svyanova_version"] == svyanova.__version__
        assert js["scenario"]["numpy_version"] == np.__version__
        assert len(js["diagnostics"]) == 2
        for r, diag in enumerate(js["diagnostics"]):
            assert diag["double_gibbs"]["converged"] is True
            assert diag["double_integrated"]["acceptance_rate"] == \
                rep.diagnostics[r]["double_integrated"]["acceptance_rate"]
            assert diag["double_integrated"]["acceptance_rate"] == 1.0
            assert diag["double_map"]["converged"] in (True, False)
            assert math.isfinite(diag["double_map"]["loglik"])

    def test_report_json_echoes_explicit_init(self):
        scen = _scenario(R=1, estimators=("equal_gibbs",))
        scen = replace(scen, chain=replace(scen.chain, init=ParamState(0.5, 0.3, 0.2)))
        js = json.loads(json.dumps(report_to_json(run_scenario(scen))))
        assert js["scenario"]["chain"]["init"] == {"mu": 0.5, "tau_a": 0.3, "tau_eps": 0.2}


class TestScenarioFiles:
    def test_explicit_grid_points(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "name: demo\n"
            "population: {N_h: 8, mu0: 1.0, sigma_a0: 2.0, sigma_eps0: 3.0}\n"
            "design: {cluster: quadratic_symmetric, unit: srs, n_k: 3}\n"
            "grid:\n"
            "  - {M: 40, m: 10}\n"
            "  - {M: 80, m: 20}\n"
            "estimators: [equal_gibbs]\n"
            "R: 4\nbase_seed: 3\n"
            "chain: {n_iterations: 200, n_burnin: 100}\n"
            "desk: {R: 2, M: 2, m: 2}\n")
        scens = load_scenarios(cfg)
        assert len(scens) == 2
        assert scens[0].population.M == 40 and scens[0].design.m == 10
        assert scens[0].R == 4

        desk = load_scenarios(cfg, desk=True)
        assert desk[0].population.M == 20 and desk[0].design.m == 5
        assert desk[0].R == 2

    def test_cross_product_grid(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "name: cross\n"
            "population: {N_h: 8}\n"
            "grid:\n"
            "  M: [40]\n"
            "  m: [10]\n"
            "  cluster: [srs, quadratic_symmetric]\n"
            "  unit: [srs, quadratic, linear]\n"
            "  n_k: [2, 4]\n"
            "R: 1\n")
        scens = load_scenarios(cfg)
        assert len(scens) == 12
        assert len({s.scenario_id for s in scens}) == 12

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name: x\npopulation: {N_h: 8}\n"
                       "grid: [{M: 40, m: 10}]\nR: 1\nbase_seed: 1\n")
        assert load_scenarios(cfg)[0].base_seed == 1
        assert load_scenarios(cfg, base_seed=99)[0].base_seed == 99

    @pytest.mark.parametrize("value", [".nan", ".inf", "-1.0"])
    def test_invalid_prior_fails_at_load(self, tmp_path, value):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name: x\npopulation: {N_h: 8}\n"
                       f"grid: [{{M: 40, m: 10}}]\nR: 1\npriors: {{beta2: {value}}}\n")
        with pytest.raises(ConfigError, match="beta2"):
            load_scenarios(cfg)

    @pytest.mark.parametrize("body, key, where", [
        ("grid: [{M: 40, m: 10, N_h: 8}]\nsigma_a: 5", "sigma_a", "the top level"),
        ("grid: [{M: 40, m: 10}]\npopulation: {N_h: 8, sigma_a: 5}", "sigma_a",
         "population"),
        ("grid: [{M: 40, m: 10, N_h: 8}]\ndesign: {n_k: 3, unit_design: srs}",
         "unit_design", "design"),
        ("grid: [{M: 40, m: 10, N_h: 8}, {M: 40, m: 10, sigma_a: 5}]", "sigma_a",
         "grid point 1"),
        ("grid: {M: [40], m: [10], N_h: [8], sigma_a: [5]}", "sigma_a", "grid axes"),
        ("grid: [{M: 40, m: 10, N_h: 8}]\ndesk: {R: 2, r: 2}", "r", "desk"),
        ("grid: [{M: 40, m: 10, N_h: 8}]\nchain: {n_iterations: 300, burnin: 100}",
         "burnin", "chain"),
        ("grid: [{M: 40, m: 10, N_h: 8}]\npriors: {alpha1: 0.1, alpha_1: 0.1}",
         "alpha_1", "priors"),
    ], ids=["top", "population", "design", "grid-point", "grid-axes", "desk", "chain",
            "priors"])
    def test_unknown_key_rejected(self, tmp_path, body, key, where):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"name: x\nR: 1\n{body}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in {where}"):
            load_scenarios(cfg)

    @pytest.mark.parametrize("body, where", [
        ("chain:", "chain"),
        ("chain: [1, 2]", "chain"),
        ("population: 3", "population"),
        ("priors: [0.1]", "priors"),
        ("desk:", "desk"),
        ("grid: [[40, 10]]", "grid point 0"),
    ], ids=["chain-empty", "chain-list", "population-scalar", "priors-list", "desk-empty",
            "grid-point-list"])
    def test_section_not_a_mapping_rejected(self, tmp_path, body, where):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"name: x\nR: 1\n{body}\n")
        with pytest.raises(ConfigError, match=f"^{where} must be a key-value mapping"):
            load_scenarios(cfg)

    def test_chain_seed_rejected(self, tmp_path):
        # chain seeds derive from base_seed; a chain.seed would be ignored
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name: x\nR: 1\ngrid: [{M: 40, m: 10, N_h: 8}]\n"
                       "chain: {n_iterations: 300, n_burnin: 100, seed: 5}\n")
        with pytest.raises(ConfigError, match=r"chain\.seed.*base_seed.*--seed"):
            load_scenarios(cfg)

    @pytest.mark.parametrize("init", ["map", "{mu: 0.0}"])
    def test_chain_init_other_than_auto_rejected(self, tmp_path, init):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name: x\nR: 1\ngrid: [{M: 40, m: 10, N_h: 8}]\n"
                       f"chain: {{n_iterations: 300, n_burnin: 100, init: {init}}}\n")
        with pytest.raises(ConfigError, match=r"chain\.init"):
            load_scenarios(cfg)

    def test_chain_init_auto_accepted(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name: x\nR: 1\ngrid: [{M: 40, m: 10, N_h: 8}]\n"
                       "chain: {n_iterations: 300, n_burnin: 100, init: auto}\n")
        assert load_scenarios(cfg)[0].chain.init == "auto"

    def test_bundled_paper_grids(self):
        from importlib import resources

        base = resources.files("svyanova") / "scenarios"
        s1 = load_scenarios(str(base / "paper-study1.cfg"))
        assert len(s1) == 3
        assert [s.population.M for s in s1] == [1000, 2000, 4000]
        assert [s.design.m for s in s1] == [50, 200, 800]
        assert all(s.R == 100 for s in s1)

        s2 = load_scenarios(str(base / "paper-study2.cfg"))
        assert len(s2) == 30
        s2_desk = load_scenarios(str(base / "paper-study2.cfg"), desk=True)
        assert s2_desk[0].population.M == 1000
        assert s2_desk[0].design.m == 100
        assert s2_desk[0].R == 20
