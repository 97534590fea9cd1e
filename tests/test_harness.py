import json
import math
import os
import re
import signal
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import svyanova
from svyanova import harness, inference
from svyanova.design import (ClusterDesign, TwoStageDesign, UnitDesign, WeightMode,
                             build_weights, draw_two_stage_sample)
from svyanova.errors import ConfigError, PosteriorError
from svyanova.harness import (_CHAIN, _MODE_OF, ESTIMATORS, ReplicationReport, Scenario,
                              ScenarioFailure, _run_replicate, aggregate_quantiles,
                              emit_plot_data, load_scenarios, replicate_configs,
                              report_to_json, run_grid, run_scenario)
from svyanova.inference import (ChainConfig, PriorConfig, posterior_means,
                                run_integrated_mcmc)
from svyanova.popgen import PopulationConfig, generate_population
from svyanova.rng import derive_seed

PARAMS = ("b0", "sigma_a", "sigma_eps")


def _scenario(scenario_id="t", M=40, N_h=8, m=10, n_k=3, R=3, base_seed=5,
              estimators=("equal_gibbs", "double_gibbs"),
              cluster=ClusterDesign.QUADRATIC_SYMMETRIC,
              unit=UnitDesign.SYMMETRIC_QUADRATIC, draws=200):
    return Scenario(
        scenario_id=scenario_id,
        population=PopulationConfig(M=M, N_h=N_h, mu0=1.0, sigma_a0=2.0,
                                    sigma_eps0=3.0, seed=0),
        design=TwoStageDesign(cluster, unit, m=m, n_k=n_k, seed=0),
        estimators=estimators, R=R, base_seed=base_seed,
        chain=ChainConfig(n_draws=draws, seed=0),
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
                         estimators=("equal_gibbs",), draws=400)
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

    def test_one_replicate_still_runs_on_a_pool(self, monkeypatch):
        # run_scenario(workers > 1) opens its pool whatever R is, so a
        # one-replicate scenario can check the pool path against serial
        opened = _count_pools(monkeypatch)
        scen = _scenario(R=1, base_seed=41)
        parallel = run_scenario(scen, workers=2)
        assert opened == [2]
        assert _bits(parallel) == _bits(run_scenario(scen, workers=1))

    def test_all_estimator_kinds_run(self):
        scen = _scenario(R=1, estimators=ESTIMATORS, draws=250)
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


class TestSharedPosterior:
    """The estimators of one weight mode share one posterior: the gibbs
    cells are its exact quadrature means, double_integrated its draws."""

    @staticmethod
    def _sample_and_weights(scen, r):
        pop_cfg, design = replicate_configs(scen, r)
        sample = draw_two_stage_sample(generate_population(pop_cfg), design)
        return sample, {mode: build_weights(sample, mode, normalize=scen.normalize_weights)
                        for mode in WeightMode}

    def test_gibbs_cells_are_posterior_means(self):
        scen = _scenario(R=3, estimators=ESTIMATORS)
        rep = run_scenario(scen)
        for r in range(1, scen.R + 1):
            sample, weights = self._sample_and_weights(scen, r)
            for est in ("equal_gibbs", "single_gibbs", "double_gibbs"):
                exact = posterior_means(sample, weights[_MODE_OF[est]], scen.priors)
                for p in PARAMS:
                    assert rep.estimates[(est, p)][r - 1] == exact[p], (est, p, r)

    def test_integrated_cell_is_run_integrated_mcmc_at_the_chain_seed(self):
        scen = _scenario(R=3, estimators=ESTIMATORS)
        rep = run_scenario(scen)
        for r in range(1, scen.R + 1):
            sample, weights = self._sample_and_weights(scen, r)
            chain = replace(scen.chain, seed=derive_seed(scen.base_seed, _CHAIN, r))
            draws = run_integrated_mcmc(sample, weights[WeightMode.DOUBLE], scen.priors, chain)
            exact = posterior_means(sample, weights[WeightMode.DOUBLE], scen.priors)
            diag = rep.diagnostics[r - 1]["double_integrated"]
            for p in PARAMS:
                assert rep.estimates[("double_integrated", p)][r - 1] == draws.mean(p)
                mcse = draws.sd(p) / math.sqrt(draws.n_draws)
                assert diag["mcse"][p] == mcse
                assert diag["z"][p] == (draws.mean(p) - exact[p]) / mcse

    @pytest.mark.parametrize("estimators, calls", [
        (ESTIMATORS, {"_suffstats": 3, "_x_grid": 3}),
        (("double_integrated",), {"_suffstats": 1, "_x_grid": 1}),
        (("double_map",), {"_suffstats": 1, "_x_grid": 0}),
        (("double_gibbs", "double_integrated", "double_map"),
         {"_suffstats": 1, "_x_grid": 1}),
    ], ids=["all-five", "integrated-only", "map-only", "double-mode"])
    def test_sums_and_grid_built_once_per_weight_mode(self, monkeypatch, estimators, calls):
        counts = dict.fromkeys(calls, 0)
        for name in counts:
            original = getattr(inference, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(inference, name, counted)
        _, _, diags, failures = _run_replicate(_scenario(estimators=estimators), 1)
        assert not failures
        assert counts == calls
        if "double_integrated" in estimators:
            # the exact mean is computed for the cross-check even without double_gibbs
            assert set(diags["double_integrated"]["z"]) == set(PARAMS)

    def test_single_draw_has_no_cross_check(self):
        # one draw has no sd, so no mcse or z; the estimate itself stands
        _, estimates, diags, failures = _run_replicate(
            _scenario(estimators=("double_integrated",), draws=1), 1)
        assert not failures
        assert all(math.isfinite(estimates[("double_integrated", p)]) for p in PARAMS)
        assert "z" not in diags["double_integrated"]

    def test_grid_failure_fails_only_the_grid_cells(self, monkeypatch):
        def fail(stats, prior):
            raise PosteriorError("forced grid failure")

        monkeypatch.setattr(inference, "_x_grid", fail)
        _, estimates, diags, failures = _run_replicate(_scenario(estimators=ESTIMATORS), 1)
        grid_cells = [e for e in ESTIMATORS if e != "double_map"]
        assert sorted(failures) == sorted(grid_cells)
        for est in grid_cells:
            assert failures[est] == "PosteriorError: forced grid failure"
            assert diags[est]["converged"] is False
            assert all(math.isnan(estimates[(est, p)]) for p in PARAMS)
        assert all(math.isfinite(estimates[("double_map", p)]) for p in PARAMS)
        assert math.isfinite(diags["double_map"]["loglik"])

    def test_integrated_z_scores_look_standard_normal(self):
        # outside the acceptance gates: the double_integrated draw means
        # against the exact means, over the replicates of study 1's m=50
        # desk scenario; the three z's of a replicate share its chain seed
        cfg = Path(svyanova.__file__).parent / "scenarios" / "paper-study1.cfg"
        scen = replace(load_scenarios(cfg, desk=True)[0], estimators=("double_integrated",))
        rep = run_scenario(scen)
        zs = [diag["double_integrated"]["z"][p] for diag in rep.diagnostics for p in PARAMS]
        assert len(zs) == 3 * scen.R
        assert max(abs(z) for z in zs) < 6.0
        assert abs(statistics.fmean(zs)) < 0.6
        assert 0.7 < statistics.stdev(zs) < 1.35


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

    def test_one_pool_per_grid_same_results(self, monkeypatch):
        opened = _count_pools(monkeypatch)
        grid = [_scenario(scenario_id="c-good", R=2, base_seed=8, estimators=ESTIMATORS),
                _scenario(scenario_id="a-good", R=3, estimators=ESTIMATORS),
                _scenario(scenario_id="b-bad", R=2, n_k=1000)]  # n_k > N_h
        parallel = run_grid(grid, workers=2)
        assert opened == [2]
        serial = run_grid(grid, workers=1)
        assert opened == [2]
        assert [_bits(r) for r in parallel] == [_bits(r) for r in serial]
        assert [type(r) for r in parallel] == [ReplicationReport, ScenarioFailure,
                                               ReplicationReport]
        assert parallel[1].scenario_id == "b-bad"

    def test_dead_worker_fails_later_scenarios(self, monkeypatch):
        monkeypatch.setattr(harness, "_run_replicate", _exit_on_c_dies)
        grid = [_scenario(scenario_id=sid, R=2)
                for sid in ("e-later", "a-ok", "c-dies", "b-ok", "d-later")]

        def hung(signum, frame):
            raise TimeoutError("run_grid hung after a worker process died")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            out = run_grid(grid, workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [type(r) for r in out[:2]] == [ReplicationReport] * 2
        assert [r.scenario.scenario_id for r in out[:2]] == ["a-ok", "b-ok"]
        assert [r.scenario_id for r in out[2:]] == ["c-dies", "d-later", "e-later"]
        for failure in out[2:]:
            assert isinstance(failure, ScenarioFailure)
            assert failure.error.startswith("BrokenProcessPool")


def _count_pools(monkeypatch) -> list:
    """Patch harness.ProcessPoolExecutor to record each pool's max_workers."""
    opened = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return opened


def _bits(report):
    """A report but its wall time, with the estimates as raw bytes."""
    if isinstance(report, ScenarioFailure):
        return report
    return (report.scenario, {k: v.tobytes() for k, v in report.estimates.items()},
            repr(report.quantiles), repr(report.diagnostics), report.failures)


def _exit_on_c_dies(scenario, r):
    """_run_replicate, but the worker process exits outright on "c-dies"."""
    if scenario.scenario_id == "c-dies":
        os._exit(1)
    return _run_replicate(scenario, r)


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

    def test_report_json_writes_a_constant_N_h_as_one_int(self):
        js = json.loads(json.dumps(report_to_json(run_scenario(_scenario(R=1)))))
        assert js["scenario"]["N_h"] == 8
        assert js["scenario"]["M"] == 40

    def test_report_json_echoes_scenario_and_chain_health(self):
        scen = _scenario(M=12, N_h=[3 + h % 4 for h in range(12)], m=6, n_k=2, R=2,
                         estimators=("double_gibbs", "double_integrated", "double_map"))
        rep = run_scenario(scen)
        js = json.loads(json.dumps(report_to_json(rep)))
        assert js["scenario"]["N_h"] == [3 + h % 4 for h in range(12)]
        assert js["scenario"]["chain"] == {"n_draws": 200}
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
            "chain: {n_draws: 100}\n"
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
        ("grid: [{M: 40, m: 10, N_h: 8}]\nchain: {n_draws: 300, burnin: 100}",
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
                       "chain: {n_draws: 200, seed: 5}\n")
        with pytest.raises(ConfigError, match=r"chain\.seed.*base_seed.*--seed"):
            load_scenarios(cfg)

    @pytest.mark.parametrize("entry", ["init: auto", "n_iterations: 300", "n_burnin: 100",
                                       "thin: 1"])
    def test_markov_chain_settings_are_unknown_keys(self, tmp_path, entry):
        # the draws are independent: there is no start, burn-in or thinning
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name: x\nR: 1\ngrid: [{M: 40, m: 10, N_h: 8}]\n"
                       f"chain: {{n_draws: 200, {entry}}}\n")
        key = entry.split(":")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in chain"):
            load_scenarios(cfg)

    def test_chain_draw_count_read(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name: x\nR: 1\ngrid: [{M: 40, m: 10, N_h: 8}]\n"
                       "chain: {n_draws: 300}\n")
        assert load_scenarios(cfg)[0].chain == ChainConfig(n_draws=300, seed=0)

    @pytest.mark.parametrize("body, key", [
        ("normalize_weights: 'false'", "normalize_weights"),
        ("normalize_weights: 1", "normalize_weights"),
        ("R: 2.7", "R"),
        ("R: abc", "R"),
        ("R: 0", "R"),
        ("grid: [{M: 40, m: 10.9, N_h: 8}]", "m"),
        ("grid: [{M: 40.0, m: 10, N_h: 8}]", "M"),
        ("grid: [{M: 40, m: 10, N_h: 8, R: true}]", "R"),
        ("design: {n_k: 3.8}", "n_k"),
        ("grid: [{M: 2, m: 1, N_h: [8, 8.5]}]", "N_h"),
        ("grid: [{M: 40, m: 10, N_h: 8, mu0: abc}]", "mu0"),
        ("grid: [{M: 40, m: 10, N_h: 8, sigma_a0: true}]", "sigma_a0"),
        ("base_seed: 1.9", "base_seed"),
        ("base_seed: -1", "base_seed"),
        ("desk: {R: 0}", "desk.R"),
        ("desk: {m: 2.5}", "desk.m"),
        ("estimators: double_gibbs", "estimators"),
        ("estimators: [double_gibbs, 3]", "estimators"),
        ("priors: {alpha1: true}", "alpha1"),
        ("chain: {n_draws: 0}", "n_draws"),
        ("chain: {n_draws: 2000.0}", "n_draws"),
    ], ids=["normalize-string", "normalize-int", "R-float", "R-string", "R-zero", "m-float",
            "M-float", "R-bool-in-grid", "n_k-float", "N_h-float", "mu0-string",
            "sigma_a0-bool", "base_seed-float", "base_seed-negative", "desk-zero",
            "desk-float", "estimators-string", "estimators-non-string", "prior-bool",
            "n_draws-zero", "n_draws-float"])
    def test_mistyped_value_names_key(self, tmp_path, body, key):
        cfg = tmp_path / "s.cfg"
        grid = "" if body.startswith("grid") else "grid: [{M: 40, m: 10, N_h: 8}]\n"
        cfg.write_text(f"name: x\n{grid}{body}\n")
        with pytest.raises(ConfigError, match=rf"(^|\s){re.escape(key)} must be"):
            load_scenarios(cfg, desk=True)

    @pytest.mark.parametrize("key, value, kind", [("cluster", "quadratic", ClusterDesign),
                                                  ("unit", "lin", UnitDesign)])
    def test_unknown_design_names_key_and_choices(self, tmp_path, key, value, kind):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"name: x\nR: 1\ngrid: [{{M: 40, m: 10, N_h: 8, {key}: {value}}}]\n")
        with pytest.raises(ConfigError, match=f"^{key} must be one of .*'{value}'") as err:
            load_scenarios(cfg)
        assert all(choice.value in str(err.value) for choice in kind)

    @pytest.mark.parametrize("body, key", [
        ("grid: [{M: 40, m: 50, N_h: 8}]", "m"),
        ("grid: [{M: 40, m: 40, N_h: 8}]\ndesk: {M: 4}", "m"),
        ("grid: [{M: 40, m: 10, N_h: 8, n_k: 9}]", "n_k"),
        ("grid: [{M: 2, m: 1, N_h: [8, 3], n_k: 4}]", "n_k"),
    ], ids=["m-above-M", "m-above-desk-M", "n_k-above-N_h", "n_k-above-smallest-N_h"])
    def test_design_larger_than_population_fails_at_load(self, tmp_path, body, key):
        # loaded, such a scenario would fail every replicate when run
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"name: x\nR: 1\n{body}\n")
        if "desk" in body:  # m = 40 fits M = 40, but not the desk's M = 40 // 4
            assert load_scenarios(cfg)[0].design.m == 40
        with pytest.raises(ConfigError, match=f"^{key} must be <="):
            load_scenarios(cfg, desk=True)

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
