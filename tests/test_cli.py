import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from svyanova import harness
from svyanova.cli import main
from svyanova.design import (ClusterDesign, TwoStageDesign, UnitDesign, WeightMode,
                             build_weights, draw_two_stage_sample, sample_to_csv)
from svyanova.errors import DesignError


TINY_CFG = """\
name: tiny
population: {N_h: 8, mu0: 1.0, sigma_a0: 2.0, sigma_eps0: 3.0}
design: {cluster: quadratic_symmetric, unit: symmetric_quadratic, n_k: 3}
grid:
  - {M: 30, m: 8}
estimators: [equal_gibbs, double_gibbs]
R: 2
base_seed: 12
chain: {n_draws: 100}
desk: {R: 2}
"""


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; importing it would triple start-up
    # time of every command and pool worker
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, svyanova.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


class TestSimulate:
    def test_writes_outputs_and_exits_zero(self, tiny_scenario, tmp_path):
        out = tmp_path / "results"
        code = main(["simulate", "--scenario", str(tiny_scenario), "--out", str(out)])
        assert code == 0
        assert (out / "estimates_long.csv").exists()
        assert (out / "quantiles.csv").exists()
        reports = list(out.glob("*/report.json"))
        assert len(reports) == 1
        js = json.loads(reports[0].read_text())
        assert js["scenario"]["R"] == 2

    def test_rerun_byte_identical(self, tiny_scenario, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--scenario", str(tiny_scenario), "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(tiny_scenario), "--out", str(out2)]) == 0
        assert (out1 / "estimates_long.csv").read_bytes() == \
            (out2 / "estimates_long.csv").read_bytes()

    def test_desk_flag_scales(self, tiny_scenario, tmp_path):
        out = tmp_path / "desk"
        assert main(["simulate", "--scenario", str(tiny_scenario), "--desk",
                     "--out", str(out)]) == 0
        js = json.loads(next(out.glob("*/report.json")).read_text())
        assert js["scenario"]["R"] == 1

    def test_scenario_failure_exits_nonzero(self, tmp_path, tiny_scenario, monkeypatch,
                                            capsys):
        # every replicate's sample draw fails, so the scenario does
        def fail(population, design):
            raise DesignError("no sample")

        monkeypatch.setattr(harness, "draw_two_stage_sample", fail)
        out = tmp_path / "results"
        assert main(["simulate", "--scenario", str(tiny_scenario), "--out", str(out)]) == 1
        assert "FAILED (RuntimeError: every replicate" in capsys.readouterr().err

    def test_design_larger_than_population_exits_at_load(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG.replace("n_k: 3", "n_k: 100"))
        out = tmp_path / "results"
        assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: n_k must be <=")
        assert not out.exists()

    def test_unreadable_scenario_errors(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.cfg")]) == 2

    def test_error_line_names_exception(self, tmp_path, capsys):
        bad = tmp_path / "no_m.cfg"
        bad.write_text(TINY_CFG.replace("{M: 30, m: 8}", "{m: 8}"))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: KeyError: 'M'\n"


    def test_traceback_flag_prints_full_traceback(self, tmp_path, capsys):
        bad = tmp_path / "no_m.cfg"
        bad.write_text(TINY_CFG.replace("{M: 30, m: 8}", "{m: 8}"))
        assert main(["--traceback", "simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert "load_scenarios" in err
        assert err.endswith("KeyError: 'M'\n")
        assert "error: KeyError" not in err


class TestDiagnose:
    def test_writes_reports(self, tiny_scenario, tmp_path):
        out = tmp_path / "diag"
        code = main(["diagnose", "--scenario", str(tiny_scenario), "--out", str(out),
                     "--balance-replicates", "5"])
        assert code == 0
        assert (out / "informativeness.csv").exists()
        sdir = next(p for p in out.iterdir() if p.is_dir())
        balance = json.loads((sdir / "balance.json").read_text())
        assert balance["n_replicates"] == 5
        assert "overall_mean" in balance
        bounds = json.loads((sdir / "bounds.json").read_text())
        assert 0 < bounds["cluster_fraction"] <= 1


class TestEstimate:
    @pytest.fixture
    def sample_csv(self, small_population, tmp_path):
        design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                UnitDesign.SYMMETRIC_QUADRATIC, m=15, n_k=5, seed=2)
        sample = draw_two_stage_sample(small_population, design)
        weights = build_weights(sample, WeightMode.DOUBLE)
        path = tmp_path / "sample.csv"
        sample_to_csv(sample, weights, path)
        return path

    @pytest.mark.parametrize("method", ["gibbs", "integrated"])
    def test_mcmc_methods(self, sample_csv, tmp_path, capsys, method):
        out = tmp_path / "summary.json"
        code = main(["estimate", "--data", str(sample_csv), "--weights-mode", "double",
                     "--method", method, "--draws", "250", "--out", str(out)])
        assert code == 0
        js = json.loads(out.read_text())
        assert js["mode"] == "double"
        assert set(js["point_estimates"]) == {"b0", "sigma_a", "sigma_eps"}
        assert js["converged"] is True
        printed = json.loads(capsys.readouterr().out)
        assert printed == js

    def test_map_method(self, sample_csv, capsys):
        code = main(["estimate", "--data", str(sample_csv), "--weights-mode", "double",
                     "--method", "map"])
        assert code == 0
        js = json.loads(capsys.readouterr().out)
        assert "loglik" in js
        assert js["posterior_sd"] is None

    def test_out_of_range_probability_rejected(self, sample_csv, capsys):
        with open(sample_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("pi_l_given_h")
        rows[1][col], rows[2][col] = "1.5", "-0.5"  # one cluster, sum unchanged
        with open(sample_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["estimate", "--data", str(sample_csv), "--weights-mode", "double",
                     "--method", "map"]) == 2
        assert "line 2: pi_l_given_h must be in (0, 1]" in capsys.readouterr().err

    def test_repeated_unit_rejected(self, sample_csv, capsys):
        with open(sample_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(sample_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows + [rows[1]] * 3)
        assert main(["estimate", "--data", str(sample_csv), "--weights-mode", "double",
                     "--method", "map"]) == 2
        err = capsys.readouterr().err
        assert f"DesignError: sample CSV lines 2 and {len(rows) + 1}" in err

    def test_bad_data_path_errors(self):
        assert main(["estimate", "--data", "/nonexistent.csv", "--weights-mode",
                     "equal", "--method", "map"]) == 2
