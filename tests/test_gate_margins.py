"""Smoke test of ``scripts/gate_margins.py``, which imports the acceptance
criterion bodies and would otherwise break unseen when they change."""

import importlib.util
from pathlib import Path

import test_acceptance

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gate_margins.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("gate_margins", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_seeds_print_one_line_per_check(capsys):
    gate_margins = _load_script()
    assert gate_margins.main(["--seeds", "2", "--criteria", "4", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "criterion 04, base seeds 101..111 step 10"
    assert lines[4] == "criterion 10, base seeds 101..111 step 10"
    checks = [line for line in lines if line.startswith("  ")]
    assert [line.split(" [")[0].strip() for line in checks] == [
        f"{p}: |diff|" for p in ("b0", "sigma_a", "sigma_eps")] + [
        f"{p}: max pairwise diff" for p in ("b0", "sigma_a", "sigma_eps")]
    assert all("failed " in line and "/2; value - bound min" in line for line in checks)
    assert len(lines) == 2 + len(checks)
    # the criteria run afterwards still see their own seed and reporter
    assert test_acceptance.BASE_SEED == 101
    assert test_acceptance._report.__module__ == "test_acceptance"
