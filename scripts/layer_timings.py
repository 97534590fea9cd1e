"""In-process timings of the design layer and of one replicate.

    PYTHONPATH=src python scripts/layer_timings.py --label change [--out BENCH_design.json]

Times, as the minimum of 7 runs after one warm-up run:

- ``draw_two_stage_sample`` on replicate 0 of each study-1 desk scenario
  (m = 50, 200, 800);
- ``harness._run_replicate`` on replicate 1 of each study-1 desk scenario:
  population, sample, weights and all five estimators;
- ``weighted_residual_balance`` with 20 replicates on the two study-2
  desk scenarios of the benchmark's diagnose-balance slice (M = 1000,
  quadratic n_k = 5 and linear n_k = 10), on the population and design
  that ``diagnose`` uses.

The record is stored under ``--label`` in the output file, next to the
records already there, with the numpy version and the core count.  Run it
with PYTHONPATH pointing at another checkout's ``src`` to record that
checkout under another label on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import svyanova
from svyanova.design import draw_two_stage_sample
from svyanova.diagnostics import weighted_residual_balance
from svyanova.harness import _run_replicate, load_scenarios, replicate_configs
from svyanova.popgen import generate_population

REPEATS = 7
BALANCE_REPLICATES = 20
# (cluster, unit, n_k) of the two scenarios in svybench's DiagnoseWorkload
BALANCE_SLICE = (("quadratic_symmetric", "quadratic", 5), ("linear_asymmetric", "linear", 10))
SCENARIOS = Path(svyanova.__file__).parent / "scenarios"


def min_ms(fn) -> float:
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 3)


def timings() -> dict:
    out = {}
    for scen in load_scenarios(SCENARIOS / "paper-study1.cfg", desk=True):
        pop_cfg, design = replicate_configs(scen, 0)
        pop = generate_population(pop_cfg)
        out[f"draw_two_stage_sample.m{design.m}_ms"] = min_ms(
            lambda: draw_two_stage_sample(pop, design))
        out[f"_run_replicate.m{design.m}_ms"] = min_ms(lambda: _run_replicate(scen, 1))
    total = 0.0
    for scen in load_scenarios(SCENARIOS / "paper-study2.cfg", desk=True):
        design = scen.design
        if (design.cluster_kind.value, design.unit_kind.value, design.n_k) not in BALANCE_SLICE:
            continue
        pop_cfg, design = replicate_configs(scen, 1)
        pop = generate_population(pop_cfg)
        ms = min_ms(lambda: weighted_residual_balance(pop, design, BALANCE_REPLICATES))
        out[f"weighted_residual_balance.{design.unit_kind.value}_n{design.n_k}"
            f"_M{pop.M}_T{BALANCE_REPLICATES}_ms"] = ms
        total += ms
    out["weighted_residual_balance.slice_total_ms"] = round(total, 3)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="record name, e.g. parent or change")
    parser.add_argument("--out", default="BENCH_design.json", help="JSON file to update")
    args = parser.parse_args(argv)
    path = Path(args.out)
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    records[args.label] = {"numpy": np.__version__, "python": platform.python_version(),
                           "cores": os.cpu_count(), "repeats": REPEATS, **timings()}
    path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(records[args.label], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
