"""Command-line driver.

``simulate`` runs a scenario file's replication study and persists the
plot-ready CSVs plus per-scenario JSON reports; ``diagnose`` computes the
design diagnostics for each scenario; ``estimate`` fits one estimator to a
user-supplied sample CSV (the sample export schema) and prints a summary
JSON.  Exit code is 0 on success, 1 when a scenario fails, 2 on any other
error, reported as ``error: <Type>: <message>`` (the full traceback with
``--traceback``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

from . import __version__
from .design import (WeightMode, build_weights, draw_two_stage_sample,
                     sample_from_csv)
from .diagnostics import (bounds_report, informativeness_summary,
                          informativeness_to_csv, weighted_residual_balance)
from .harness import (ReplicationReport, emit_plot_data, load_scenarios,
                      replicate_configs, report_to_json, run_grid)
from .inference import (ChainConfig, PriorConfig, map_estimate, map_summary,
                        run_gibbs, run_integrated_mcmc)
from .popgen import generate_population


def _positive_int(text: str) -> int:
    """argparse type of a count; argparse names the flag in the error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svyanova",
                                     description="Survey-weighted pseudo-Bayesian "
                                                 "ANOVA simulator and estimator")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--traceback", action="store_true",
                        help="on error, print the full traceback instead of one line")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a replication study from a scenario file")
    sim.add_argument("--scenario", required=True, help="scenario file (YAML key-value tree)")
    sim.add_argument("--desk", action="store_true",
                     help="apply the file's desk-scale divisors to M, m, R")
    sim.add_argument("--out", default="results", help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override base_seed")
    sim.add_argument("--workers", type=_positive_int, default=1,
                     help="parallel replicate workers")

    diag = sub.add_parser("diagnose", help="design diagnostics for a scenario file")
    diag.add_argument("--scenario", required=True)
    diag.add_argument("--out", required=True)
    diag.add_argument("--desk", action="store_true")
    diag.add_argument("--seed", type=int, default=None)
    diag.add_argument("--balance-replicates", type=_positive_int, default=50)

    est = sub.add_parser("estimate", help="one-shot estimation on a sample CSV")
    est.add_argument("--data", required=True, help="sample CSV (export schema)")
    est.add_argument("--weights-mode", required=True,
                     choices=[m.value for m in WeightMode])
    est.add_argument("--method", required=True, choices=["gibbs", "integrated", "map"],
                     help="gibbs: independent exact draws of the augmented state, "
                          "cluster effects included (not a Gibbs scan); integrated: "
                          "independent draws from the effect-marginalized posterior "
                          "through its collapse to log(tau_a/tau_eps); map: its mode")
    est.add_argument("--seed", type=int, default=0,
                     help="seed of gibbs and integrated draws; map does not draw")
    est.add_argument("--draws", type=_positive_int, default=2000,
                     help="number of independent gibbs or integrated draws")
    est.add_argument("--out", default=None, help="write the summary JSON here too")
    return parser


def _cmd_simulate(args) -> int:
    scenarios = load_scenarios(args.scenario, desk=args.desk, base_seed=args.seed)
    results = run_grid(scenarios, workers=args.workers)
    os.makedirs(args.out, exist_ok=True)
    emit_plot_data(results, args.out)
    failed = 0
    for res in results:
        if isinstance(res, ReplicationReport):
            sdir = os.path.join(args.out, res.scenario.scenario_id)
            os.makedirs(sdir, exist_ok=True)
            with open(os.path.join(sdir, "report.json"), "w", encoding="utf-8") as fh:
                json.dump(report_to_json(res), fh, indent=2)
            z = _max_abs_z(res)
            print(f"{res.scenario.scenario_id}: R={res.R} done in {res.wall_time:.1f}s"
                  + (f", max |z| {z:.2f}" if z is not None else ""))
        else:
            failed += 1
            print(f"{res.scenario_id}: FAILED ({res.error})", file=sys.stderr)
    return 1 if failed else 0


def _max_abs_z(report: ReplicationReport) -> float | None:
    """Largest finite |z| of the double_integrated draw means against the
    exact means, over the replicates; None when there is none."""
    zs = [abs(z) for diag in report.diagnostics
          for z in diag.get("double_integrated", {}).get("z", {}).values() if math.isfinite(z)]
    return max(zs, default=None)


def _cmd_diagnose(args) -> int:
    scenarios = load_scenarios(args.scenario, desk=args.desk, base_seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    summaries = []
    for scen in scenarios:
        pop_cfg, design = replicate_configs(scen, 1)
        pop = generate_population(pop_cfg)
        sample = draw_two_stage_sample(pop, design)
        weights = build_weights(sample, WeightMode.DOUBLE,
                                normalize=scen.normalize_weights)
        label = f"{design.cluster_kind.value}/{design.unit_kind.value}"
        info = informativeness_summary(pop, sample, design=label)
        summaries.append(info)
        balance = weighted_residual_balance(pop, design, args.balance_replicates)
        bounds = bounds_report(pop, sample, weights)
        sdir = os.path.join(args.out, scen.scenario_id)
        os.makedirs(sdir, exist_ok=True)
        with open(os.path.join(sdir, "balance.json"), "w", encoding="utf-8") as fh:
            json.dump(balance.to_json(), fh, indent=2)
        with open(os.path.join(sdir, "bounds.json"), "w", encoding="utf-8") as fh:
            json.dump(bounds.to_json(), fh, indent=2)
        print(f"{scen.scenario_id}: balance={balance.overall_mean:.4f} "
              f"(se {balance.mc_se:.4f}), m/M={bounds.cluster_fraction:.3f}"
              f"{' FLAGGED' if bounds.flagged else ''}")
    informativeness_to_csv(summaries, os.path.join(args.out, "informativeness.csv"))
    return 0


def _cmd_estimate(args) -> int:
    sample = sample_from_csv(args.data)
    weights = build_weights(sample, WeightMode(args.weights_mode), normalize=True)
    priors = PriorConfig()
    if args.method == "map":
        theta, loglik, converged = map_estimate(sample, weights, priors)
        summary = map_summary(theta, loglik, converged, mode=args.weights_mode)
    else:
        chain = ChainConfig(n_draws=args.draws, seed=args.seed)
        runner = run_integrated_mcmc if args.method == "integrated" else run_gibbs
        draws = runner(sample, weights, priors, chain)
        summary = draws.summary(mode=args.weights_mode)
    text = json.dumps(summary, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        return _cmd_estimate(args)
    except Exception as exc:
        if args.traceback:
            traceback.print_exc()
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
