"""svyanova benchmark: one workload per run.

    python3 svybench/run.py --workload study1-serial --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics, untraced.
With ``--trace 1`` it runs each pass untraced and then traced on the same
seed, requires identical outputs, and reports the per-layer metrics.  The
metric names and units are the ones declared in BENCHMARK.json.  Every
line but the last is for people; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
failed output check exits 1 without that line.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads; probes and pool workers inherit it
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Never used while the benchmark was tuned; kept for checking later claims.
HOLDOUT_SEED = 917_331
SETUP_PROBES = 5
PARAMS = ("b0", "sigma_a", "sigma_eps")

# Spans whose busy time is reported as a share of the traced wall time.
BUSY = ("popgen.generate_population", "design.draw_two_stage_sample",
        "design.build_weights", "design.size_measures", "design.inclusion_probs",
        "design.systematic_pps", "design.sample_from_csv", "rng.substream",
        "inference.run_gibbs", "inference.run_integrated_mcmc", "inference.map_estimate",
        "harness.run_scenario", "harness.aggregate_quantiles", "harness.emit_plot_data",
        "harness.report_to_json", "diagnostics.weighted_residual_balance",
        "diagnostics.informativeness_summary", "diagnostics.bounds_report")
CALLS = ("popgen.generate_population", "design.draw_two_stage_sample",
         "design.build_weights", "design.size_measures", "design.inclusion_probs",
         "design.systematic_pps", "inference.run_gibbs", "inference.run_integrated_mcmc",
         "inference.map_estimate", "harness.run_scenario")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Put src/ first on the path and import the package from there only."""
    if not (SRC / "svyanova" / "__init__.py").is_file():
        raise SystemExit(f"svybench: no package source at {SRC / 'svyanova'}")
    sys.path.insert(0, str(SRC))
    import svyanova
    if not Path(svyanova.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"svybench: svyanova imported from {svyanova.__file__}, not {SRC}")
    return svyanova


def measure_setup(workload: str, work: Path) -> tuple[float, float, list]:
    """Median scaled set-up time over fresh processes, and their median
    import time."""
    totals, phases = [], []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ref = speed.reference_s()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(work)],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.communicate(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        ref_before, ref = ref, speed.reference_s()
        totals.append(speed.scaled(wall, ref_before, ref))
        phases.append({"wall_s": wall, **json.loads(line)})
    import_s = statistics.median(p["import_s"] for p in phases)
    return statistics.median(totals), import_s, phases


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment(args, svyanova) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "svyanova": svyanova.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
            "seconds": args.seconds, "trace": args.trace}


def run_untraced(w, work: Path, seconds: float) -> tuple[dict, int, int]:
    """Passes until their summed wall time reaches ``seconds``; the
    throughput is the median over passes of items per second at nominal
    speed.  Checks and the speed reference run between passes, outside the
    timed work."""
    work_s = 0.0
    attempted = failed = p = 0
    pass_s, rates = [], []
    with speed.Reference(getattr(w, "workers", 1)) as reference:
        ref = reference.sample()
        refs = [reference.last]
        while work_s < seconds:
            out = work / f"pass{p}"
            t0 = time.perf_counter()
            n, raw = w.run(p, out)
            pass_s.append(time.perf_counter() - t0)
            ref_before, ref = ref, reference.sample()
            refs.append(reference.last)
            work_s += pass_s[-1]
            rates.append(n / speed.scaled(pass_s[-1], ref_before, ref))
            a, f = w.check(p, out, raw)
            attempted, failed = attempted + a, failed + f
            shutil.rmtree(out, ignore_errors=True)
            p += 1
    w.final_check()
    print("passes: " + json.dumps({"wall_s": pass_s, "reference_s": refs,
                                   "items_per_s_at_nominal": rates}))
    return {"throughput_per_s": statistics.median(rates)}, attempted, failed


def run_traced(w, work: Path, seconds: float, tracer) -> tuple[dict, int, int, list]:
    """Untraced-then-traced pass pairs until their time reaches ``seconds``."""
    spent = traced_s = run_grid_s = 0.0
    attempted = failed = p = 0
    fits_by_pass = []
    while spent < seconds:
        info = w.traced(p, work / f"pass{p}", tracer)
        a, f = w.check(p, info["output"], info["raw"])
        attempted, failed = attempted + a, failed + f
        spent += info["untraced_s"] + info["traced_s"]
        traced_s += info["traced_s"]
        run_grid_s += info.get("run_grid_s", 0.0)
        if info["raw"] is not None:
            fits_by_pass.append(info["raw"])
        shutil.rmtree(work / f"pass{p}", ignore_errors=True)
        p += 1
    print(f"traced passes: {p}, traced {traced_s:.3f} s of {spent:.3f} s")
    extra = {"trace.wall_s": traced_s, "harness.pool_overhead_pct": 0.0}
    if run_grid_s:
        # serial replay busy per replicate, spread over the workers, against
        # the untraced grid wall of the same passes
        replicate_busy = tracer.busy("harness.run_scenario") - \
            tracer.busy("harness.aggregate_quantiles")
        extra["harness.pool_overhead_pct"] = \
            100.0 * (run_grid_s - replicate_busy / w.workers) / run_grid_s
    return extra, attempted, failed, fits_by_pass


def layer_metrics(tracer, wall: float, span_cost: float, import_s: float,
                  fits_by_pass: list) -> dict:
    m = {"cli.import_s": import_s,
         "harness.load_scenarios.busy_s": tracer.busy("harness.load_scenarios")
         / max(1, tracer.calls("harness.load_scenarios")),
         "trace.spans": len(tracer.spans),
         "trace.overhead_pct": 100.0 * len(tracer.spans) * span_cost / wall}
    for name in BUSY:
        m[f"{name}.busy_pct"] = 100.0 * tracer.busy(name) / wall
    for name in CALLS:
        m[f"{name}.calls"] = tracer.calls(name)
    draws = tracer.records("design.draw_two_stage_sample")
    m["design.draw_two_stage_sample.clusters"] = sum(c.get("clusters", 0) for _, c in draws)
    m["design.sample_from_csv.rows"] = tracer.total("design.sample_from_csv", "rows")
    balance_draws = tracer.total("diagnostics.weighted_residual_balance", "draws")
    # 1 + m substreams per two-stage draw, M x T per balance run
    m["rng.substream.calls"] = len(draws) + m["design.draw_two_stage_sample.clusters"] \
        + balance_draws
    gibbs_busy = tracer.busy("inference.run_gibbs")
    m["inference.run_gibbs.iterations_per_s"] = \
        tracer.total("inference.run_gibbs", "iterations") / gibbs_busy if gibbs_busy else 0.0
    for name, key, metric in (("inference.run_integrated_mcmc", "acceptance", "acceptance_rate"),
                              ("inference.map_estimate", "converged", "converged_fraction")):
        vals = [c[key] for _, c in tracer.records(name) if key in c]
        m[f"{name}.{metric}"] = statistics.fmean(vals) if vals else 0.0
    m["harness.emit_plot_data.bytes"] = tracer.total("harness.emit_plot_data", "bytes")
    m["diagnostics.weighted_residual_balance.draws"] = balance_draws
    for est, span in (("double_gibbs", "inference.run_gibbs"),
                      ("double_integrated", "inference.run_integrated_mcmc")):
        chains = [[f[est] for f in fits if isinstance(f[est], dict)] for fits in fits_by_pass]
        busy = tracer.busy(span)
        for q in PARAMS:
            first = [c["ess"][q] for c in chains[0]] if chains else []
            # ESS per chain over the first pass's chains: the same inputs at a
            # given seed, so the count repeats exactly across runs
            m[f"inference.ess.{est}.{q}"] = statistics.fmean(first) if first else 0.0
            total = sum(c["ess"][q] for cs in chains for c in cs)
            m[f"inference.ess_per_s.{est}.{q}"] = total / busy if fits_by_pass and busy else 0.0
    return m


def size_detail(tracer) -> dict:
    """Mean seconds per replicate and per chain at each sample size m."""
    out = {}
    for name, key in (("harness.run_scenario", "replicate_s"), ("inference.run_gibbs", "gibbs_s"),
                      ("inference.run_integrated_mcmc", "integrated_s"),
                      ("inference.map_estimate", "map_s")):
        by_m: dict = {}
        for dur, c in tracer.records(name):
            if "m" in c:
                by_m.setdefault(c["m"], []).append(dur / c.get("R", 1))
        for mm, durs in sorted(by_m.items()):
            out.setdefault(f"m{mm}", {})[key] = statistics.fmean(durs)
    return out


def emit(values: dict, section: str, attempted: int, failed: int) -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    missing, extra = set(units) - set(values), set(values) - set(units)
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"missing {sorted(missing)}, undeclared {sorted(extra)}")
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"failed_fraction = {failed / attempted!r} ({failed} of {attempted})")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    svyanova = import_package()
    import workloads
    from spans import NullTracer, Tracer, span_cost_s

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(args, svyanova)))
    work = ROOT / ".svybench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload]()
        tracer = Tracer() if args.trace else NullTracer()
        w.prepare(work, args.seed, tracer)
        setup_s, import_s, phases = measure_setup(args.workload, work)
        print("setup probes: " + json.dumps(phases))
        if args.trace:
            extra, attempted, failed, fits = run_traced(w, work, args.seconds, tracer)
            values = {**extra, **layer_metrics(tracer, extra["trace.wall_s"], span_cost_s(),
                                               import_s, fits)}
            print("detail: " + json.dumps(size_detail(tracer)))
            emit(values, "per_layer", attempted, failed)
        else:
            values, attempted, failed = run_untraced(w, work, args.seconds)
            values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
            emit(values, "end_to_end", attempted, failed)
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
