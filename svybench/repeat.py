"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 svybench/repeat.py --workloads study1-serial,estimate-chains \
        --seeds 1-10 --trace 0 --out results.json

Runs ``run.py`` once per (workload, seed), one at a time, with the
BENCHMARK.json run length.  For every metric it records the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  Writes all of it, with every run's result line and the
environment, as JSON to ``--out``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float], bound) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
           "values": values}
    if bound is not None and spread is not None:
        out["spread_below_third_of_bound"] = spread < bound / 3
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs, summary = [], {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "returncode": proc.returncode, "wall_s": wall}
            for line in lines:
                if line.startswith(("env: ", "detail: ", "passes: ")):
                    key, _, body = line.partition(": ")
                    record[key] = json.loads(body)
            if proc.returncode == 0 and lines:
                record["result"] = json.loads(lines[-1])
                results.append(record["result"])
            else:
                record["stderr"] = proc.stderr[-4000:]
            runs.append(record)
            print(f"{workload} seed {seed}: rc={proc.returncode} {wall:.1f} s", flush=True)
        if results:
            names = results[0]["metrics"]
            summary[workload] = {
                n: summarise([r["metrics"][n]["value"] for r in results], bounds.get(n))
                for n in names}
            summary[workload]["failed"] = sum(r["failed"] for r in results)
            summary[workload]["attempted"] = sum(r["attempted"] for r in results)
    Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n",
                              encoding="utf-8")
    for workload, metrics in summary.items():
        for n, s in metrics.items():
            if isinstance(s, dict) and s["bound"] is not None:
                print(f"{workload:17s} {n:18s} median {s['median']:.6g}  "
                      f"IQR/median {s['spread']:.4f}  bound {s['bound']}")
    return 0 if all(r["returncode"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
