"""One set-up of a workload in a fresh process, for setup_s.

Imports the package, reads the workload's inputs the way the command
would (scenario file or sample CSVs), starts the process pool when the
workload uses one, then prints its phase times as one JSON line and
exits.  run.py times it from process start to that line.

    python3 svybench/probe.py <workload> <work dir>
"""

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

t0 = time.perf_counter()
from svyanova import cli, design, harness  # noqa: E402,F401  (cli imports every module)
phases = {"import_s": time.perf_counter() - t0}


def main(workload: str, work: Path) -> None:
    t = time.perf_counter()
    if workload == "estimate-chains":
        for path in sorted(work.glob("sample-*.csv")):
            design.sample_from_csv(path)
    else:
        harness.load_scenarios(work / "scenario.cfg", desk=True)
    phases["inputs_s"] = time.perf_counter() - t
    pool = None
    if workload == "study2-parallel":
        t = time.perf_counter()
        pool = ProcessPoolExecutor(max_workers=2)
        for fut in [pool.submit(os.getpid) for _ in range(2)]:
            fut.result()
        phases["pool_s"] = time.perf_counter() - t
    print(json.dumps(phases), flush=True)
    if pool is not None:
        pool.shutdown(wait=True)


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
