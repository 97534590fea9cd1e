"""How far each acceptance gate sits from its bound, over many base seeds.

    PYTHONPATH=src python scripts/gate_margins.py [--seeds 20] [--criteria 4 10]

Reruns the criterion bodies of ``tests/test_acceptance.py`` unchanged, with
the module's ``BASE_SEED`` set to 101, 111, 121, ... in turn, and records
value - bound for every (value, relation, bound) check instead of
asserting it.  For a ``<=`` or ``<`` gate a negative margin is inside the
bound; for ``>=`` or ``>`` a positive one is.  Criteria 04-08 and 10 read
``BASE_SEED``; criterion 10's chain seed and every bound and size stay as
the file fixes them.  Prints, per check, the failing count and the min,
quartiles and max of the margins.  Nothing here is part of the tier-1 suite.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import test_acceptance as acceptance  # noqa: E402

CRITERIA = {
    4: acceptance.test_criterion_04_gibbs_integrated_agreement,
    5: acceptance.test_criterion_05_bias_pattern_symmetric_designs,
    6: acceptance.test_criterion_06_contraction_with_m,
    7: acceptance.test_criterion_07_balance_condition_diagnostic,
    8: acceptance.test_criterion_08_asymmetric_design_pattern,
    10: acceptance.test_criterion_10_census_reduction,
}


def margins(criterion: int, base_seed: int) -> dict:
    """{check label: (relation, value - bound, passed)} of one criterion run."""
    seen = {}

    def record(num, desc, checks, elapsed, budget):
        for label, (value, relation, bound) in checks.items():
            seen[label] = (relation, value - bound,
                           acceptance._RELATIONS[relation](value, bound))

    acceptance.BASE_SEED, report = base_seed, acceptance._report
    acceptance._report = record
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            CRITERIA[criterion]()
    finally:
        acceptance._report = report
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="number of base seeds")
    parser.add_argument("--criteria", type=int, nargs="+", default=[4, 10],
                        choices=sorted(CRITERIA))
    args = parser.parse_args(argv)
    seeds = [101 + 10 * i for i in range(args.seeds)]
    for criterion in args.criteria:
        runs = defaultdict(list)
        for seed in seeds:
            for label, result in margins(criterion, seed).items():
                runs[label].append(result)
        print(f"criterion {criterion:02d}, base seeds {seeds[0]}..{seeds[-1]} step 10")
        for label, results in runs.items():
            values = sorted(margin for _, margin, _ in results)
            q1, q2, q3 = statistics.quantiles(values, n=4)
            failed = sum(not passed for _, _, passed in results)
            print(f"  {label} [{results[0][0]}]: failed {failed}/{len(values)}; value - bound "
                  f"min {values[0]:+.4g} q1 {q1:+.4g} median {q2:+.4g} q3 {q3:+.4g} "
                  f"max {values[-1]:+.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
