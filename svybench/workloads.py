"""The four benchmark workloads.

Each workload makes its inputs (scenario files, sample CSVs) from the
workload seed, runs one unit of work per ``run`` call (a "pass", on a pass
seed derived from the workload seed), and checks the outputs of every
pass.  ``traced`` runs a pass twice on the same seed, untraced and then
with spans around the package's public functions, and requires both to
write identical outputs.  Everything goes through the package's public
entry points: ``cli.main`` for simulate and diagnose, and the library
calls the ``estimate`` command makes for estimate-chains.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

import svyanova
from svyanova import cli, diagnostics, harness
from svyanova.design import (WeightMode, build_weights, draw_two_stage_sample,
                             sample_from_csv, sample_to_csv)
from svyanova.inference import (ChainConfig, PriorConfig, map_estimate,
                                run_gibbs, run_integrated_mcmc)
from svyanova.popgen import generate_population

from ess import geyer_ess
from spans import NullTracer, Tracer

PARAMS = ("b0", "sigma_a", "sigma_eps")
SCENARIOS = Path(svyanova.__file__).parent / "scenarios"

# double_gibbs and double_integrated target the same pseudo-posterior, so
# their posterior means may differ only by Monte Carlo error.  A sample
# fails the check when a mean differs by more than this many combined
# Monte Carlo standard errors, sd / sqrt(ESS) of each chain.
AGREEMENT_Z = 6.0


class CheckFailed(Exception):
    """An output check failed; the run reports no result."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def child_seed(seed: int, *key: int) -> int:
    """31-bit seed for input ``key`` of the workload seed."""
    ss = np.random.SeedSequence([int(seed), *key])
    return int(ss.generate_state(1, np.uint32)[0] >> np.uint32(1))


def write_scenario(path: Path, bundled: str, **changes) -> Path:
    with open(SCENARIOS / bundled, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg.update(changes)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return path


def quiet_cli(argv: list[str]) -> int:
    """cli.main with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def same_files(a: Path, b: Path, ignore_keys=()) -> list[str]:
    """Relative paths whose contents differ between trees a and b.

    JSON files are compared after dropping ``ignore_keys`` (wall times)."""
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    differ = []
    for rel in names:
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            differ.append(str(rel))
        elif rel.suffix == ".json" and ignore_keys:
            ja, jb = (json.loads(p.read_text(encoding="utf-8")) for p in (pa, pb))
            for key in ignore_keys:
                ja.pop(key, None)
                jb.pop(key, None)
            if ja != jb:
                differ.append(str(rel))
        elif pa.read_bytes() != pb.read_bytes():
            differ.append(str(rel))
    return differ


# ---------------------------------------------------------------------------
# study1-serial and study2-parallel: the simulate path
# ---------------------------------------------------------------------------

GRID_TARGETS = (
    (cli, "load_scenarios", "harness.load_scenarios", None),
    (cli, "run_grid", "harness.run_grid", None),
    (cli, "emit_plot_data", "harness.emit_plot_data",
     lambda out, a, k: {"bytes": sum(os.path.getsize(p) for p in out)}),
    (cli, "report_to_json", "harness.report_to_json", None),
    (harness, "run_scenario", "harness.run_scenario",
     lambda out, a, k: {"m": a[0].design.m, "R": a[0].R}),
    (harness, "aggregate_quantiles", "harness.aggregate_quantiles", None),
    (harness, "generate_population", "popgen.generate_population", None),
    (harness, "draw_two_stage_sample", "design.draw_two_stage_sample",
     lambda out, a, k: {"clusters": out.m}),
    (harness, "build_weights", "design.build_weights", None),
    (harness, "run_gibbs", "inference.run_gibbs",
     lambda out, a, k: {"iterations": a[3].n_iterations, "m": a[0].m}),
    (harness, "run_integrated_mcmc", "inference.run_integrated_mcmc",
     lambda out, a, k: {"acceptance": out.acceptance_rate, "m": a[0].m}),
    (harness, "map_estimate", "inference.map_estimate",
     lambda out, a, k: {"converged": float(out[2]), "m": a[0].m}),
)


class GridWorkload:
    """``svyanova simulate --desk`` on a generated scenario file."""

    def __init__(self, bundled: str, workers: int, R: int, grid=None, desk=None):
        self.bundled, self.workers, self.R = bundled, workers, R
        self.grid, self.desk = grid, desk
        self.pass0_rows: dict = {}

    def prepare(self, work: Path, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        changes = {"R": self.R, "base_seed": child_seed(seed, 0)}
        if self.grid is not None:
            changes["grid"] = self.grid
        if self.desk is not None:
            changes["desk"] = self.desk
        self.cfg = write_scenario(work / "scenario.cfg", self.bundled, **changes)
        self.scenarios = tracer.call("harness.load_scenarios", harness.load_scenarios,
                                     self.cfg, desk=True)
        require(all(s.R == self.R for s in self.scenarios), "desk scaling changed R")

    def pass_seed(self, p: int) -> int:
        return child_seed(self.seed, 1, p)

    def simulate(self, p: int, out: Path, workers: int) -> None:
        rc = quiet_cli(["simulate", "--scenario", str(self.cfg), "--desk",
                        "--out", str(out), "--seed", str(self.pass_seed(p)),
                        "--workers", str(workers)])
        require(rc == 0, f"simulate exited with {rc} on pass {p}")

    def run(self, p: int, out: Path):
        self.simulate(p, out, self.workers)
        return len(self.scenarios) * self.R, None

    def check(self, p: int, out: Path, _raw) -> tuple[int, int]:
        """Every cell finite unless its failure is listed in report.json."""
        cells: dict = {}
        with open(out / "estimates_long.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["scenario_id"], row["estimator"], int(row["replicate"]))
                cells.setdefault(key, {})[row["parameter"]] = row["estimate"]
        n_est = len(self.scenarios[0].estimators)
        require(len(cells) == len(self.scenarios) * self.R * n_est,
                f"pass {p}: {len(cells)} (scenario, estimator, replicate) cells")
        failed = 0
        for key, vals in cells.items():
            values = [float(vals[q]) for q in PARAMS]
            if all(math.isnan(v) for v in values):
                failed += 1
            else:
                require(all(math.isfinite(v) for v in values),
                        f"pass {p}: non-finite estimate in {key}")
        listed = 0
        for scen in self.scenarios:
            report = json.loads((out / scen.scenario_id / "report.json")
                                .read_text(encoding="utf-8"))
            for fail in report["failures"]:
                listed += sum(n_est if k == "replicate" else 1 for k in fail)
        require(listed == failed,
                f"pass {p}: {failed} NaN cells but report.json lists {listed} failures")
        with open(out / "quantiles.csv", newline="", encoding="utf-8") as fh:
            n_q = sum(1 for _ in csv.DictReader(fh))
        require(n_q == len(self.scenarios) * n_est * len(PARAMS),
                f"pass {p}: quantiles.csv has {n_q} rows")
        if p == 0:
            self.pass0_rows = cells
        return len(cells), failed

    def final_check(self) -> None:
        """The first scenario of pass 0 again with the other worker count,
        against pass 0's estimates, bit for bit."""
        scen = replace(self.scenarios[0], base_seed=self.pass_seed(0))
        other = 1 if self.workers > 1 else 2
        report = harness.run_scenario(scen, workers=other)
        for (est, param), vals in report.estimates.items():
            for r, v in enumerate(vals, start=1):
                got = repr(float(v))
                want = self.pass0_rows[(scen.scenario_id, est, r)][param]
                require(got == want, f"{scen.scenario_id} {est}/{param} replicate {r}: "
                                     f"workers={other} gave {got}, workers={self.workers} "
                                     f"gave {want}")

    def traced(self, p: int, out: Path, tracer: Tracer) -> dict:
        """Untraced simulate with the workload's workers, then a traced
        serial replay of the same pass; outputs must match bit for bit."""
        outer = Tracer()
        t0 = time.perf_counter()
        with outer.patched([(cli, "run_grid", "harness.run_grid", None)]):
            self.simulate(p, out / "untraced", self.workers)
        t1 = time.perf_counter()
        with tracer.patched(GRID_TARGETS):
            self.simulate(p, out / "traced", 1)
        t2 = time.perf_counter()
        differ = same_files(out / "untraced", out / "traced", ignore_keys=("wall_time_s",))
        require(not differ, f"pass {p}: traced workers=1 replay differs from "
                            f"workers={self.workers} in {differ}")
        return {"untraced_s": t1 - t0, "traced_s": t2 - t1, "output": out / "untraced",
                "raw": None, "run_grid_s": outer.busy("harness.run_grid")}


# ---------------------------------------------------------------------------
# estimate-chains: the estimate path on generated sample CSVs
# ---------------------------------------------------------------------------

def _chain_summary(draws) -> dict:
    vals = {q: draws.values(q) for q in PARAMS}
    return {
        "finite": all(bool(np.isfinite(v).all()) for v in vals.values()),
        "mean": {q: float(v.mean()) for q, v in vals.items()},
        "sd": {q: float(v.std(ddof=1)) for q, v in vals.items()},
        "ess": {q: geyer_ess(v) for q, v in vals.items()},
    }


class EstimateWorkload:
    """sample_from_csv -> double weights -> run_gibbs, run_integrated_mcmc,
    map_estimate with the default 4000/2000 chain, on each study-1 size."""

    samples_per_size = 2
    prior = PriorConfig()
    max_z = 0.0
    chains = (("double_gibbs", "inference.run_gibbs", run_gibbs),
              ("double_integrated", "inference.run_integrated_mcmc", run_integrated_mcmc))

    def prepare(self, work: Path, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        cfg = write_scenario(work / "scenario.cfg", "paper-study1.cfg", R=1,
                             base_seed=child_seed(seed, 0), desk={"R": 1})
        scenarios = tracer.call("harness.load_scenarios", harness.load_scenarios,
                                cfg, desk=True)
        self.paths = []
        for i, scen in enumerate(scenarios):
            row = []
            for k in range(self.samples_per_size):
                pop = generate_population(replace(scen.population,
                                                  seed=child_seed(seed, 2, i, k)))
                sample = draw_two_stage_sample(
                    pop, replace(scen.design, seed=child_seed(seed, 3, i, k)))
                weights = build_weights(sample, WeightMode.DOUBLE)
                path = work / f"sample-m{scen.design.m}-{k}.csv"
                sample_to_csv(sample, weights, path)
                self._check_roundtrip(sample, weights, path)
                row.append(path)
            self.paths.append(row)

    @staticmethod
    def _check_roundtrip(sample, weights, path: Path) -> None:
        back = sample_from_csv(path)
        require(np.array_equal(back.pi_h, sample.cluster_probs()), f"{path.name}: pi_h")
        for i in range(sample.m):
            require(np.array_equal(back.y_s[i], sample.y_s[i]), f"{path.name}: y, cluster {i}")
            require(np.array_equal(back.pi_l_given_h[i], sample.selected_unit_probs()[i]),
                    f"{path.name}: pi_l_given_h, cluster {i}")
        again = build_weights(back, WeightMode.DOUBLE)
        require(all(np.array_equal(a, b) for a, b in zip(again.w_jk, weights.w_jk)),
                f"{path.name}: weights rebuilt from the CSV differ")

    def run(self, p: int, out: Path, tracer: Tracer | None = None):
        tracer = tracer or NullTracer()
        seed = child_seed(self.seed, 1, p)
        fits = [self._fit(row[p % self.samples_per_size], seed, tracer)
                for row in self.paths]
        return len(fits), fits

    def _fit(self, path: Path, seed: int, tracer: Tracer) -> dict:
        sample = tracer.call("design.sample_from_csv", sample_from_csv, path,
                             count=lambda s, a, k: {"rows": s.n_total})
        weights = tracer.call("design.build_weights", build_weights, sample,
                              WeightMode.DOUBLE, normalize=True)
        chain = ChainConfig(seed=seed)
        fit = {"sample": path.name, "m": sample.m}
        for est, span, runner in self.chains:
            try:
                fit[est] = tracer.call(span, runner, sample, weights, self.prior, chain,
                                       count=lambda d, a, k: {
                                           "iterations": a[3].n_iterations, "m": a[0].m,
                                           "acceptance": d.acceptance_rate or 0.0})
            except Exception as exc:  # a failed chain is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                fit[est] = exc
        try:
            fit["double_map"] = tracer.call(
                "inference.map_estimate", map_estimate, sample, weights, self.prior,
                seed=seed, count=lambda r, a, k: {"converged": float(r[2]), "m": a[0].m})
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            fit["double_map"] = exc
        return fit

    def check(self, p: int, out: Path, fits: list) -> tuple[int, int]:
        """Finite draws; Gibbs and integrated posterior means agree."""
        attempted = failed = 0
        for fit in fits:
            for est, _, _ in self.chains:
                attempted += 1
                if isinstance(fit[est], Exception):
                    failed += 1
                    continue
                fit[est] = _chain_summary(fit[est])
                require(fit[est]["finite"], f"pass {p} {fit['sample']}: {est} non-finite draw")
                require(min(fit[est]["ess"].values()) > 0,
                        f"pass {p} {fit['sample']}: {est} chain never moved")
            attempted += 1
            if isinstance(fit["double_map"], Exception):
                failed += 1
            else:
                theta = fit["double_map"][0]
                require(all(math.isfinite(v) for v in (theta.mu, theta.tau_a, theta.tau_eps)),
                        f"pass {p} {fit['sample']}: non-finite MAP estimate")
            g, i = fit["double_gibbs"], fit["double_integrated"]
            if isinstance(g, Exception) or isinstance(i, Exception):
                continue
            for q in PARAMS:
                mcse = math.sqrt(g["sd"][q] ** 2 / g["ess"][q] + i["sd"][q] ** 2 / i["ess"][q])
                diff = abs(g["mean"][q] - i["mean"][q])
                self.max_z = max(self.max_z, diff / mcse)
                require(diff <= AGREEMENT_Z * mcse,
                        f"pass {p} {fit['sample']}: {q} posterior means differ by {diff:.4g} "
                        f"> {AGREEMENT_Z} x MCSE {mcse:.4g}")
        return attempted, failed

    def final_check(self) -> None:
        print(f"largest Gibbs/integrated mean difference: {self.max_z:.3f} MCSE "
              f"(limit {AGREEMENT_Z})")

    def traced(self, p: int, out: Path, tracer: Tracer) -> dict:
        t0 = time.perf_counter()
        _, plain = self.run(p, out)
        t1 = time.perf_counter()
        _, fits = self.run(p, out, tracer)
        t2 = time.perf_counter()
        for a, b in zip(plain, fits):
            for est, _, _ in self.chains:
                if not isinstance(a[est], Exception):
                    require(isinstance(b[est], type(a[est])) and all(
                        np.array_equal(a[est].values(q), b[est].values(q)) for q in PARAMS),
                        f"pass {p} {a['sample']}: traced {est} draws differ from untraced")
        return {"untraced_s": t1 - t0, "traced_s": t2 - t1, "output": out, "raw": fits}


# ---------------------------------------------------------------------------
# diagnose-balance: the diagnose path
# ---------------------------------------------------------------------------

DIAGNOSE_TARGETS = (
    (cli, "load_scenarios", "harness.load_scenarios", None),
    (cli, "generate_population", "popgen.generate_population", None),
    (cli, "draw_two_stage_sample", "design.draw_two_stage_sample",
     lambda out, a, k: {"clusters": out.m}),
    (cli, "build_weights", "design.build_weights", None),
    (cli, "informativeness_summary", "diagnostics.informativeness_summary", None),
    (cli, "weighted_residual_balance", "diagnostics.weighted_residual_balance",
     lambda out, a, k: {"draws": a[0].M * a[2]}),
    (cli, "bounds_report", "diagnostics.bounds_report", None),
    (diagnostics, "size_measures", "design.size_measures", None),
    (diagnostics, "inclusion_probs", "design.inclusion_probs", None),
    (diagnostics, "systematic_pps", "design.systematic_pps", None),
    (diagnostics, "substream", "rng.substream", None),
)


class DiagnoseWorkload:
    """``svyanova diagnose --desk`` on a study-2 slice with a linear unit design."""

    balance_replicates = 20
    grid = [{"M": 2000, "m": 200, "cluster": "quadratic_symmetric", "unit": "quadratic",
             "n_k": 5},
            {"M": 2000, "m": 200, "cluster": "linear_asymmetric", "unit": "linear",
             "n_k": 10}]

    def prepare(self, work: Path, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.cfg = write_scenario(work / "scenario.cfg", "paper-study2.cfg", grid=self.grid,
                                  base_seed=child_seed(seed, 0))
        self.scenarios = tracer.call("harness.load_scenarios", harness.load_scenarios,
                                     self.cfg, desk=True)

    def run(self, p: int, out: Path):
        rc = quiet_cli(["diagnose", "--scenario", str(self.cfg), "--desk", "--out", str(out),
                        "--seed", str(child_seed(self.seed, 1, p)),
                        "--balance-replicates", str(self.balance_replicates)])
        require(rc == 0, f"diagnose exited with {rc} on pass {p}")
        return sum(s.population.M * self.balance_replicates for s in self.scenarios), None

    def check(self, p: int, out: Path, _raw) -> tuple[int, int]:
        for scen in self.scenarios:
            sdir = out / scen.scenario_id
            balance = json.loads((sdir / "balance.json").read_text(encoding="utf-8"))
            bounds = json.loads((sdir / "bounds.json").read_text(encoding="utf-8"))
            require(balance["n_replicates"] == self.balance_replicates
                    and balance["n_clusters"] == scen.population.M,
                    f"pass {p} {scen.scenario_id}: balance covers the wrong draws")
            for key in ("overall_mean", "mc_se"):
                require(math.isfinite(balance[key]), f"pass {p} {scen.scenario_id}: {key}")
            for key in ("cluster_weight_bound", "unit_weight_bound", "cluster_fraction"):
                require(math.isfinite(bounds[key]) and bounds[key] > 0,
                        f"pass {p} {scen.scenario_id}: {key}")
        with open(out / "informativeness.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == 4 * len(self.scenarios), f"pass {p}: informativeness rows")
        require(all(math.isfinite(float(r[q])) for r in rows for q in ("q05", "q50", "q95")),
                f"pass {p}: non-finite informativeness quantile")
        return len(self.scenarios), 0

    def final_check(self) -> None:
        pass

    def traced(self, p: int, out: Path, tracer: Tracer) -> dict:
        t0 = time.perf_counter()
        self.run(p, out / "untraced")
        t1 = time.perf_counter()
        with tracer.patched(DIAGNOSE_TARGETS):
            self.run(p, out / "traced")
        t2 = time.perf_counter()
        differ = same_files(out / "untraced", out / "traced")
        require(not differ, f"pass {p}: traced diagnose outputs differ in {differ}")
        return {"untraced_s": t1 - t0, "traced_s": t2 - t1, "output": out / "untraced",
                "raw": None}


WORKLOADS = {
    "study1-serial": lambda: GridWorkload("paper-study1.cfg", workers=1, R=1,
                                          desk={"R": 1}),
    # five scenarios that between them cover both cluster designs, all
    # five unit designs and every n_k
    "study2-parallel": lambda: GridWorkload(
        "paper-study2.cfg", workers=2, R=2, desk={"M": 2, "m": 2, "R": 1},
        grid=[{"M": 2000, "m": 200, "cluster": ("quadratic_symmetric", "linear_asymmetric")[i % 2],
               "unit": u, "n_k": (5, 10, 20)[i % 3]}
              for i, u in enumerate(("quadratic", "weak_quadratic", "linear", "weak_linear",
                                     "srs"))]),
    "estimate-chains": EstimateWorkload,
    "diagnose-balance": DiagnoseWorkload,
}
