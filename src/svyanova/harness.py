"""Replication driver: populations x samples x estimators over a scenario grid.

Each replicate generates its own population and sample on seeds split from
the scenario's base seed, runs every requested estimator on the identical
sample, and records one point estimate per parameter:

* ``equal_gibbs``, ``single_gibbs`` and ``double_gibbs``: the exact
  pseudo-posterior mean under that weight mode, by quadrature over the
  collapsed grid (``posterior_means``).  It is the value the augmented
  sampler ``run_gibbs`` estimates, without its Monte Carlo noise; the
  names stay because the acceptance criteria use them;
* ``double_integrated``: the mean of ``chain.n_draws`` i.i.d. draws
  (``run_integrated_mcmc``), kept as a live cross-check of the exact mean:
  its diagnostics carry the Monte Carlo standard error sd/sqrt(n) and the
  z-score (draw mean - exact mean)/mcse of each parameter;
* ``double_map``: the posterior mode (``map_estimate``).

The estimators of one weight mode share one ``_Posterior``: the weighted
sums are taken once, and the grid is built once, when a grid estimator
first needs it.  A failure of that grid fails only the grid estimators;
``double_map`` reads the sums alone.  Aggregation reports empirical
5/50/95% quantiles per estimator and parameter.  Reports are deterministic
functions of the scenario, regardless of worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from numbers import Real

import numpy as np
import yaml

from . import __version__
from .csvio import write_csv
from .design import (ClusterDesign, TwoStageDesign, UnitDesign, WeightMode,
                     build_weights, draw_two_stage_sample)
from .errors import ConfigError, require_int
from .inference import ChainConfig, PriorConfig, PARAM_NAMES, _Posterior
# Not called here any more; svybench/workloads.py patches these names on
# this module to trace them.
from .inference import map_estimate, run_gibbs, run_integrated_mcmc  # noqa: F401
from .popgen import PopulationConfig, generate_population
from .rng import derive_seed

ESTIMATORS = ("equal_gibbs", "single_gibbs", "double_gibbs",
              "double_integrated", "double_map")
_MODE_OF = {
    "equal_gibbs": WeightMode.EQUAL,
    "single_gibbs": WeightMode.SINGLE,
    "double_gibbs": WeightMode.DOUBLE,
    "double_integrated": WeightMode.DOUBLE,
    "double_map": WeightMode.DOUBLE,
}
_MAP_CLIP = 10.0  # reported MAP estimates are truncated at +/-10 in quantile output

# seed-stream tags
_POP, _DESIGN, _CHAIN = 1, 2, 3

# Keys a scenario file may use.  The population and design sections and the
# grid points are merged into one key set per scenario; only a grid point
# may override R.
_FILE_KEYS = ("name", "population", "design", "grid", "estimators", "R", "base_seed",
              "chain", "priors", "normalize_weights", "desk")
_SECTION_KEYS = ("M", "N_h", "mu0", "sigma_a0", "sigma_eps0", "cluster", "unit", "m", "n_k")
_GRID_KEYS = _SECTION_KEYS + ("R",)
_DESK_KEYS = ("M", "m", "R")
# No chain seed: every chain seed is derived per replicate from base_seed.
_CHAIN_KEYS = ("n_draws",)
_PRIOR_KEYS = ("alpha1", "beta1", "alpha2", "beta2")


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    population: PopulationConfig
    design: TwoStageDesign
    estimators: tuple[str, ...]
    R: int
    base_seed: int
    chain: ChainConfig = ChainConfig()
    priors: PriorConfig = PriorConfig()
    normalize_weights: bool = True

    def __post_init__(self):
        if self.R < 1:
            raise ConfigError("R must be >= 1")
        if not self.estimators:
            raise ConfigError("estimator set must be non-empty")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ConfigError(f"unknown estimators: {sorted(unknown)}")


@dataclass(frozen=True)
class ReplicationReport:
    scenario: Scenario
    estimates: dict            # (estimator, parameter) -> np.ndarray of R values
    quantiles: dict            # (estimator, parameter) -> (q05, q50, q95)
    diagnostics: list          # per replicate: {estimator: {...}}
    failures: list             # per replicate: {estimator: error message} (empty if none)
    wall_time: float

    @property
    def R(self) -> int:
        return self.scenario.R

    def median(self, estimator: str, parameter: str) -> float:
        return self.quantiles[(estimator, parameter)][1]

    def spread(self, estimator: str, parameter: str) -> float:
        q05, _, q95 = self.quantiles[(estimator, parameter)]
        return q95 - q05


def replicate_configs(scenario: Scenario, r: int) -> tuple[PopulationConfig, TwoStageDesign]:
    """Population config and design of replicate ``r``, each seeded from its
    own stream of the scenario's base seed."""
    return (replace(scenario.population, seed=derive_seed(scenario.base_seed, _POP, r)),
            replace(scenario.design, seed=derive_seed(scenario.base_seed, _DESIGN, r)))


def _run_replicate(scenario: Scenario, r: int) -> tuple[int, dict, dict, dict]:
    """One replicate: population -> sample -> every estimator.

    Returns (r, estimates, diagnostics, failures); estimates are NaN for a
    failed estimator (or a failed sample draw) so failures stay visible in
    the report.
    """
    estimates, diags, failures = {}, {}, {}
    try:
        pop_cfg, design = replicate_configs(scenario, r)
        population = generate_population(pop_cfg)
        sample = draw_two_stage_sample(population, design)
        weight_sets = {mode: build_weights(sample, mode,
                                           normalize=scenario.normalize_weights)
                       for mode in {_MODE_OF[e] for e in scenario.estimators}}
    except Exception as exc:
        failures["replicate"] = f"{type(exc).__name__}: {exc}"
        for est in scenario.estimators:
            diags[est] = {"converged": False, "acceptance_rate": None}
            for p in PARAM_NAMES:
                estimates[(est, p)] = math.nan
        return r, estimates, diags, failures
    # double_integrated draws on the replicate's chain seed; the estimators
    # of one weight mode share one posterior, its sums and its grid
    chain = replace(scenario.chain, seed=derive_seed(scenario.base_seed, _CHAIN, r))
    posteriors = {}
    for est in scenario.estimators:
        mode = _MODE_OF[est]
        try:
            if mode not in posteriors:
                posteriors[mode] = _Posterior(sample, weight_sets[mode], scenario.priors)
            post = posteriors[mode]
            if est == "double_map":
                theta, loglik, converged = post.mode()
                point = {"b0": theta.mu, "sigma_a": theta.sigma_a,
                         "sigma_eps": theta.sigma_eps}
                diags[est] = {"converged": converged, "loglik": loglik,
                              "acceptance_rate": None}
            elif est == "double_integrated":
                draws = post.integrated_draws(chain)
                point = draws.point_estimates()
                diags[est] = {"converged": True, "acceptance_rate": draws.acceptance_rate,
                              **_cross_check(draws, post.means)}
            else:
                point = post.means
                diags[est] = {"converged": True, "acceptance_rate": None}
            for p in PARAM_NAMES:
                estimates[(est, p)] = point[p]
        except Exception as exc:  # failure markers, never silently dropped
            failures[est] = f"{type(exc).__name__}: {exc}"
            diags[est] = {"converged": False, "acceptance_rate": None}
            for p in PARAM_NAMES:
                estimates[(est, p)] = math.nan
    return r, estimates, diags, failures


def _cross_check(draws, exact: dict) -> dict:
    """Monte Carlo standard error sd/sqrt(n) of each draw mean, and its
    z-score (draw mean - exact mean)/mcse against the quadrature means;
    empty below two draws, where there is no sd."""
    n = draws.n_draws
    if n < 2:
        return {}
    mcse = {p: draws.sd(p) / math.sqrt(n) for p in PARAM_NAMES}
    return {"mcse": mcse,
            "z": {p: (draws.mean(p) - exact[p]) / mcse[p] if mcse[p] > 0 else math.nan
                  for p in PARAM_NAMES}}


def aggregate_quantiles(estimates: dict) -> dict:
    """Empirical (5, 50, 95)% quantiles per cell, type-7 interpolation.

    Failure markers (NaN) are excluded from quantiles but stay in the
    estimate vectors; MAP estimates are truncated at +/-10 for reporting
    (raw values remain in the long-format output).
    """
    quantiles = {}
    for key, vals in estimates.items():
        ok = vals[np.isfinite(vals)]
        clipped = np.clip(ok, -_MAP_CLIP, _MAP_CLIP) if key[0] == "double_map" else ok
        quantiles[key] = (tuple(float(v) for v in np.quantile(clipped, (0.05, 0.5, 0.95)))
                          if len(clipped) else (math.nan,) * 3)
    return quantiles


def run_scenario(scenario: Scenario, workers: int = 1) -> ReplicationReport:
    """Run all R replicates and aggregate quantiles per (estimator, parameter).

    With ``workers > 1`` the replicates run on a process pool of
    ``workers`` processes of their own.  Raises only if every replicate
    failed outright; individual failures are recorded as NaN cells with
    their error messages.
    """
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _run_scenario(scenario, pool)
    return _run_scenario(scenario)


def _run_scenario(scenario: Scenario, pool: ProcessPoolExecutor | None = None
                  ) -> ReplicationReport:
    """``run_scenario`` with the replicates in this process, or mapped one
    task each over ``pool``."""
    t0 = time.perf_counter()
    reps = range(1, scenario.R + 1)
    if pool is not None:
        results = list(pool.map(_run_replicate, [scenario] * scenario.R, reps))
    else:
        results = [_run_replicate(scenario, r) for r in reps]
    results.sort(key=lambda item: item[0])
    if all("replicate" in res[3] for res in results):
        raise RuntimeError(
            f"every replicate of {scenario.scenario_id} failed; "
            f"first error: {results[0][3]['replicate']}")

    estimates = {(e, p): np.array([res[1][(e, p)] for res in results])
                 for e in scenario.estimators for p in PARAM_NAMES}
    quantiles = aggregate_quantiles(estimates)
    return ReplicationReport(
        scenario=scenario,
        estimates=estimates,
        quantiles=quantiles,
        diagnostics=[res[2] for res in results],
        failures=[res[3] for res in results],
        wall_time=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class ScenarioFailure:
    scenario_id: str
    error: str


def run_grid(scenarios: list[Scenario], workers: int = 1) -> list:
    """Run every scenario; failures are isolated per scenario.

    Output order follows scenario_id; a failed scenario yields a
    ScenarioFailure entry in place of its report.  With ``workers > 1``
    every scenario's replicates run on one process pool of
    ``min(workers, total replicates)`` processes, opened once for the
    grid; with ``workers == 1``, or a single replicate in all, each
    scenario goes through ``run_scenario`` in this process.  Reports do
    not depend on the worker count.

    A worker process that dies (killed, or exiting without raising)
    breaks the pool: the scenario it was running and every scenario after
    it come back as ScenarioFailure entries naming BrokenProcessPool, the
    reports before it stand, and run_grid returns without raising.
    """
    ordered = sorted(scenarios, key=lambda s: s.scenario_id)
    size = min(workers, sum(s.R for s in ordered))
    if size < 2:
        return [_isolated(run_scenario, s) for s in ordered]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return [_isolated(_run_scenario, s, pool) for s in ordered]


def _isolated(run, scenario: Scenario, *args):
    """``run(scenario, *args)``, or the ScenarioFailure of its exception."""
    try:
        return run(scenario, *args)
    except Exception as exc:
        return ScenarioFailure(scenario.scenario_id, f"{type(exc).__name__}: {exc}")


def _truth(pop: PopulationConfig) -> dict:
    return {"b0": pop.mu0, "sigma_a": pop.sigma_a0, "sigma_eps": pop.sigma_eps0}


def emit_plot_data(reports, out_dir) -> tuple[str, str]:
    """Write long-format estimates and quantile CSVs for external plotting.

    The long file carries raw per-replicate estimates (failures as nan);
    the quantile file carries the report's clipped-MAP quantiles plus the
    generating value per parameter as the reference line.
    """
    os.makedirs(out_dir, exist_ok=True)
    long_path = os.path.join(out_dir, "estimates_long.csv")
    quant_path = os.path.join(out_dir, "quantiles.csv")
    reports = [r for r in reports if isinstance(r, ReplicationReport)]
    cells = [(rep, est, p) for rep in reports
             for est in rep.scenario.estimators for p in PARAM_NAMES]
    write_csv(long_path, ["scenario_id", "estimator", "parameter", "replicate", "estimate"],
              ([rep.scenario.scenario_id, est, p, r, float(v)]
               for rep, est, p in cells
               for r, v in enumerate(rep.estimates[(est, p)], start=1)))
    write_csv(quant_path,
              ["scenario_id", "estimator", "parameter", "q05", "q50", "q95", "truth"],
              ([rep.scenario.scenario_id, est, p, *rep.quantiles[(est, p)],
                float(_truth(rep.scenario.population)[p])] for rep, est, p in cells))
    return long_path, quant_path


def report_to_json(report: ReplicationReport) -> dict:
    """The resolved scenario (with the svyanova and numpy versions that ran
    it, and ``N_h`` as one int when every cluster has that size), quantiles,
    per-replicate estimator diagnostics (acceptance rate, the integrated
    draws' ``mcse`` and ``z`` against the exact means, MAP convergence and
    log-likelihood) and failures."""
    scen = report.scenario
    N_h = scen.population.N_h
    return {
        "scenario_id": scen.scenario_id,
        "scenario": {
            "M": scen.population.M,
            # one int when every cluster has the same size
            "N_h": (N_h[0] if len(set(N_h)) == 1 else list(N_h)),
            "mu0": scen.population.mu0,
            "sigma_a0": scen.population.sigma_a0,
            "sigma_eps0": scen.population.sigma_eps0,
            "cluster_design": scen.design.cluster_kind.value,
            "unit_design": scen.design.unit_kind.value,
            "m": scen.design.m,
            "n_k": scen.design.n_k,
            "R": scen.R,
            "base_seed": scen.base_seed,
            "estimators": list(scen.estimators),
            "normalize_weights": scen.normalize_weights,
            # the chain seed is derived per replicate from base_seed
            "chain": {"n_draws": scen.chain.n_draws},
            "priors": asdict(scen.priors),
            "svyanova_version": __version__,
            "numpy_version": np.__version__,
        },
        "quantiles": {f"{e}/{p}": list(report.quantiles[(e, p)])
                      for e in scen.estimators for p in PARAM_NAMES},
        "diagnostics": report.diagnostics,
        "n_failures": sum(len(f) for f in report.failures),
        "failures": [f for f in report.failures if f],
        "wall_time_s": report.wall_time,
    }


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def _mapping(section, known: tuple[str, ...], where: str) -> dict:
    """A copy of ``section`` once it is a mapping of known keys only."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a key-value mapping, got {section!r}")
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}; "
                              f"expected one of {', '.join(known)}")
    return dict(section)


def _expand_grid(grid) -> list[dict]:
    if grid is None:
        return [{}]
    if isinstance(grid, list):
        return [_mapping(pt, _GRID_KEYS, f"grid point {i}") for i, pt in enumerate(grid)]
    # mapping of axes -> full cross product, stable axis order
    grid = _mapping(grid, _GRID_KEYS, "grid axes")
    points = [{}]
    for axis, values in grid.items():
        points = [{**pt, axis: v} for pt in points for v in values]
    return points


def _real(value, key: str) -> float:
    if isinstance(value, bool) or not (isinstance(value, Real) and math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _choice(kind, value, key: str):
    """The member of the enum ``kind`` named by ``value``."""
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key} must be one of {', '.join(k.value for k in kind)}, "
                          f"got {value!r}") from None


def load_scenarios(path, desk: bool = False, base_seed: int | None = None) -> list[Scenario]:
    """Parse a scenario file into the list of scenarios it defines.

    The file is a YAML key-value tree with a base configuration and an
    optional ``grid`` (list of explicit points, or a mapping of axes whose
    cross product is taken).  With ``desk=True`` the integer divisors under
    the ``desk`` key are applied to M, m, and R.  An unknown key raises
    ConfigError naming the key and where it was found; so do ``chain.seed``
    (chain seeds come from ``base_seed``), a section (``population``,
    ``design``, ``chain``, ``priors``, ``desk``, a grid point or the grid
    axes) that is empty or not a mapping, and a value of the wrong type:
    a count or seed that is not an integer, a number that is not finite, a
    ``normalize_weights`` that is not a boolean, ``estimators`` that is
    not a list of names or a ``cluster`` or ``unit`` that names no design.
    So does a design no sample can be drawn from: ``m`` above ``M``, or
    ``n_k`` above the smallest ``N_h``, after the desk divisors.
    """
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"scenario file {path} is not a key-value tree")
    _mapping(cfg, _FILE_KEYS, "the top level")
    name = cfg.get("name", "scenario")
    pop = _mapping(cfg.get("population", {}), _SECTION_KEYS, "population")
    base_design = _mapping(cfg.get("design", {}), _SECTION_KEYS, "design")
    chain_cfg = cfg.get("chain", {})
    if isinstance(chain_cfg, dict) and "seed" in chain_cfg:
        raise ConfigError("chain.seed is not read: every chain seed is derived per "
                          "replicate from base_seed; set base_seed or pass --seed")
    chain = ChainConfig(**_mapping(chain_cfg, _CHAIN_KEYS, "chain"))
    priors = PriorConfig(**_mapping(cfg.get("priors", {}), _PRIOR_KEYS, "priors"))
    estimators = cfg.get("estimators", list(ESTIMATORS))
    if not (isinstance(estimators, list) and all(isinstance(e, str) for e in estimators)):
        raise ConfigError(f"estimators must be a list of estimator names, got {estimators!r}")
    seed = require_int(base_seed if base_seed is not None else cfg.get("base_seed", 0),
                       "base_seed", 0)
    normalize = cfg.get("normalize_weights", True)
    if not isinstance(normalize, bool):
        raise ConfigError(f"normalize_weights must be true or false, got {normalize!r}")
    # read only with desk=True, but checked always
    desk_factors = {key: require_int(value, f"desk.{key}", 1) for key, value in
                    _mapping(cfg.get("desk", {}), _DESK_KEYS, "desk").items()}

    scenarios = []
    for idx, point in enumerate(_expand_grid(cfg.get("grid"))):
        merged = {**pop, **base_design, "R": cfg.get("R", 1), **point}
        M, m, R = (require_int(merged[key], key, 1) for key in ("M", "m", "R"))
        if desk:
            M, m, R = (max(1, n // desk_factors.get(key, 1))
                       for key, n in (("M", M), ("m", m), ("R", R)))
        N_h = merged.get("N_h", 40)
        population = PopulationConfig(
            M=M, N_h=([require_int(n, "N_h", 1) for n in N_h] if isinstance(N_h, list)
                      else require_int(N_h, "N_h", 1)),
            mu0=_real(merged.get("mu0", 1.0), "mu0"),
            sigma_a0=_real(merged.get("sigma_a0", 2.0), "sigma_a0"),
            sigma_eps0=_real(merged.get("sigma_eps0", 3.0), "sigma_eps0"), seed=0)
        design = TwoStageDesign(
            cluster_kind=_choice(ClusterDesign, merged.get("cluster", "srs"), "cluster"),
            unit_kind=_choice(UnitDesign, merged.get("unit", "srs"), "unit"),
            m=m, n_k=require_int(merged.get("n_k", 5), "n_k", 1), seed=0)
        if m > M:
            raise ConfigError(f"m must be <= M, got m={m} for M={M} in grid point {idx}")
        if design.n_k > min(population.N_h):
            raise ConfigError(f"n_k must be <= the smallest N_h, got n_k={design.n_k} for "
                              f"N_h={min(population.N_h)} in grid point {idx}")
        sid = (f"{name}-{idx:03d}-M{M}-m{m}-nk{design.n_k}"
               f"-c_{design.cluster_kind.value}-u_{design.unit_kind.value}")
        scenarios.append(Scenario(
            scenario_id=sid, population=population, design=design,
            estimators=tuple(estimators), R=R, base_seed=seed, chain=chain,
            priors=priors, normalize_weights=normalize))
    return scenarios
