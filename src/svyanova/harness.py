"""Replication driver: populations x samples x estimators over a scenario grid.

Each replicate generates its own population and sample on seeds split from
the scenario's base seed, runs every requested estimator on the identical
sample, and records point estimates (posterior means for the sampling routes,
the argmax for MAP).  Aggregation reports empirical 5/50/95% quantiles per
estimator and parameter.  Reports are deterministic functions of the
scenario, regardless of worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
import yaml

from . import __version__
from .csvio import write_csv
from .design import (ClusterDesign, TwoStageDesign, UnitDesign, WeightMode,
                     build_weights, draw_two_stage_sample)
from .errors import ConfigError
from .inference import (ChainConfig, ParamState, PriorConfig, PARAM_NAMES, map_estimate,
                        run_gibbs, run_integrated_mcmc)
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
_CHAIN_KEYS = ("n_iterations", "n_burnin", "thin", "init")
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
    # estimators share the replicate's chain seed (common random numbers)
    chain = replace(scenario.chain, seed=derive_seed(scenario.base_seed, _CHAIN, r))
    for est in scenario.estimators:
        weights = weight_sets[_MODE_OF[est]]
        try:
            if est == "double_map":
                theta, loglik, converged = map_estimate(
                    sample, weights, scenario.priors, init=scenario.chain.init)
                point = {"b0": theta.mu, "sigma_a": theta.sigma_a,
                         "sigma_eps": theta.sigma_eps}
                diags[est] = {"converged": converged, "loglik": loglik,
                              "acceptance_rate": None}
            else:
                runner = run_integrated_mcmc if est == "double_integrated" else run_gibbs
                draws = runner(sample, weights, scenario.priors, chain)
                point = draws.point_estimates()
                diags[est] = {"converged": True,
                              "acceptance_rate": draws.acceptance_rate}
            for p in PARAM_NAMES:
                estimates[(est, p)] = point[p]
        except Exception as exc:  # failure markers, never silently dropped
            failures[est] = f"{type(exc).__name__}: {exc}"
            diags[est] = {"converged": False, "acceptance_rate": None}
            for p in PARAM_NAMES:
                estimates[(est, p)] = math.nan
    return r, estimates, diags, failures


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

    Raises only if every replicate failed outright; individual failures are
    recorded as NaN cells with their error messages.
    """
    t0 = time.perf_counter()
    reps = range(1, scenario.R + 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    """Map run_scenario over the grid; failures are isolated per scenario.

    Output order follows scenario_id; a failed scenario yields a
    ScenarioFailure entry in place of its report.
    """
    out = []
    for scenario in sorted(scenarios, key=lambda s: s.scenario_id):
        try:
            out.append(run_scenario(scenario, workers=workers))
        except Exception as exc:
            out.append(ScenarioFailure(scenario.scenario_id, f"{type(exc).__name__}: {exc}"))
    return out


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
    it), quantiles, per-replicate estimator diagnostics (acceptance rate,
    MAP convergence and log-likelihood) and failures."""
    scen = report.scenario
    chain, init = scen.chain, scen.chain.init
    return {
        "scenario_id": scen.scenario_id,
        "scenario": {
            "M": scen.population.M,
            "N_h": list(scen.population.N_h),
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
            "chain": {"n_iterations": chain.n_iterations, "n_burnin": chain.n_burnin,
                      "thin": chain.thin,
                      "init": ({"mu": init.mu, "tau_a": init.tau_a, "tau_eps": init.tau_eps}
                               if isinstance(init, ParamState) else init)},
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


def _desk_scale(value: int, factor: int) -> int:
    return max(1, int(value) // max(1, int(factor)))


def load_scenarios(path, desk: bool = False, base_seed: int | None = None) -> list[Scenario]:
    """Parse a scenario file into the list of scenarios it defines.

    The file is a YAML key-value tree with a base configuration and an
    optional ``grid`` (list of explicit points, or a mapping of axes whose
    cross product is taken).  With ``desk=True`` the integer divisors under
    the ``desk`` key are applied to M, m, and R.  An unknown key raises
    ConfigError naming the key and where it was found; so do ``chain.seed``
    (chain seeds come from ``base_seed``) and a ``chain.init`` other than
    ``auto``, and a section (``population``, ``design``, ``chain``,
    ``priors``, ``desk``, a grid point or the grid axes) that is empty or
    not a mapping.
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
    chain_cfg = _mapping(chain_cfg, _CHAIN_KEYS, "chain")
    if chain_cfg.get("init", "auto") != "auto":
        raise ConfigError(f"chain.init must be 'auto' in a scenario file, "
                          f"got {chain_cfg['init']!r}")
    chain = ChainConfig(**chain_cfg)
    priors = PriorConfig(**_mapping(cfg.get("priors", {}), _PRIOR_KEYS, "priors"))
    estimators = tuple(cfg.get("estimators", list(ESTIMATORS)))
    seed = int(base_seed if base_seed is not None else cfg.get("base_seed", 0))
    R = int(cfg.get("R", 1))
    desk_factors = _mapping(cfg.get("desk", {}), _DESK_KEYS, "desk")  # read only with desk=True

    scenarios = []
    for idx, point in enumerate(_expand_grid(cfg.get("grid"))):
        merged = {**pop, **base_design, "R": R, **point}
        M = _desk_scale(merged["M"], desk_factors.get("M", 1)) if desk else int(merged["M"])
        m = _desk_scale(merged["m"], desk_factors.get("m", 1)) if desk else int(merged["m"])
        R_eff = _desk_scale(merged["R"], desk_factors.get("R", 1)) if desk else int(merged["R"])
        population = PopulationConfig(
            M=M, N_h=merged.get("N_h", 40), mu0=float(merged.get("mu0", 1.0)),
            sigma_a0=float(merged.get("sigma_a0", 2.0)),
            sigma_eps0=float(merged.get("sigma_eps0", 3.0)), seed=0)
        design = TwoStageDesign(
            cluster_kind=ClusterDesign(merged.get("cluster", "srs")),
            unit_kind=UnitDesign(merged.get("unit", "srs")),
            m=m, n_k=int(merged.get("n_k", 5)), seed=0)
        sid = (f"{name}-{idx:03d}-M{M}-m{m}-nk{design.n_k}"
               f"-c_{design.cluster_kind.value}-u_{design.unit_kind.value}")
        scenarios.append(Scenario(
            scenario_id=sid, population=population, design=design,
            estimators=estimators, R=R_eff, base_seed=seed, chain=chain,
            priors=priors,
            normalize_weights=bool(cfg.get("normalize_weights", True))))
    return scenarios
