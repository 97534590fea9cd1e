"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `[criterion NN] PASS/FAIL` line (run with `-s` or
`-v` to see them live).  Scenario-style criteria fix base_seed=101; all
runs are deterministic.  A check is a bool or a (value, relation, bound)
triple, so that ``scripts/gate_margins.py`` can rerun the criteria over
other base seeds and report value - bound.
"""

import math
import operator
import time

import numpy as np
from scipy.stats import gamma, norm

from svyanova.design import (ClusterDesign, TwoStageDesign, UnitDesign, WeightMode,
                             build_weights, draw_two_stage_sample)
from svyanova.diagnostics import weighted_residual_balance
from svyanova.harness import Scenario, emit_plot_data, run_scenario
from svyanova.inference import (ChainConfig, ParamState, PriorConfig,
                                augmented_logpseudoposterior, fc_a_k, fc_mu,
                                fc_tau_a, fc_tau_eps, integrated_loglik, run_gibbs,
                                run_integrated_mcmc)
from svyanova.popgen import PopulationConfig, generate_population

from helpers import census_sample, make_instance, quad_cluster_logintegral, \
    single_cluster_instance

BASE_SEED = 101
PARAMS = ("b0", "sigma_a", "sigma_eps")
STUDY1_POP = dict(N_h=40, mu0=1.0, sigma_a0=2.0, sigma_eps0=3.0, seed=0)


_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def _report(num, desc, checks, elapsed, budget):
    passed, lines = {}, []
    for label, check in checks.items():
        if isinstance(check, bool):
            passed[label], line = check, label
        else:
            value, relation, bound = check
            passed[label] = _RELATIONS[relation](value, bound)
            line = f"{label}: {value:.4g} {relation} {bound:.4g}"
        lines.append(f"    {'ok  ' if passed[label] else 'FAIL'} {line}")
    ok = all(passed.values())
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s / budget {budget:.0f}s) {desc}")
    print("\n".join(lines))
    assert ok, f"criterion {num} failed: " + \
        ", ".join(k for k, v in passed.items() if not v)
    assert elapsed < budget, f"criterion {num} exceeded budget"


def test_criterion_01_marginalization_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        sample, weights, state, _ = make_instance(seed)
        for k in range(sample.m):
            sub_s, sub_w = single_cluster_instance(sample, weights, k)
            closed = integrated_loglik((state.mu, state.tau_a, state.tau_eps),
                                       sub_s, sub_w)
            oracle = quad_cluster_logintegral(
                sample.y_s[k], weights.w_jk[k], weights.w_k[k],
                state.mu, state.tau_a, state.tau_eps)
            worst = max(worst, abs(math.expm1(closed - oracle)))
    elapsed = time.perf_counter() - t0
    _report(1, "exp(integrated_loglik) matches per-cluster quadrature",
            {"max relative error": (worst, "<=", 1e-8)},
            elapsed, 10.0)


def test_criterion_02_conjugacy_oracle():
    t0 = time.perf_counter()
    grid_n = 200
    worst = {"a_k": 0.0, "mu": 0.0, "tau_a": 0.0, "tau_eps": 0.0}

    def joint_along(instance, setter, grid):
        sample, weights, state, prior = instance
        vals = np.array([augmented_logpseudoposterior(setter(state, g), sample,
                                                      weights, prior) for g in grid])
        vals = np.exp(vals - vals.max())
        return vals / vals.sum()

    for seed in range(20):
        inst = make_instance(seed)
        sample, weights, state, prior = inst

        h, phi = fc_a_k(0, state.mu, state.tau_a, state.tau_eps, sample, weights)
        grid = np.linspace(h - 5 / math.sqrt(phi), h + 5 / math.sqrt(phi), grid_n)
        setter = lambda s, g: ParamState(s.mu, s.tau_a, s.tau_eps,
                                         np.concatenate([[g], s.a[1:]]))
        closed = norm.pdf(grid, h, phi ** -0.5)
        closed /= closed.sum()
        worst["a_k"] = max(worst["a_k"],
                           np.max(np.abs(joint_along(inst, setter, grid) / closed - 1)))

        mean, prec = fc_mu(state.a, state.tau_eps, sample, weights)
        grid = np.linspace(mean - 5 / math.sqrt(prec), mean + 5 / math.sqrt(prec), grid_n)
        setter = lambda s, g: ParamState(g, s.tau_a, s.tau_eps, s.a)
        closed = norm.pdf(grid, mean, prec ** -0.5)
        closed /= closed.sum()
        worst["mu"] = max(worst["mu"],
                          np.max(np.abs(joint_along(inst, setter, grid) / closed - 1)))

        for name, (shape, scale), setter in (
            ("tau_a", fc_tau_a(state.a, weights.w_k, prior),
             lambda s, g: ParamState(s.mu, g, s.tau_eps, s.a)),
            ("tau_eps", fc_tau_eps(state.mu, state.a, sample, weights, prior),
             lambda s, g: ParamState(s.mu, s.tau_a, g, s.a)),
        ):
            dist = gamma(a=shape, scale=1.0 / scale)
            grid = np.linspace(dist.ppf(1e-4), dist.ppf(1 - 1e-4), grid_n)
            closed = dist.pdf(grid)
            closed /= closed.sum()
            worst[name] = max(worst[name],
                              np.max(np.abs(joint_along(inst, setter, grid) / closed - 1)))

    elapsed = time.perf_counter() - t0
    _report(2, "full conditionals match normalized grid restrictions of the joint",
            {f"{k}: max rel err": (v, "<=", 1e-6) for k, v in worst.items()},
            elapsed, 30.0)


def test_criterion_03_collapse_identity():
    t0 = time.perf_counter()
    from svyanova.inference import augmented_logpseudolikelihood

    worst = 0.0
    for seed in range(50):
        sample, weights, state, _ = make_instance(seed)
        flat = augmented_logpseudolikelihood(state, sample, weights)
        nested = 0.0
        for k in range(sample.m):
            r = sample.y_s[k] - state.mu - state.a[k]
            unit = np.sum(weights.w_j_given_k[k] * (
                0.5 * math.log(state.tau_eps) - 0.5 * math.log(2 * math.pi)
                - 0.5 * state.tau_eps * r ** 2))
            a_ll = (0.5 * math.log(state.tau_a) - 0.5 * math.log(2 * math.pi)
                    - 0.5 * state.tau_a * state.a[k] ** 2)
            nested += weights.w_k[k] * (unit + a_ll)
        worst = max(worst, abs(flat - nested) / max(1.0, abs(flat)))
    elapsed = time.perf_counter() - t0
    _report(3, "flat double-weighted form equals nested cluster-weighted form",
            {"max relative difference": (worst, "<=", 1e-12)},
            elapsed, 5.0)


def test_criterion_04_gibbs_integrated_agreement():
    t0 = time.perf_counter()
    pop = generate_population(PopulationConfig(M=1000, **STUDY1_POP | {"seed": BASE_SEED}))
    design = TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                            UnitDesign.SYMMETRIC_QUADRATIC, m=200, n_k=5,
                            seed=BASE_SEED + 1)
    sample = draw_two_stage_sample(pop, design)
    weights = build_weights(sample, WeightMode.DOUBLE)
    chain = ChainConfig(n_draws=2000, seed=BASE_SEED + 2)
    g = run_gibbs(sample, weights, PriorConfig(), chain)
    i = run_integrated_mcmc(sample, weights, PriorConfig(), chain)
    diffs = {p: abs(g.mean(p) - i.mean(p)) for p in PARAMS}
    elapsed = time.perf_counter() - t0
    _report(4, "augmented Gibbs and integrated MCMC posterior means agree",
            {f"{p}: |diff|": (d, "<=", 0.05) for p, d in diffs.items()},
            elapsed, 120.0)


def _study1_scenario(**kw):
    args = dict(
        scenario_id="acc",
        population=PopulationConfig(M=1000, **STUDY1_POP),
        design=TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                              UnitDesign.SYMMETRIC_QUADRATIC, m=50, n_k=5, seed=0),
        estimators=("equal_gibbs", "single_gibbs", "double_gibbs"),
        R=20, base_seed=BASE_SEED,
    )
    args.update(kw)
    return Scenario(**args)


def test_criterion_05_bias_pattern_symmetric_designs():
    t0 = time.perf_counter()
    rep = run_scenario(_study1_scenario())
    dbl_sa = rep.median("double_gibbs", "sigma_a")
    eq_sa = rep.median("equal_gibbs", "sigma_a")
    sg_sa = rep.median("single_gibbs", "sigma_a")
    eq_se = rep.median("equal_gibbs", "sigma_eps")
    sg_se = rep.median("single_gibbs", "sigma_eps")
    elapsed = time.perf_counter() - t0
    _report(5, "double weighting removes the sigma_a bias; single does not",
            {
                "(a) double sigma_a median, low end": (dbl_sa, ">=", 1.7),
                "(a) double sigma_a median, high end": (dbl_sa, "<=", 2.3),
                "(b) equal sigma_a median": (eq_sa, ">=", 2.4),
                "(c1) |single sigma_eps - 3| against |equal sigma_eps - 3|":
                    (abs(sg_se - 3.0), "<", abs(eq_se - 3.0)),
                "(c2) single sigma_a median": (sg_sa, ">=", 2.3),
            }, elapsed, 900.0)


def test_criterion_06_contraction_with_m():
    t0 = time.perf_counter()
    spreads = {}
    for m in (50, 400):
        scen = _study1_scenario(
            population=PopulationConfig(M=2000, **STUDY1_POP),
            design=TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                                  UnitDesign.SYMMETRIC_QUADRATIC, m=m, n_k=5, seed=0),
            estimators=("double_gibbs",))
        spreads[m] = run_scenario(scen).spread("double_gibbs", "sigma_a")
    ratio = spreads[400] / spreads[50]
    elapsed = time.perf_counter() - t0
    _report(6, "5-95% spread of double-weighted sigma_a contracts with m",
            {"spread ratio m=400/m=50": (ratio, "<=", 0.6)},
            elapsed, 1200.0)


def test_criterion_07_balance_condition_diagnostic():
    t0 = time.perf_counter()
    pop = generate_population(PopulationConfig(M=500, **STUDY1_POP | {"seed": BASE_SEED}))

    def balance(kind, n_k):
        design = TwoStageDesign(ClusterDesign.SRS, kind, m=10, n_k=n_k,
                                seed=BASE_SEED + n_k)
        return weighted_residual_balance(pop, design, n_replicates=200)

    srs = balance(UnitDesign.SRS, 5)
    quad5 = balance(UnitDesign.QUADRATIC, 5)
    quad20 = balance(UnitDesign.QUADRATIC, 20)
    elapsed = time.perf_counter() - t0
    _report(7, "within-cluster weighted residual balance behaves per the theory",
            {
                "SRS |mean| against 3 x SE": (abs(srs.overall_mean), "<=", 3 * srs.mc_se),
                "quadratic n_k=5 mean against 5 x SE":
                    (quad5.overall_mean, ">", 5 * quad5.mc_se),
                "|quad n_k=20 mean| against |quad n_k=5 mean|":
                    (abs(quad20.overall_mean), "<", abs(quad5.overall_mean)),
            }, elapsed, 120.0)


def test_criterion_08_asymmetric_design_pattern():
    t0 = time.perf_counter()
    scen = _study1_scenario(
        design=TwoStageDesign(ClusterDesign.LINEAR_ASYMMETRIC, UnitDesign.LINEAR,
                              m=100, n_k=10, seed=0),
        estimators=("equal_gibbs", "double_gibbs"))
    rep = run_scenario(scen)
    eq_b0 = rep.median("equal_gibbs", "b0")
    dbl_b0 = rep.median("double_gibbs", "b0")
    elapsed = time.perf_counter() - t0
    _report(8, "asymmetric designs bias b0 upward; double weighting repairs it",
            {
                "equal b0 median": (eq_b0, ">=", 1.15),
                "double b0 median, low end": (dbl_b0, ">=", 0.9),
                "double b0 median, high end": (dbl_b0, "<=", 1.1),
            }, elapsed, 900.0)


def test_criterion_09_determinism(tmp_path):
    t0 = time.perf_counter()
    scen = _study1_scenario(
        population=PopulationConfig(M=200, **STUDY1_POP),
        design=TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC,
                              UnitDesign.SYMMETRIC_QUADRATIC, m=20, n_k=5, seed=0),
        estimators=("equal_gibbs", "single_gibbs", "double_gibbs",
                    "double_integrated", "double_map"),
        R=3, chain=ChainConfig(n_draws=400, seed=0))
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        emit_plot_data([run_scenario(scen)], d)
    same_long = (dirs[0] / "estimates_long.csv").read_bytes() == \
        (dirs[1] / "estimates_long.csv").read_bytes()
    same_quant = (dirs[0] / "quantiles.csv").read_bytes() == \
        (dirs[1] / "quantiles.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    _report(9, "same base_seed reruns produce byte-identical report CSVs",
            {"estimates_long.csv identical": same_long,
             "quantiles.csv identical": same_quant}, elapsed, 300.0)


def test_criterion_10_census_reduction():
    t0 = time.perf_counter()
    pop = generate_population(PopulationConfig(
        M=500, N_h=10, mu0=1.0, sigma_a0=2.0, sigma_eps0=3.0, seed=BASE_SEED))
    sample = census_sample(pop)
    gibbs_chain = ChainConfig(n_draws=10000, seed=7)
    integrated_chain = ChainConfig(n_draws=12000, seed=7)
    means = {}
    for mode in WeightMode:
        weights = build_weights(sample, mode)
        means[f"gibbs/{mode.value}"] = run_gibbs(
            sample, weights, PriorConfig(), gibbs_chain).point_estimates()
        means[f"integrated/{mode.value}"] = run_integrated_mcmc(
            sample, weights, PriorConfig(), integrated_chain).point_estimates()
    keys = list(means)
    worst = {p: 0.0 for p in PARAMS}
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            for p in PARAMS:
                worst[p] = max(worst[p], abs(means[k1][p] - means[k2][p]))
    elapsed = time.perf_counter() - t0
    _report(10, "census: all weighting modes and both likelihood routes agree",
            {f"{p}: max pairwise diff": (d, "<=", 0.02) for p, d in worst.items()},
            elapsed, 300.0)
