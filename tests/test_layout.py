"""Properties of the flat sample layout on edge designs.

Each per-unit quantity is stored once, flat in cluster order, with cluster
offsets; the per-cluster views, the per-cluster sums and the sample CSV
must all agree with that one representation, including on census samples,
a single cluster, fully sampled clusters (every pi capped at 1), unequal
cluster sizes and every weight mode.  The row-wise draw itself equals the
per-cluster reference draw bit for bit.  Every estimator run on such a sample
gives finite values or a PosteriorError, and a harness replicate on such a
design gives finite cells or NaN cells whose error is reported.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from svyanova.design import (ClusterDesign, TwoStageDesign, UnitDesign, WeightMode,
                             build_weights, draw_two_stage_sample, sample_from_csv,
                             sample_to_csv)
from svyanova.errors import PosteriorError
from svyanova.harness import ESTIMATORS, Scenario, run_scenario
from svyanova.inference import (ChainConfig, PriorConfig, _suffstats, map_estimate,
                                posterior_means, run_gibbs, run_integrated_mcmc)
from svyanova.popgen import PopulationConfig, generate_population

from helpers import reference_two_stage_sample


@st.composite
def edge_designs(draw):
    M = draw(st.integers(1, 6))
    N_h = tuple(draw(st.lists(st.integers(1, 6), min_size=M, max_size=M)))
    return dict(M=M, N_h=N_h, m=draw(st.integers(1, M)), n_k=draw(st.integers(1, min(N_h))),
                cluster=draw(st.sampled_from(ClusterDesign)),
                unit=draw(st.sampled_from(UnitDesign)),
                mode=draw(st.sampled_from(WeightMode)), normalize=draw(st.booleans()),
                seed=draw(st.integers(0, 2**32 - 1)))


def _edge(**kw):
    base = dict(cluster=ClusterDesign.QUADRATIC_SYMMETRIC, unit=UnitDesign.QUADRATIC,
                mode=WeightMode.DOUBLE, normalize=True, seed=5)
    return base | kw


def _draw(spec):
    pop = generate_population(PopulationConfig(
        M=spec["M"], N_h=spec["N_h"], mu0=1.0, sigma_a0=2.0, sigma_eps0=3.0,
        seed=spec["seed"]))
    design = TwoStageDesign(spec["cluster"], spec["unit"], m=spec["m"], n_k=spec["n_k"],
                            seed=spec["seed"] + 1)
    sample = draw_two_stage_sample(pop, design)
    return pop, sample, build_weights(sample, spec["mode"], normalize=spec["normalize"])


EDGE_EXAMPLES = [
    _edge(M=3, N_h=(4, 4, 4), m=3, n_k=4),                          # census
    _edge(M=4, N_h=(5, 2, 6, 3), m=1, n_k=2, mode=WeightMode.SINGLE),  # m = 1
    _edge(M=1, N_h=(1,), m=1, n_k=1, mode=WeightMode.EQUAL),        # one unit
    _edge(M=3, N_h=(3, 6, 4), m=3, n_k=3, normalize=False),         # n_k = N_h in cluster 0
    _edge(M=5, N_h=(6, 6, 6, 6, 6), m=4, n_k=5,                     # heavy capping
          unit=UnitDesign.SYMMETRIC_QUADRATIC),
    _edge(M=4, N_h=(3, 5, 2, 6), m=3, n_k=1, unit=UnitDesign.LINEAR),  # n_k = 1
]


def _with_examples(test):
    for spec in EDGE_EXAMPLES:
        test = example(spec=spec)(test)
    return test


@_with_examples
@given(spec=edge_designs())
@settings(max_examples=60, deadline=None)
def test_views_reassemble_flat_arrays(spec):
    pop, sample, weights = _draw(spec)
    assert np.all(sample.n_k == spec["n_k"])
    for views, flat in ((sample.unit_ids, sample.units), (sample.y_s, sample.y),
                        (sample.pi_l_given_h, sample.pi_cond),
                        (sample.selected_unit_probs(), sample.pi_cond),
                        (weights.w_j_given_k, weights.w_cond), (weights.w_jk, weights.w_marg)):
        assert len(views) == sample.m
        assert all(np.shares_memory(v, flat) for v in views)
        np.testing.assert_array_equal(np.concatenate(views), flat)
    for k, units, y in zip(sample.cluster_ids, sample.unit_ids, sample.y_s):
        assert np.all(np.diff(units) > 0)
        np.testing.assert_array_equal(y, pop.y[pop.offsets[k] + units])


def _assert_same_sample(pop, design):
    got, want = draw_two_stage_sample(pop, design), reference_two_stage_sample(pop, design)
    for name in ("cluster_ids", "offsets", "units", "pi_h", "pi_cond", "y"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@_with_examples
@given(spec=edge_designs())
@settings(max_examples=100, deadline=None)
def test_draw_equals_per_cluster_reference(spec):
    pop, _, _ = _draw(spec)
    _assert_same_sample(pop, TwoStageDesign(spec["cluster"], spec["unit"], m=spec["m"],
                                            n_k=spec["n_k"], seed=spec["seed"] + 1))


@pytest.mark.parametrize("unit", list(UnitDesign))
@pytest.mark.parametrize("m, n_k", [(9, 4), (1, 1), (9, 1), (4, 3)])
def test_draw_equals_per_cluster_reference_each_unit_design(unit, m, n_k):
    # unequal N_h, with n_k = N_h in cluster 1 (every pi capped at 1) at
    # n_k = 4, capping within larger clusters, census and single clusters
    pop = generate_population(PopulationConfig(
        M=9, N_h=(7, 4, 12, 5, 9, 40, 6, 11, 4), mu0=1.0, sigma_a0=2.0, sigma_eps0=3.0,
        seed=23))
    for seed in range(5):
        _assert_same_sample(pop, TwoStageDesign(ClusterDesign.QUADRATIC_SYMMETRIC, unit,
                                                m=m, n_k=n_k, seed=seed))


@_with_examples
@given(spec=edge_designs())
@settings(max_examples=60, deadline=None)
def test_suffstats_match_per_unit_sums(spec):
    _, sample, weights = _draw(spec)
    stats = _suffstats(sample, weights)
    w, y = weights.w_marg.tolist(), sample.y.tolist()
    center = math.fsum(wi * yi for wi, yi in zip(w, y)) / math.fsum(w)
    assert stats.center == pytest.approx(center, rel=1e-12, abs=1e-12)
    np.testing.assert_array_equal(stats.w_k, weights.w_k)
    np.testing.assert_array_equal(stats.n_k, sample.n_k)
    for k, (lo, hi) in enumerate(zip(sample.offsets[:-1], sample.offsets[1:])):
        for got, terms in ((stats.sw[k], [w[j] for j in range(lo, hi)]),
                           (stats.swy[k], [w[j] * (y[j] - stats.center) for j in range(lo, hi)])):
            scale = math.fsum(abs(t) for t in terms)
            assert abs(got - math.fsum(terms)) <= 1e-12 * scale
    # the within-cluster sum of squares, per unit about each cluster mean
    yc = [v - stats.center for v in y]
    within, total = [], []
    for lo, hi in zip(sample.offsets[:-1], sample.offsets[1:]):
        units = range(lo, hi)
        ybar = math.fsum(w[j] * yc[j] for j in units) / math.fsum(w[j] for j in units)
        within += [w[j] * (yc[j] - ybar) ** 2 for j in units]
        total += [w[j] * yc[j] ** 2 for j in units]
    assert abs(stats.wss - math.fsum(within)) <= 1e-12 * math.fsum(total)


@_with_examples
@given(spec=edge_designs())
@settings(max_examples=60, deadline=None)
def test_csv_round_trip_rebuilds_weights_bit_for_bit(spec, tmp_path_factory):
    _, sample, weights = _draw(spec)
    path = tmp_path_factory.getbasetemp() / "edge-sample.csv"
    sample_to_csv(sample, weights, path)
    loaded = sample_from_csv(path)
    np.testing.assert_array_equal(loaded.offsets, sample.offsets)
    np.testing.assert_array_equal(loaded.pi_h, sample.cluster_probs())
    np.testing.assert_array_equal(loaded.pi_cond, sample.pi_cond)
    np.testing.assert_array_equal(loaded.y, sample.y)
    again = build_weights(loaded, spec["mode"], normalize=spec["normalize"])
    assert again.M_hat == weights.M_hat
    for got, want in ((again.w_k, weights.w_k), (again.w_cond, weights.w_cond),
                      (again.w_marg, weights.w_marg)):
        np.testing.assert_array_equal(got, want)


@_with_examples
@given(spec=edge_designs())
@settings(max_examples=100, deadline=None)
def test_every_estimator_is_finite_or_a_posterior_error(spec):
    # m = 1, unnormalized weights, single-unit clusters (where the
    # moment-based start has no within-cluster spread) and n_k = N_h
    _, sample, weights = _draw(spec)
    prior, chain = PriorConfig(), ChainConfig(n_draws=20, seed=spec["seed"])

    def draws(runner):
        d = runner(sample, weights, prior, chain)
        return [d.mu, d.tau_a, d.tau_eps, *(() if d.a is None else (d.a,))]

    def mode():
        theta, loglik, _ = map_estimate(sample, weights, prior)
        return [theta.mu, theta.tau_a, theta.tau_eps, loglik]

    fits = {"run_gibbs": lambda: draws(run_gibbs),
            "run_integrated_mcmc": lambda: draws(run_integrated_mcmc),
            "posterior_means": lambda: list(posterior_means(sample, weights, prior).values()),
            "map_estimate": mode}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, fit in fits.items():
            try:
                values = fit()
            except PosteriorError:
                continue
            assert all(np.isfinite(v).all() for v in values), name


@_with_examples
@given(spec=edge_designs())
@settings(max_examples=100, deadline=None)
def test_harness_replicate_is_finite_or_a_reported_failure(spec):
    # the whole replicate: population, sample, every weight mode and all
    # five estimators, as simulate runs it
    scenario = Scenario(
        scenario_id="edge",
        population=PopulationConfig(M=spec["M"], N_h=spec["N_h"], mu0=1.0, sigma_a0=2.0,
                                    sigma_eps0=3.0, seed=0),
        design=TwoStageDesign(spec["cluster"], spec["unit"], m=spec["m"], n_k=spec["n_k"],
                              seed=0),
        estimators=ESTIMATORS, R=1, base_seed=spec["seed"],
        chain=ChainConfig(n_draws=20), normalize_weights=spec["normalize"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scenario(scenario)
    failures = report.failures[0]
    assert set(failures) <= set(ESTIMATORS)
    for (est, p), values in report.estimates.items():
        if est in failures:
            assert np.isnan(values).all(), (est, p)
            assert failures[est].startswith("PosteriorError: "), failures[est]
        else:
            assert np.isfinite(values).all(), (est, p)
