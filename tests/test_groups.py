"""The collapse over groups of clusters that share c_k = sw_k/w_k, against
the cluster-by-cluster reference algebra of ``helpers``."""

from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import svyanova
from svyanova.design import SampleDraw, WeightMode, build_weights, draw_two_stage_sample
from svyanova.harness import _MODE_OF, load_scenarios, replicate_configs
from svyanova.inference import PriorConfig, _collapsed, _kappa, _profile, _suffstats
from svyanova.popgen import cluster_offsets, generate_population

from helpers import reference_collapsed, reference_conditionals, reference_profile_slope

REL = 1e-12
# the ends of the x searches, and a grid across them long enough to span
# several blocks of _collapsed when every cluster is its own group
X_ENDS = np.array([-700.0, 0.0, 700.0])
X_GRID = np.linspace(-700.0, 700.0, 1001)


@st.composite
def fits(draw):
    """Sums of one fit: up to 40 clusters of 1-7 units, random inclusion
    probabilities, any weight mode, normalized (c_k = n_k up to rounding,
    so a few groups, some of one cluster) or raw (every cluster its own
    group)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 40))
    n_k = rng.integers(1, 8, size=m)
    offsets = cluster_offsets(n_k)
    n = int(offsets[-1])
    y = rng.normal(draw(st.floats(-1e3, 1e3)), draw(st.floats(0.01, 10.0)), size=n)
    sample = SampleDraw(cluster_ids=np.arange(m), offsets=offsets,
                        units=np.concatenate([np.arange(k) for k in n_k]),
                        pi_h=rng.uniform(0.02, 1.0, size=m),
                        pi_cond=rng.uniform(0.02, 1.0, size=n), y=y)
    weights = build_weights(sample, draw(st.sampled_from(list(WeightMode))),
                            normalize=draw(st.booleans()))
    prior = PriorConfig(*(float(v) for v in rng.uniform(0.05, 2.0, size=4)))
    return _suffstats(sample, weights), prior


def _assert_close(got, want, scale):
    assert np.all(np.abs(np.asarray(got) - want) <= REL * np.asarray(scale))


class TestGroupedCollapse:
    @given(fit=fits(), x=st.floats(-700.0, 700.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_cluster_by_cluster(self, fit, x):
        stats, prior = fit
        xs = np.concatenate([X_ENDS, [x], X_GRID])
        logp, mu, q, b = _collapsed(stats, prior, xs)
        want_logp, want_mu, want_q, want_b = reference_collapsed(stats, prior, xs)
        _assert_close(q, want_q, want_q)
        _assert_close(b, want_b, want_b)
        # mu* is a weighted mean of the cluster means, which bound its scale
        _assert_close(mu, want_mu, np.abs(stats.ybar).max())
        # log p is a sum of four terms; its rounding scales with their sizes
        u_sw = reference_conditionals(stats, prior, xs)[0]
        terms = (np.abs(0.5 * np.log(u_sw).sum(axis=1))
                 + np.abs((0.5 * stats.w_k_tot + prior.alpha1) * xs)
                 + np.abs(0.5 * np.log(want_q))
                 + np.abs((_kappa(stats, prior) + 1.5) * np.log(want_b)))
        _assert_close(logp, want_logp, terms)
        _, draw_mu, draw_q, draw_b = _collapsed(stats, prior, xs, density=False)
        assert np.array_equal(draw_mu, mu) and np.array_equal(draw_q, q)
        assert np.array_equal(draw_b, b)

    @given(fit=fits(), x=st.floats(-700.0, 700.0))
    @settings(max_examples=200, deadline=None)
    def test_profile_slope_matches_cluster_by_cluster(self, fit, x):
        stats, prior = fit
        kappa = _kappa(stats, prior)
        assume(kappa > 0)
        xs = np.array([x, *X_ENDS])
        _, _, slope = _profile(stats, prior, kappa, xs)
        want = np.array([reference_profile_slope(stats, prior, v) for v in xs.tolist()])
        # the slope is a difference of two terms, each within W + m + 2 alpha1
        # + 2 plus the slope itself
        scale = stats.w_k_tot + stats.m + 2.0 * prior.alpha1 + 2.0 + np.abs(want)
        _assert_close(slope, want, scale)

    @given(fit=fits())
    @settings(max_examples=50, deadline=None)
    def test_groups_partition_the_clusters(self, fit):
        stats, _ = fit
        groups = stats.groups
        c = stats.sw / stats.w_k
        assert np.array_equal(groups.c, np.unique(c))
        assert groups.n.sum() == stats.m
        _assert_close(groups.s.sum(), stats.sw_tot, stats.sw_tot)
        assert (groups.spread >= 0).all()


def test_normalized_desk_fits_have_few_groups():
    # normalized weights make c_k = sum_j w_{j|k} = n_k up to rounding: on
    # every replicate and weight mode of both bundled desk grids the
    # clusters fall into at most 8 groups, where m is 50 to 800
    scenarios = Path(svyanova.__file__).parent / "scenarios"
    sizes = set()
    for study in ("paper-study1", "paper-study2"):
        for scen in load_scenarios(scenarios / f"{study}.cfg", desk=True):
            assert scen.normalize_weights
            for r in range(1, scen.R + 1):
                pop_cfg, design = replicate_configs(scen, r)
                sample = draw_two_stage_sample(generate_population(pop_cfg), design)
                for mode in {_MODE_OF[e] for e in scen.estimators}:
                    stats = _suffstats(sample, build_weights(sample, mode))
                    sizes.add(len(stats.groups.c))
                    assert len(stats.groups.c) <= 8, (scen.scenario_id, r, mode)
    assert max(sizes) > 1
