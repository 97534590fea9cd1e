"""Shared builders and independent oracles for the test suite.

The oracles here (quadrature, grid integration, nested-sum likelihood
forms) deliberately avoid the closed forms they check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from svyanova.design import (SampleDraw, TwoStageDesign, WeightMode, WeightSet,
                             inclusion_probs, size_measures, systematic_pps)
from svyanova.inference import (DrawsMatrix, ParamState, PriorConfig, _auto_init, _cond_a,
                                _cond_mu, _cond_tau_a, _cond_tau_eps, _kappa, _suffstats)
from svyanova.popgen import Population, cluster_offsets
from svyanova.rng import substream


def make_instance(seed: int, m_max: int = 5, nk_max: int = 4, w_range=(1.0, 5.0),
                  log_weights: bool = False):
    """Random small estimation instance: sample, double-mode weights, params.

    Cluster and conditional weights are uniform on ``w_range``, or
    log-uniform with ``log_weights`` so that they span its decades.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, m_max + 1))
    n_k = rng.integers(1, nk_max + 1, size=m)
    y = [rng.normal(0.0, 2.0, size=int(n)) for n in n_k]

    def draw_weights(size):
        if log_weights:
            return np.exp(rng.uniform(*np.log(w_range), size=size))
        return rng.uniform(*w_range, size=size)

    w_k = draw_weights(m)
    w_cond = np.concatenate([draw_weights(int(n)) for n in n_k])
    offsets = cluster_offsets(n_k)
    sample = SampleDraw(
        cluster_ids=np.arange(m), offsets=offsets,
        units=np.concatenate([np.arange(int(n)) for n in n_k]),
        pi_h=np.full(m, 0.5), pi_cond=np.full(offsets[-1], 0.5),
        y=np.concatenate(y),
    )
    weights = WeightSet(
        mode=WeightMode.DOUBLE, w_k=w_k, offsets=offsets, w_cond=w_cond,
        w_marg=np.repeat(w_k, n_k) * w_cond, M_hat=float(w_k.sum()),
    )
    state = ParamState(
        mu=float(rng.normal(0.0, 1.0)),
        tau_a=float(rng.uniform(0.2, 3.0)),
        tau_eps=float(rng.uniform(0.2, 3.0)),
        a=rng.normal(0.0, 1.0, size=m),
    )
    prior = PriorConfig(*(float(v) for v in rng.uniform(0.5, 2.0, size=4)))
    return sample, weights, state, prior


# Seeds 0-19 are the default small instances; the named edge instances add
# single-unit single-cluster samples, cluster and unit weights spanning
# 0.01-1000, and up to 20 clusters of up to 20 units.
CASES = [pytest.param({"seed": s}, id=str(s)) for s in range(20)] + [
    pytest.param({"seed": s, **kw}, id=f"{name}-{s}")
    for name, kw in (("m1-single-unit", {"m_max": 1, "nk_max": 1}),
                     ("weights-1e-2-1e3", {"w_range": (0.01, 1000.0), "log_weights": True}),
                     ("m20-nk20", {"m_max": 20, "nk_max": 20}))
    for s in range(4)]


def geyer_ess(x) -> float:
    """Effective sample size by Geyer's initial monotone sequence estimator
    (Geyer 1992, Stat. Sci. 7:473): tau = -1 + 2 sum_k Gamma_k with
    Gamma_k = rho_2k + rho_2k+1, summed before the first non-positive
    Gamma_k and each lowered to the minimum of those before it; ESS = n/tau.
    A constant chain gets 0."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4 or not np.isfinite(x).all():
        raise ValueError("ESS needs at least 4 finite draws")
    if np.ptp(x) == 0.0:
        return 0.0
    xc = x - x.mean()
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f), 2 * n)[:n]
    pairs = (acov / acov[0])[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpos = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: nonpos[0]] if nonpos.size else pairs
    return n / (-1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum()))


def mcse(x) -> float:
    """Monte Carlo standard error of the mean of a chain: sd/sqrt(ESS)."""
    return float(np.std(x, ddof=1)) / math.sqrt(geyer_ess(x))


def reference_scan(sample, weights, prior: PriorConfig, n_sweeps: int, n_burnin: int,
                   seed: int) -> DrawsMatrix:
    """Centred Gibbs scan over (a_1..a_m | ...), (mu | ...), (tau_a | ...),
    (tau_eps | ...) from the moment-based start, each update drawn from the
    full conditional that the ``fc_*`` views return; the states after the
    first ``n_burnin`` of ``n_sweeps`` sweeps are kept.  It shares no code
    with the collapsed draws, so it checks them independently; it mixes
    slowly where the weights span decades."""
    stats = _suffstats(sample, weights)
    rng = substream(seed)
    mu, tau_a, tau_eps = _auto_init(stats)
    kept = np.empty((n_sweeps - n_burnin, 3))
    for it in range(n_sweeps):
        h, phi = _cond_a(stats, mu, tau_a, tau_eps)
        a = h + rng.standard_normal(stats.m) / np.sqrt(phi)
        mean, prec = _cond_mu(stats, a, tau_eps)
        mu = mean + rng.standard_normal() / math.sqrt(prec)
        shape, rate = _cond_tau_a(stats, a, prior)
        tau_a = rng.gamma(shape, 1.0 / rate)
        shape, rate = _cond_tau_eps(stats, mu, a, prior)
        tau_eps = rng.gamma(shape, 1.0 / rate)
        if it >= n_burnin:
            kept[it - n_burnin] = mu, tau_a, tau_eps
    mus, tas, tes = kept.T.copy()
    return DrawsMatrix(mu=mus + stats.center, tau_a=tas, tau_eps=tes)


def reference_conditionals(stats, prior: PriorConfig, xs: np.ndarray):
    """The collapse's per-ratio algebra cluster by cluster: (u_k sw_k, mu*,
    Q, B) at each x in ``xs``, with one row of u_k sw_k per x.  The grouped
    ``inference._conditionals`` sums the same terms per group of clusters
    that share c_k = sw_k/w_k, so the two agree to rounding."""
    r = np.exp(xs)
    u_sw = stats.sw / np.add.outer(r, stats.sw / stats.w_k)
    u_tot = u_sw.sum(axis=1)
    mu = (u_sw @ stats.ybar) / u_tot
    dev2 = np.subtract.outer(mu, stats.ybar) ** 2
    b = 0.5 * (stats.wss + r * (u_sw * dev2).sum(axis=1)) + prior.beta1 * r + prior.beta2
    return u_sw, mu, r * u_tot, b


def reference_collapsed(stats, prior: PriorConfig, xs, density: bool = True):
    """``inference._collapsed`` over ``reference_conditionals``, in one block;
    a drop-in replacement for it."""
    xs = np.asarray(xs, dtype=float)
    u_sw, mu, q, b = reference_conditionals(stats, prior, xs)
    if not density:
        return None, mu, q, b
    logp = (0.5 * np.log(u_sw).sum(axis=1) + (0.5 * stats.w_k_tot + prior.alpha1) * xs
            - 0.5 * np.log(q) - (_kappa(stats, prior) + 1.5) * np.log(b))
    return logp, mu, q, b


def reference_profile_slope(stats, prior: PriorConfig, x: float) -> float:
    """Slope in log r of the MAP's profile log posterior, cluster by cluster,
    with s_k = sw_k/d_k."""
    u_sw, mu, _, b = reference_conditionals(stats, prior, np.array([x]))
    u_sw, mu, b = u_sw[0], float(mu[0]), float(b[0])
    s_k = u_sw / stats.w_k
    dev2 = (stats.ybar - mu) ** 2
    return (0.5 * (stats.w_k_tot - stats.m + float(s_k.sum())) + prior.alpha1 - 1.0
            - _kappa(stats, prior) * math.exp(x)
            * (0.5 * float((u_sw * s_k) @ dev2) + prior.beta1) / b)


def cluster_logintegrand(y, w_jk, w_k, mu, tau_a, tau_eps):
    """Log of one cluster's weighted augmented integrand as a function of a."""

    def g(a: float) -> float:
        unit = np.sum(w_jk * (0.5 * math.log(tau_eps) - 0.5 * math.log(2 * math.pi)
                              - 0.5 * tau_eps * (y - mu - a) ** 2))
        prior = w_k * (0.5 * math.log(tau_a) - 0.5 * math.log(2 * math.pi)
                       - 0.5 * tau_a * a ** 2)
        return float(unit + prior)

    return g


def quad_cluster_logintegral(y, w_jk, w_k, mu, tau_a, tau_eps) -> float:
    """log integral over a of the weighted augmented integrand, by adaptive
    quadrature after factoring out the value at the analytic mode."""
    g = cluster_logintegrand(y, w_jk, w_k, mu, tau_a, tau_eps)
    phi = tau_eps * np.sum(w_jk) + tau_a * w_k
    h = tau_eps * np.sum(w_jk * (y - mu)) / phi
    g0 = g(h)
    val, _ = quad(lambda a: math.exp(g(a) - g0), -np.inf, np.inf,
                  epsabs=1e-13, epsrel=1e-11, limit=200)
    return g0 + math.log(val)


def single_cluster_instance(sample, weights, k: int):
    """Restrict an instance to cluster k (for per-cluster comparisons)."""
    units = slice(sample.offsets[k], sample.offsets[k + 1])
    offsets = np.array([0, sample.n_k[k]])
    sub_sample = SampleDraw(
        cluster_ids=np.array([0]), offsets=offsets, units=np.arange(sample.n_k[k]),
        pi_h=np.array([sample.pi_h[k]]), pi_cond=sample.pi_cond[units], y=sample.y[units],
    )
    sub_weights = WeightSet(
        mode=weights.mode, w_k=np.array([weights.w_k[k]]), offsets=offsets,
        w_cond=weights.w_cond[units], w_marg=weights.w_marg[units],
        M_hat=float(weights.w_k[k]),
    )
    return sub_sample, sub_weights


def census_sample(population) -> SampleDraw:
    """Every cluster and unit, all inclusion probabilities exactly one."""
    M, N = population.M, population.N
    return SampleDraw(
        cluster_ids=np.arange(M), offsets=population.offsets,
        units=np.arange(N) - np.repeat(population.offsets[:-1], population.config.N_h),
        pi_h=np.ones(M), pi_cond=np.ones(N), y=population.y,
    )


def reference_two_stage_sample(population: Population, design: TwoStageDesign) -> SampleDraw:
    """The two-stage draw cluster by cluster.  Stage 2 draws from the
    substream keyed by (seed, 2) one uniform key per population unit, then
    one start point per population cluster; selected cluster k takes
    ``inclusion_probs`` of its unit size measures, orders them by the
    stable argsort of its own keys and selects systematically from start
    point ``u[k]``.  It shares no stage-2 arithmetic with
    ``draw_two_stage_sample``'s row-wise kernel, so it checks that kernel
    independently; the two must agree bit for bit."""
    pi_h = inclusion_probs(size_measures(population, design.cluster_kind), design.m)
    cluster_ids = systematic_pps(pi_h, substream(design.seed, 1))
    rng = substream(design.seed, 2)
    keys, u = rng.random(population.N), rng.random(population.M)
    units, pi_cond = [], []
    for k in cluster_ids:
        pi_u = inclusion_probs(size_measures(population, design.unit_kind, cluster=k), design.n_k)
        order = np.argsort(keys[population.offsets[k]:population.offsets[k + 1]], kind="stable")
        cum = pi_u[order].cumsum()
        pos = cum.searchsorted(u[k] + np.arange(design.n_k), side="right")
        sel = np.sort(order[np.minimum(pos, pi_u.size - 1)])
        units.append(sel)
        pi_cond.append(pi_u[sel])
    units = np.concatenate(units)
    rows = np.repeat(population.offsets[cluster_ids], design.n_k) + units
    return SampleDraw(cluster_ids=cluster_ids, offsets=design.n_k * np.arange(len(cluster_ids) + 1),
                      units=units, pi_h=pi_h, pi_cond=np.concatenate(pi_cond),
                      y=population.y[rows])
