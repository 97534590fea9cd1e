"""Shared builders and independent oracles for the test suite.

The oracles here (quadrature, grid integration, nested-sum likelihood
forms) deliberately avoid the closed forms they check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from svyanova.design import SampleDraw, WeightMode, WeightSet
from svyanova.inference import (DrawsMatrix, ParamState, PriorConfig, _auto_init, _cond_a,
                                _cond_mu, _cond_tau_a, _cond_tau_eps, _suffstats)
from svyanova.popgen import cluster_offsets
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


def reference_scan(sample, weights, prior: PriorConfig, chain) -> DrawsMatrix:
    """Centred Gibbs scan over (a_1..a_m | ...), (mu | ...), (tau_a | ...),
    (tau_eps | ...) from the moment-based start, each update drawn from the
    full conditional that the ``fc_*`` views return.  It shares no code with
    the collapsed draws, so it checks them independently; it mixes slowly
    where the weights span decades."""
    stats = _suffstats(sample, weights)
    rng = substream(chain.seed)
    mu, tau_a, tau_eps = _auto_init(stats)
    its = np.arange(chain.n_burnin, chain.n_iterations, chain.thin)
    kept = np.empty((len(its), 3))
    for it in range(chain.n_iterations):
        h, phi = _cond_a(stats, mu, tau_a, tau_eps)
        a = h + rng.standard_normal(stats.m) / np.sqrt(phi)
        mean, prec = _cond_mu(stats, a, tau_eps)
        mu = mean + rng.standard_normal() / math.sqrt(prec)
        shape, rate = _cond_tau_a(stats, a, prior)
        tau_a = rng.gamma(shape, 1.0 / rate)
        shape, rate = _cond_tau_eps(stats, mu, a, prior)
        tau_eps = rng.gamma(shape, 1.0 / rate)
        if it >= chain.n_burnin and (it - chain.n_burnin) % chain.thin == 0:
            kept[(it - chain.n_burnin) // chain.thin] = mu, tau_a, tau_eps
    mus, tas, tes = kept.T.copy()
    return DrawsMatrix(mu=mus + stats.center, tau_a=tas, tau_eps=tes, iterations=its)


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
