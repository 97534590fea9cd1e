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
from svyanova.inference import ParamState, PriorConfig


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
    w_cond = [draw_weights(int(n)) for n in n_k]
    w_jk = [w_k[i] * w_cond[i] for i in range(m)]
    sample = SampleDraw(
        cluster_ids=np.arange(m),
        unit_ids=[np.arange(int(n)) for n in n_k],
        pi_h=np.full(m, 0.5),
        pi_l_given_h=[np.full(int(n), 0.5) for n in n_k],
        y_s=y,
    )
    weights = WeightSet(
        mode=WeightMode.DOUBLE, w_k=w_k, w_j_given_k=w_cond, w_jk=w_jk,
        N_hat_k=np.array([w.sum() for w in w_cond]),
        M_hat=float(w_k.sum()), N_hat=float(sum(w.sum() for w in w_jk)),
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
    sub_sample = SampleDraw(
        cluster_ids=np.array([0]),
        unit_ids=[np.arange(len(sample.y_s[k]))],
        pi_h=np.array([sample.pi_h[k]]),
        pi_l_given_h=[np.asarray(sample.pi_l_given_h[k])],
        y_s=[sample.y_s[k]],
    )
    sub_weights = WeightSet(
        mode=weights.mode, w_k=np.array([weights.w_k[k]]),
        w_j_given_k=[weights.w_j_given_k[k]], w_jk=[weights.w_jk[k]],
        N_hat_k=np.array([weights.w_j_given_k[k].sum()]),
        M_hat=float(weights.w_k[k]), N_hat=float(weights.w_jk[k].sum()),
    )
    return sub_sample, sub_weights


def census_sample(population) -> SampleDraw:
    """Every cluster and unit, all inclusion probabilities exactly one."""
    M = population.M
    return SampleDraw(
        cluster_ids=np.arange(M),
        unit_ids=[np.arange(population.config.N_h[h]) for h in range(M)],
        pi_h=np.ones(M),
        pi_l_given_h=[np.ones(population.config.N_h[h]) for h in range(M)],
        y_s=[population.y[h] for h in range(M)],
    )
