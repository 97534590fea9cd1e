"""Checkable statistics behind the consistency conditions.

The balance diagnostic Monte-Carlo estimates the expected within-cluster
weighted residual mean (the quantity that must vanish for the random
effects scale to be estimable).  It builds and validates every cluster's
inclusion probabilities once, then draws replicate t of all clusters at
once through the sample draw's unit selection (``select_units``), from
the substream keyed by (seed, 4, t) where the sample draw's stage 2 uses
(seed, 2); the bounds report gives empirical
analogues of the weight/sampling-fraction bounds; the informativeness
summary pairs population and sample quantiles of the latents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .csvio import write_csv
from .design import SampleDraw, TwoStageDesign, WeightSet, select_units, unit_blocks
# Unused here; svybench/workloads.py traces these module attributes.
from .design import inclusion_probs, size_measures, systematic_pps  # noqa: F401
from .popgen import Population
from .rng import substream

QUANTS = (0.05, 0.5, 0.95)


@dataclass(frozen=True)
class BalanceReport:
    """Per-cluster weighted residual means, replicate-averaged.

    ``overall_mean`` averages ``per_cluster`` across clusters; ``mc_se``
    treats the per-cluster values as independent draws of the cluster-level
    expectation (clusters are generated and sampled independently), so it
    reflects both population and design noise.
    """

    per_cluster: np.ndarray       # (M,) replicate-averaged weighted residual means
    overall_mean: float
    mc_se: float
    sampling_fraction: np.ndarray  # (M,) f_h = n_k / N_h
    replicate_means: np.ndarray    # (T,) per-replicate cluster averages
    n_replicates: int

    def to_json(self) -> dict:
        return {
            "overall_mean": self.overall_mean,
            "mc_se": self.mc_se,
            "n_replicates": self.n_replicates,
            "n_clusters": int(len(self.per_cluster)),
            "mean_sampling_fraction": float(self.sampling_fraction.mean()),
        }


@dataclass(frozen=True)
class InformativenessSummary:
    """5/50/95% quantiles of cluster effects and noise, population vs sample."""

    design: str
    population_quantiles: dict  # {"a": (q05, q50, q95), "eps": (...)}
    sample_quantiles: dict

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundsReport:
    """Empirical versions of the design-bound constants.

    ``cluster_weight_bound`` is max_k w_k * m / M, ``unit_weight_bound`` is
    max over clusters of max_j w_{j|k} * n_k / N_k, ``cluster_fraction`` is
    m / M, flagged when below ``threshold`` (the non-consistency corner
    where the cluster sampling fraction vanishes).
    """

    cluster_weight_bound: float
    unit_weight_bound: float
    cluster_fraction: float
    threshold: float
    flagged: bool

    def to_json(self) -> dict:
        return asdict(self)


def weighted_residual_balance(population: Population, design: TwoStageDesign,
                              n_replicates: int) -> BalanceReport:
    """Monte Carlo estimate of the expected weighted residual mean.

    Within-cluster samples are drawn afresh for *every* population cluster
    (stage order reversed: the cluster stage is irrelevant to the
    statistic).  The per-cluster statistic is
    sum_j w_{j|h} eps_j / sum_j w_{j|h} with w = 1/pi.

    Each cluster's ``pi`` is built and validated once, before any draw.
    Replicate t then draws all clusters at once from the substream keyed
    by (seed, 4, t) (``select_units``); ``per_cluster[h]`` averages
    cluster h's statistic over the replicates and ``replicate_means[t]``
    averages replicate t's over the clusters.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    M = population.M
    per_cluster, stat = np.zeros(M), np.empty(M)
    rep_means = np.empty(n_replicates)
    blocks = unit_blocks(population, design.unit_kind, design.n_k, np.arange(M))
    for t in range(n_replicates):
        for block, sel in select_units(population, blocks, design.n_k,
                                       substream(design.seed, 4, t)):
            w = 1.0 / np.take_along_axis(block.pi, sel, axis=1)
            eps = population.eps0[block.starts[:, None] + sel]
            stat[block.rows] = (w * eps).sum(axis=1) / w.sum(axis=1)
        per_cluster += stat
        rep_means[t] = stat.mean()
    per_cluster /= n_replicates
    f_h = design.n_k / np.asarray(population.config.N_h, dtype=float)
    return BalanceReport(
        per_cluster=per_cluster,
        overall_mean=float(per_cluster.mean()),
        mc_se=float(per_cluster.std(ddof=1) / math.sqrt(M)),
        sampling_fraction=f_h,
        replicate_means=rep_means,
        n_replicates=n_replicates,
    )


@dataclass(frozen=True)
class WeightedREAverage:
    """Posterior draws of the weighted random-effect average sum_k w_k a_k / M_hat."""

    values: np.ndarray
    mean: float
    sd: float


def weighted_re_average(draws, weights: WeightSet) -> WeightedREAverage:
    """Per-draw weighted average of cluster effects and its posterior mean/SD.

    Requires an augmented chain (integrated chains carry no effects).
    """
    if draws.a is None:
        raise ValueError("draws carry no cluster effects (integrated-likelihood chain)")
    vals = draws.a @ np.asarray(weights.w_k) / weights.M_hat
    sd = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
    return WeightedREAverage(values=vals, mean=float(vals.mean()), sd=sd)


def informativeness_summary(population: Population, sample: SampleDraw,
                            design: str = "") -> InformativenessSummary:
    """Paired population/sample quantiles of a-values and noise values."""
    pop_a = np.quantile(population.a0, QUANTS)
    pop_eps = np.quantile(population.eps0, QUANTS)
    samp_a = np.quantile(population.a0[sample.cluster_ids], QUANTS)
    rows = np.repeat(population.offsets[sample.cluster_ids], sample.n_k) + sample.units
    samp_eps = np.quantile(population.eps0[rows], QUANTS)
    as_tuple = lambda q: tuple(float(v) for v in q)
    return InformativenessSummary(
        design=design,
        population_quantiles={"a": as_tuple(pop_a), "eps": as_tuple(pop_eps)},
        sample_quantiles={"a": as_tuple(samp_a), "eps": as_tuple(samp_eps)},
    )


def informativeness_to_csv(summaries: list[InformativenessSummary], path) -> None:
    write_csv(path, ["design", "source", "variable", "q05", "q50", "q95"],
              ([s.design, source, var, *quants[var]]
               for s in summaries
               for source, quants in (("population", s.population_quantiles),
                                      ("sample", s.sample_quantiles))
               for var in ("a", "eps")))


def bounds_report(population: Population, sample: SampleDraw, weights: WeightSet,
                  threshold: float = 0.01) -> BoundsReport:
    """Empirical weight-bound constants and the cluster sampling fraction."""
    M = population.M
    m = sample.m
    wk_bound = float(np.max(weights.w_k) * m / M)
    max_w = np.maximum.reduceat(weights.w_cond, sample.offsets[:-1])
    N_k = np.asarray(population.config.N_h)[sample.cluster_ids]
    unit_bound = float(np.max(max_w * sample.n_k / N_k))
    frac = m / M
    return BoundsReport(cluster_weight_bound=wk_bound, unit_weight_bound=unit_bound,
                        cluster_fraction=frac, threshold=threshold,
                        flagged=frac < threshold)
