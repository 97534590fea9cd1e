"""Two-stage informative sampling designs and survey weights.

Stage 1 selects clusters, stage 2 selects units within each selected
cluster, both by randomized-order systematic PPS.  Size measures are
functions of the population latents (cluster effects for stage 1, unit
noise for stage 2), which is what makes the designs informative.
Population constants in the size formulas (the noise minimum of the
linear unit designs) are computed once per population, so drawing from
each selected cluster costs O(N_h).  Weights invert the realized
inclusion probabilities and are optionally normalized so the
pseudo-likelihood's effective sample size equals the realized sample
size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .csvio import write_csv
from .errors import DesignError
from .popgen import Population
from .rng import substream

_SUM_TOL = 1e-9


class ClusterDesign(str, Enum):
    """Cluster (stage 1) size measures."""

    QUADRATIC_SYMMETRIC = "quadratic_symmetric"   # a^2 + 1
    LINEAR_ASYMMETRIC = "linear_asymmetric"       # a - min(a) + 1
    SRS = "srs"                                   # 1


class UnitDesign(str, Enum):
    """Unit (stage 2) size measures, applied within a cluster."""

    QUADRATIC = "quadratic"                       # max(0, eps)^2 + 1
    WEAK_QUADRATIC = "weak_quadratic"             # 0.3 * max(0, eps)^2 + 1
    LINEAR = "linear"                             # eps - min(eps) + 1
    WEAK_LINEAR = "weak_linear"                   # 0.3 * (eps - min(eps)) + 1
    SYMMETRIC_QUADRATIC = "symmetric_quadratic"   # eps^2 + 1
    SRS = "srs"                                   # 1


class WeightMode(str, Enum):
    EQUAL = "equal"
    SINGLE = "single"
    DOUBLE = "double"


@dataclass(frozen=True)
class TwoStageDesign:
    cluster_kind: ClusterDesign
    unit_kind: UnitDesign
    m: int
    n_k: int
    seed: int


@dataclass(frozen=True)
class SampleDraw:
    """One realized two-stage sample.

    ``pi_h`` covers all M population clusters (diagnostics expand sample
    sums to population sums); ``pi_l_given_h[i]`` is the full conditional
    inclusion vector over the units of selected cluster ``cluster_ids[i]``.
    ``unit_ids[i]`` indexes into that cluster's units, strictly increasing.
    """

    cluster_ids: np.ndarray        # (m,) strictly increasing population indices
    unit_ids: list[np.ndarray]     # per selected cluster, strictly increasing
    pi_h: np.ndarray               # (M,) marginal cluster inclusion probabilities
    pi_l_given_h: list[np.ndarray]  # per selected cluster, length N_k
    y_s: list[np.ndarray]          # sampled responses per selected cluster

    @property
    def m(self) -> int:
        return len(self.cluster_ids)

    @property
    def n_total(self) -> int:
        return sum(len(ids) for ids in self.unit_ids)

    def cluster_probs(self) -> np.ndarray:
        """pi_k for the selected clusters."""
        return self.pi_h[self.cluster_ids]

    def selected_unit_probs(self) -> list[np.ndarray]:
        """pi_{j|k} at the sampled units of each selected cluster."""
        return [self.pi_l_given_h[i][self.unit_ids[i]] for i in range(self.m)]


@dataclass(frozen=True)
class WeightSet:
    """Cluster, conditional, and marginal weights plus their aggregates."""

    mode: WeightMode
    w_k: np.ndarray                # (m,) cluster weights
    w_j_given_k: list[np.ndarray]  # per cluster, conditional unit weights
    w_jk: list[np.ndarray]         # per cluster, marginal unit weights
    N_hat_k: np.ndarray            # per cluster, sum_j w_{j|k}
    M_hat: float                   # sum_k w_k
    N_hat: float                   # sum_{jk} w_jk
    normalization: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.w_k)


def size_measures(population: Population, kind, cluster: int | None = None) -> np.ndarray:
    """Positive size measures per the named design formula.

    Cluster kinds operate on the population's ``a0`` vector; unit kinds
    require ``cluster`` and operate on that cluster's ``eps0``.  The
    ``min`` in the linear formulas is taken over the full population
    (all clusters' effects, respectively all units' noise values), so the
    offset is a population constant; the unit one is ``population.eps_min``,
    computed once when the population is built, so a per-cluster call costs
    O(N_h), not O(N).
    """
    if isinstance(kind, ClusterDesign):
        a = population.a0
        if kind is ClusterDesign.QUADRATIC_SYMMETRIC:
            return a ** 2 + 1.0
        if kind is ClusterDesign.LINEAR_ASYMMETRIC:
            return a - a.min() + 1.0
        return np.ones_like(a)
    if not isinstance(kind, UnitDesign):
        raise DesignError(f"unknown design kind: {kind!r}")
    if cluster is None:
        raise DesignError("unit size measures require a cluster index")
    eps = population.eps0[cluster]
    if kind is UnitDesign.QUADRATIC:
        return np.maximum(0.0, eps) ** 2 + 1.0
    if kind is UnitDesign.WEAK_QUADRATIC:
        return 0.3 * np.maximum(0.0, eps) ** 2 + 1.0
    if kind is UnitDesign.LINEAR:
        return eps - population.eps_min + 1.0
    if kind is UnitDesign.WEAK_LINEAR:
        return 0.3 * (eps - population.eps_min) + 1.0
    if kind is UnitDesign.SYMMETRIC_QUADRATIC:
        return eps ** 2 + 1.0
    return np.ones_like(eps)


def inclusion_probs(sizes: np.ndarray, n: int) -> np.ndarray:
    """Proportional-to-size inclusion probabilities with iterative capping.

    Starts from ``pi_i = n * s_i / sum(s)``; any ``pi_i > 1`` is capped at 1
    and the remaining budget is redistributed proportionally among uncapped
    elements until all probabilities are <= 1.  The result sums to ``n``.
    """
    sizes = np.asarray(sizes, dtype=float)
    if n < 1 or n > sizes.size:
        raise DesignError(f"cannot select n={n} from {sizes.size} elements")
    if np.any(sizes <= 0):
        raise DesignError("size measures must be positive")
    pi = np.zeros(sizes.size)
    capped = np.zeros(sizes.size, dtype=bool)
    while True:
        free = ~capped
        budget = n - int(capped.sum())
        pi[free] = budget * sizes[free] / sizes[free].sum() if budget > 0 else 0.0
        over = free & (pi > 1.0)
        if not over.any():
            break
        pi[over] = 1.0
        capped |= over
    return pi


def pps_sample_size(pi: np.ndarray) -> int:
    """Validate inclusion probabilities for systematic PPS; return n = sum(pi).

    Raises DesignError unless every ``pi`` lies in [0, 1] and the sum is an
    integer (within 1e-9).
    """
    total = float(pi.sum())
    n = int(round(total))
    if abs(total - n) > _SUM_TOL:
        raise DesignError(f"inclusion probabilities sum to {total}, not an integer")
    if np.any(pi < 0) or np.any(pi > 1.0 + 1e-12):
        raise DesignError("inclusion probabilities must lie in [0, 1]")
    return n


def systematic_pps(pi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomized-order systematic PPS selection.

    Indices are randomly permuted, cumulative sums of ``pi`` are formed
    over the permuted order, and every index whose interval contains
    ``u + t`` for ``t = 0..n-1`` (``u ~ Uniform(0,1)``) is selected.  A
    point landing exactly on an interval boundary goes to the interval on
    the right.  Returns exactly ``n = sum(pi)`` distinct indices, sorted.
    ``pi`` is validated by ``pps_sample_size`` first; a caller drawing
    repeatedly from one ``pi`` validates once and calls ``select_pps``.
    """
    pi = np.asarray(pi, dtype=float)
    return select_pps(pi, pps_sample_size(pi), rng)


def select_pps(pi: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """The selection step of ``systematic_pps`` on an already validated
    float array ``pi`` with ``n = pps_sample_size(pi)``; draws the same
    random numbers in the same order."""
    perm = rng.permutation(pi.size)
    cum = pi[perm].cumsum()
    points = rng.uniform() + np.arange(n)
    pos = np.minimum(cum.searchsorted(points, side="right"), pi.size - 1)
    sel = perm[pos]
    sel.sort()
    return sel


def draw_two_stage_sample(population: Population, design: TwoStageDesign) -> SampleDraw:
    """Draw clusters then units, each by capped-PPS + systematic selection.

    Stage 2 runs independently per selected cluster on an RNG substream
    keyed by the population cluster id, so per-cluster draws do not depend
    on which other clusters were selected.
    """
    if not 1 <= design.m <= population.M:
        raise DesignError(f"m={design.m} invalid for M={population.M}")
    if not 1 <= design.n_k <= min(population.config.N_h):
        raise DesignError(f"n_k={design.n_k} invalid for N_h={min(population.config.N_h)}")
    pi_h = inclusion_probs(size_measures(population, design.cluster_kind), design.m)
    cluster_ids = systematic_pps(pi_h, substream(design.seed, 1))
    unit_ids, pi_l, y_s = [], [], []
    for k in cluster_ids:
        pi_u = inclusion_probs(size_measures(population, design.unit_kind, cluster=k), design.n_k)
        sel = systematic_pps(pi_u, substream(design.seed, 2, int(k)))
        unit_ids.append(sel)
        pi_l.append(pi_u)
        y_s.append(population.y[k][sel])
    return SampleDraw(cluster_ids=cluster_ids, unit_ids=unit_ids,
                      pi_h=pi_h, pi_l_given_h=pi_l, y_s=y_s)


def build_weights(sample: SampleDraw, mode: WeightMode | str = WeightMode.DOUBLE,
                  normalize: bool = True) -> WeightSet:
    """Construct the weight set for one of the three estimation modes.

    Double: ``w_k = c1/pi_k`` and ``w_{j|k} = c2_k/pi_{j|k}`` with
    ``w_jk = w_k * w_{j|k}``.  Single: unit-level weights only,
    ``w_k = 1`` and ``w_jk = c2_k/(pi_k*pi_{j|k})``, leaving the
    random-effect prior unweighted.  Equal: all ones.  Normalization picks
    ``c1`` so cluster weights sum to m and ``c2_k`` per cluster so its
    unit weights sum to n_k; without it all constants are 1.
    """
    mode = WeightMode(mode)
    m = sample.m
    pi_k = sample.cluster_probs()
    pi_jk = sample.selected_unit_probs()
    if np.any(pi_k == 0) or any(np.any(p == 0) for p in pi_jk):
        raise DesignError("zero inclusion probability among selected elements")
    norm: dict = {"c1": 1.0, "c2": np.ones(m)}

    if mode is WeightMode.EQUAL:
        w_k = np.ones(m)
        w_cond = [np.ones(len(p)) for p in pi_jk]
        w_marg = [np.ones(len(p)) for p in pi_jk]
    elif mode is WeightMode.DOUBLE:
        w_k = 1.0 / pi_k
        if normalize:
            norm["c1"] = m / w_k.sum()
            w_k = w_k * norm["c1"]
        w_cond, w_marg = [], []
        for i, p in enumerate(pi_jk):
            w = 1.0 / p
            if normalize:
                c2 = len(p) / w.sum()
                norm["c2"][i] = c2
                w = w * c2
            w_cond.append(w)
            w_marg.append(w_k[i] * w)
    else:  # SINGLE: unit-level weights only, prior unweighted
        w_k = np.ones(m)
        w_marg = []
        for i, p in enumerate(pi_jk):
            w = 1.0 / (pi_k[i] * p)
            if normalize:
                c2 = len(p) / w.sum()
                norm["c2"][i] = c2
                w = w * c2
            w_marg.append(w)
        w_cond = [w.copy() for w in w_marg]  # w_k == 1, so w_{j|k} == w_jk

    N_hat_k = np.array([w.sum() for w in w_cond])
    return WeightSet(mode=mode, w_k=w_k, w_j_given_k=w_cond, w_jk=w_marg,
                     N_hat_k=N_hat_k, M_hat=float(w_k.sum()),
                     N_hat=float(sum(w.sum() for w in w_marg)),
                     normalization=norm)


SAMPLE_CSV_COLUMNS = ["cluster_id", "unit_id", "y", "pi_h", "pi_l_given_h",
                      "w_k", "w_j_given_k", "w_jk"]


def sample_to_csv(sample: SampleDraw, weights: WeightSet, path) -> None:
    """Export one row per sampled unit; floats round-trip exactly."""
    pi_k = sample.cluster_probs()
    pi_jk = sample.selected_unit_probs()
    write_csv(path, SAMPLE_CSV_COLUMNS,
              ([int(k), int(unit), sample.y_s[i][j], pi_k[i], pi_jk[i][j],
                weights.w_k[i], weights.w_j_given_k[i][j], weights.w_jk[i][j]]
               for i, k in enumerate(sample.cluster_ids)
               for j, unit in enumerate(sample.unit_ids[i])))


def sample_from_csv(path) -> SampleDraw:
    """Rebuild a sample from the export schema, renumbering sequentially.

    Only sampled rows exist in the file, so the returned draw covers the
    selected clusters (``pi_h`` has one entry per selected cluster) and
    their sampled units; that is all estimation consumes.
    """
    by_cluster: dict[int, list[dict]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(SAMPLE_CSV_COLUMNS[:5]) - set(reader.fieldnames or [])
        if missing:
            raise DesignError(f"sample CSV missing columns: {sorted(missing)}")
        for row in reader:
            by_cluster.setdefault(int(row["cluster_id"]), []).append(row)
    if not by_cluster:
        raise DesignError("sample CSV contains no data rows")
    pi_h, unit_ids, pi_l, y_s = [], [], [], []
    for k in sorted(by_cluster):
        rows = by_cluster[k]
        pis = {float(r["pi_h"]) for r in rows}
        if len(pis) != 1:
            raise DesignError(f"cluster {k} has inconsistent pi_h values")
        pi_h.append(pis.pop())
        unit_ids.append(np.arange(len(rows)))
        pi_l.append(np.array([float(r["pi_l_given_h"]) for r in rows]))
        y_s.append(np.array([float(r["y"]) for r in rows]))
    return SampleDraw(cluster_ids=np.arange(len(pi_h)), unit_ids=unit_ids,
                      pi_h=np.array(pi_h), pi_l_given_h=pi_l, y_s=y_s)
