"""Two-stage informative sampling designs and survey weights.

Stage 1 selects clusters, stage 2 selects units within each selected
cluster, both by randomized-order systematic PPS.  Size measures are
functions of the population latents (cluster effects for stage 1, unit
noise for stage 2), which is what makes the designs informative.
Population constants in the size formulas (the noise minimum of the
linear unit designs) are computed once per population.  Stage 2 is one
array program over the selected clusters: ``unit_blocks`` builds the
inclusion probabilities of clusters of equal size as the rows of one
matrix, and ``select_units`` makes the systematic selection of every row
at once.  Its random numbers come from one generator, the substream
keyed by (seed, 2): a uniform key per population unit, whose stable
argsort within a cluster is that cluster's randomized order, then a
start point per population cluster.  Both are indexed by population id,
so a cluster's draw does not depend on which other clusters were
selected.  Weights invert the realized inclusion probabilities and are
optionally normalized so the pseudo-likelihood's effective sample size
equals the realized sample size.  Samples and weights hold each
per-unit quantity once, as a flat array in cluster order with cluster
offsets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .csvio import write_csv
from .errors import DesignError
from .popgen import Population, cluster_offsets
from .rng import substream

_SUM_TOL = 1e-9
# units per stage-2 block: bounds the temporaries of a row-wise draw to
# about 128 KB per array (a balance replicate over M = 1000 clusters of
# 40 would otherwise hold a dozen arrays of 320 KB at once)
_BLOCK_UNITS = 1 << 14


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


def cluster_views(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Per-cluster views of a flat per-unit array (no copies)."""
    return np.split(flat, offsets[1:-1])


@dataclass(frozen=True)
class SampleDraw:
    """One realized two-stage sample.

    ``pi_h`` covers all M population clusters (diagnostics expand sample
    sums to population sums).  Per-unit arrays are flat, in cluster order:
    selected cluster ``cluster_ids[i]`` owns the non-empty run
    ``offsets[i]:offsets[i + 1]``, where ``units`` indexes its population
    units in increasing order.
    """

    cluster_ids: np.ndarray        # (m,) strictly increasing population indices
    offsets: np.ndarray            # (m + 1,) cluster boundaries in the unit arrays
    units: np.ndarray              # (n,) unit index within its cluster
    pi_h: np.ndarray               # (M,) marginal cluster inclusion probabilities
    pi_cond: np.ndarray            # (n,) pi_{j|k} of the sampled units
    y: np.ndarray                  # (n,) sampled responses

    @property
    def m(self) -> int:
        return len(self.cluster_ids)

    @property
    def n_total(self) -> int:
        return len(self.y)

    @property
    def n_k(self) -> np.ndarray:
        """Sampled units per selected cluster."""
        return np.diff(self.offsets)

    def cluster_probs(self) -> np.ndarray:
        """pi_k for the selected clusters."""
        return self.pi_h[self.cluster_ids]

    # per-cluster views, for callers that index by cluster
    unit_ids = property(lambda self: cluster_views(self.units, self.offsets))
    y_s = property(lambda self: cluster_views(self.y, self.offsets))
    pi_l_given_h = property(lambda self: cluster_views(self.pi_cond, self.offsets))

    def selected_unit_probs(self) -> list[np.ndarray]:
        """pi_{j|k} at the sampled units of each selected cluster."""
        return cluster_views(self.pi_cond, self.offsets)


@dataclass(frozen=True)
class WeightSet:
    """Cluster weights, and unit weights flat in the sample's unit order."""

    mode: WeightMode
    w_k: np.ndarray                # (m,) cluster weights
    offsets: np.ndarray            # (m + 1,) the sample's cluster boundaries
    w_cond: np.ndarray             # (n,) conditional unit weights w_{j|k}
    w_marg: np.ndarray             # (n,) marginal unit weights w_jk
    M_hat: float                   # sum_k w_k

    # per-cluster views, for callers that index by cluster
    w_j_given_k = property(lambda self: cluster_views(self.w_cond, self.offsets))
    w_jk = property(lambda self: cluster_views(self.w_marg, self.offsets))


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
    eps = population.eps0[population.offsets[cluster]:population.offsets[cluster + 1]]
    return _unit_sizes(eps, kind, population.eps_min)


def _unit_sizes(eps: np.ndarray, kind, eps_min: float) -> np.ndarray:
    """Unit size measures of noise values ``eps`` of any shape, elementwise."""
    if kind is UnitDesign.QUADRATIC:
        return np.maximum(0.0, eps) ** 2 + 1.0
    if kind is UnitDesign.WEAK_QUADRATIC:
        return 0.3 * np.maximum(0.0, eps) ** 2 + 1.0
    if kind is UnitDesign.LINEAR:
        return eps - eps_min + 1.0
    if kind is UnitDesign.WEAK_LINEAR:
        return 0.3 * (eps - eps_min) + 1.0
    if kind is UnitDesign.SYMMETRIC_QUADRATIC:
        return eps ** 2 + 1.0
    if kind is UnitDesign.SRS:
        return np.ones_like(eps)
    raise DesignError(f"unknown design kind: {kind!r}")


def inclusion_probs(sizes: np.ndarray, n: int) -> np.ndarray:
    """Proportional-to-size inclusion probabilities with iterative capping.

    Starts from ``pi_i = n * s_i / sum(s)``; any ``pi_i > 1`` is capped at 1
    and the remaining budget is redistributed proportionally among uncapped
    elements until all probabilities are <= 1.  The result sums to ``n``.
    ``sizes`` may be a vector or a matrix, whose rows are treated
    separately: row i of the result is ``inclusion_probs(sizes[i], n)``
    bit for bit, since a sum along the last axis of a C-contiguous matrix
    is the same pairwise sum as the 1-D sum of the row.  The uncapped
    first pass runs on all rows at once; only the rows with a probability
    above 1 go through the capping loop.
    """
    sizes = np.ascontiguousarray(sizes, dtype=float)
    width = sizes.shape[-1]
    if n < 1 or n > width:
        raise DesignError(f"cannot select n={n} from {width} elements")
    finite = np.isfinite(sizes)
    if not finite.all():
        raise DesignError(f"size measures must be finite, got {sizes[~finite][0]}")
    if np.any(sizes <= 0):
        raise DesignError("size measures must be positive")
    pi = n * sizes / sizes.sum(axis=-1, keepdims=True)
    rows, size_rows = pi.reshape(-1, width), sizes.reshape(-1, width)
    for i in np.flatnonzero((rows > 1.0).any(axis=1)):
        row, s = rows[i], size_rows[i]
        capped = np.zeros(width, dtype=bool)
        while (over := ~capped & (row > 1.0)).any():
            row[over] = 1.0
            capped |= over
            free = ~capped
            budget = n - int(capped.sum())
            row[free] = budget * s[free] / s[free].sum() if budget > 0 else 0.0
    return pi


def pps_sample_size(pi: np.ndarray):
    """Validate inclusion probabilities for systematic PPS; return n = sum(pi).

    Raises DesignError unless every ``pi`` is finite and lies in [0, 1]
    and the sum is an integer (within 1e-9).  A matrix is validated row by
    row, and the sum of each row is returned as an integer array.
    """
    finite = np.isfinite(pi)
    if not finite.all():
        raise DesignError(f"inclusion probabilities must be finite, got {pi[~finite][0]}")
    total = np.asarray(pi.sum(axis=-1))
    n = np.rint(total)
    off = np.abs(total - n) > _SUM_TOL
    if off.any():
        raise DesignError(f"inclusion probabilities sum to {float(total[off][0])}, "
                          f"not an integer")
    if np.any(pi < 0) or np.any(pi > 1.0 + 1e-12):
        raise DesignError("inclusion probabilities must lie in [0, 1]")
    return int(n) if n.ndim == 0 else n.astype(int)


def systematic_pps(pi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomized-order systematic PPS selection.

    Indices are randomly permuted, cumulative sums of ``pi`` are formed
    over the permuted order, and every index whose interval contains
    ``u + t`` for ``t = 0..n-1`` (``u ~ Uniform(0,1)``) is selected.  A
    point landing exactly on an interval boundary goes to the interval on
    the right.  Returns exactly ``n = sum(pi)`` distinct indices, sorted.
    ``pi`` is validated by ``pps_sample_size`` before any draw.
    """
    pi = np.asarray(pi, dtype=float)
    n = pps_sample_size(pi)
    perm = rng.permutation(pi.size)
    cum = pi[perm].cumsum()
    points = rng.uniform() + np.arange(n)
    pos = np.minimum(cum.searchsorted(points, side="right"), pi.size - 1)
    sel = perm[pos]
    sel.sort()
    return sel


class UnitBlock(NamedTuple):
    """Stage-2 inclusion probabilities of clusters of one size N_h, as rows."""

    rows: np.ndarray               # (r,) positions of these clusters in ``clusters``
    clusters: np.ndarray           # (r,) population index of each cluster
    starts: np.ndarray             # (r,) population index of each cluster's first unit
    pi: np.ndarray                 # (r, N_h) validated pi_{j|k} of the clusters' units


def unit_blocks(population: Population, kind: UnitDesign, n: int,
                clusters: np.ndarray) -> list[UnitBlock]:
    """Capped-PPS probabilities of selecting ``n`` units from each of ``clusters``.

    Clusters are grouped by size, and the clusters of one size into
    blocks of at most ``_BLOCK_UNITS`` units (or of one cluster, if it is
    larger).  Row i of a block is cluster ``clusters[rows[i]]``; its
    probabilities equal
    ``inclusion_probs(size_measures(population, kind, cluster), n)`` bit
    for bit and are validated by ``pps_sample_size`` before any draw.
    """
    clusters = np.asarray(clusters)
    N_h = np.asarray(population.config.N_h)[clusters]
    sizes = np.sort(N_h)
    blocks = []
    # distinct sizes (all >= 1), ascending; np.unique would import numpy.ma,
    # about 30 ms in each fresh worker process
    for size in sizes[np.diff(sizes, prepend=0) != 0]:
        same = np.flatnonzero(N_h == size)
        step = max(1, _BLOCK_UNITS // size)
        for rows in np.split(same, range(step, len(same), step)):
            starts = population.offsets[clusters[rows]]
            eps = population.eps0[starts[:, None] + np.arange(size)]
            pi = inclusion_probs(_unit_sizes(eps, kind, population.eps_min), n)
            pps_sample_size(pi)
            blocks.append(UnitBlock(rows, clusters[rows], starts, pi))
    return blocks


def select_units(population: Population, blocks: list[UnitBlock], n: int,
                 rng: np.random.Generator) -> list[tuple[UnitBlock, np.ndarray]]:
    """Randomized-order systematic PPS selection of ``n`` units from every
    cluster of ``blocks``, all from ``rng``.

    ``rng`` draws one uniform key per population unit, in flat cluster
    order, then one start point per population cluster.  Cluster k is
    ordered by the stable argsort of its own keys and starts at point
    ``u[k]``; within that order the selection is that of
    ``systematic_pps``.  Keys and start points are indexed by population
    id, so a cluster's units do not depend on which other clusters the
    blocks hold.  Returns ``(block, sel)`` per block, where ``sel[i]``
    holds the n sorted positions drawn within cluster ``block.clusters[i]``.
    """
    keys, u = rng.random(population.N), rng.random(population.M)
    draws = []
    for block in blocks:
        width = block.pi.shape[1]
        order = _stable_order(keys[block.starts[:, None] + np.arange(width)])
        # transposed, so that the scan and the compares below run along rows
        # of r contiguous values; cum[j, i] is the same sequential sum as the
        # 1-D cumsum of row i
        cum = np.ascontiguousarray(np.take_along_axis(block.pi, order, axis=1).T).cumsum(axis=0)
        points = u[block.clusters] + np.arange(n)[:, None]
        # searchsorted(side="right") of each point in its row: the number of
        # cumulative sums <= the point, as an exact compare
        pos = np.stack([(cum <= p).sum(axis=0) for p in points], axis=1)
        sel = np.take_along_axis(order, np.minimum(pos, width - 1), axis=1)
        sel.sort(axis=1)
        draws.append((block, sel))
    return draws


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, axis=1, kind="stable")``.  Uniform keys within a
    row are distinct with probability 1 - O(N_h^2 / 2^53), and then every
    sort gives that order; the default sort is twice as fast, so it runs
    first and the stable one only on a tie."""
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    if (ranked[:, 1:] == ranked[:, :-1]).any():
        order = np.argsort(keys, axis=1, kind="stable")
    return order


def draw_two_stage_sample(population: Population, design: TwoStageDesign) -> SampleDraw:
    """Draw clusters then units, each by capped-PPS + systematic selection.

    Stage 1 draws from the substream keyed by (seed, 1), stage 2 from the
    one keyed by (seed, 2) through ``select_units``, which keys each
    cluster's random numbers by its population id, so a cluster's units
    do not depend on which other clusters were selected.  Stage 2's
    arithmetic runs on all selected clusters at once (``unit_blocks``).
    """
    if not 1 <= design.m <= population.M:
        raise DesignError(f"m={design.m} invalid for M={population.M}")
    if not 1 <= design.n_k <= min(population.config.N_h):
        raise DesignError(f"n_k={design.n_k} invalid for N_h={min(population.config.N_h)}")
    pi_h = inclusion_probs(size_measures(population, design.cluster_kind), design.m)
    cluster_ids = systematic_pps(pi_h, substream(design.seed, 1))
    shape = (len(cluster_ids), design.n_k)
    units, pi_cond, y = np.empty(shape, dtype=np.intp), np.empty(shape), np.empty(shape)
    blocks = unit_blocks(population, design.unit_kind, design.n_k, cluster_ids)
    for block, sel in select_units(population, blocks, design.n_k, substream(design.seed, 2)):
        units[block.rows] = sel
        pi_cond[block.rows] = np.take_along_axis(block.pi, sel, axis=1)
        y[block.rows] = population.y[block.starts[:, None] + sel]
    return SampleDraw(cluster_ids=cluster_ids, offsets=design.n_k * np.arange(shape[0] + 1),
                      units=units.ravel(), pi_h=pi_h, pi_cond=pi_cond.ravel(), y=y.ravel())


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
    n_k = sample.n_k
    pi_k = sample.cluster_probs()
    if np.any(pi_k == 0) or np.any(sample.pi_cond == 0):
        raise DesignError("zero inclusion probability among selected elements")
    if mode is WeightMode.EQUAL:
        w_k, w_cond = np.ones(sample.m), np.ones(sample.n_total)
    elif mode is WeightMode.DOUBLE:
        w_k, w_cond = 1.0 / pi_k, 1.0 / sample.pi_cond
        if normalize:
            w_k = w_k * (sample.m / w_k.sum())
    else:  # SINGLE: unit-level weights only, prior unweighted
        w_k, w_cond = np.ones(sample.m), 1.0 / (np.repeat(pi_k, n_k) * sample.pi_cond)
    if normalize and mode is not WeightMode.EQUAL:
        w_cond = w_cond * np.repeat(n_k / np.add.reduceat(w_cond, sample.offsets[:-1]), n_k)
    # w_k == 1 outside double mode, so w_jk == w_{j|k} there
    w_marg = np.repeat(w_k, n_k) * w_cond if mode is WeightMode.DOUBLE else w_cond
    return WeightSet(mode=mode, w_k=w_k, offsets=sample.offsets, w_cond=w_cond,
                     w_marg=w_marg, M_hat=float(w_k.sum()))


SAMPLE_CSV_COLUMNS = ["cluster_id", "unit_id", "y", "pi_h", "pi_l_given_h",
                      "w_k", "w_j_given_k", "w_jk"]


def sample_to_csv(sample: SampleDraw, weights: WeightSet, path) -> None:
    """Export one row per sampled unit; floats round-trip exactly."""
    n_k = sample.n_k
    write_csv(path, SAMPLE_CSV_COLUMNS,
              zip(np.repeat(sample.cluster_ids, n_k).tolist(), sample.units.tolist(), sample.y,
                  np.repeat(sample.cluster_probs(), n_k), sample.pi_cond,
                  np.repeat(weights.w_k, n_k), weights.w_cond, weights.w_marg))


def _csv_column(rows: list[dict], name: str, parse, valid, requirement: str) -> np.ndarray:
    """One parsed column; a bad value raises DesignError naming the line."""
    values = []
    for line, row in enumerate(rows, start=2):  # line 1 is the header
        try:
            values.append(parse(row[name]))
            if not valid(values[-1]):
                raise ValueError
        except (TypeError, ValueError):
            raise DesignError(f"sample CSV line {line}: {name} must be {requirement}, "
                              f"got {row[name]!r}") from None
    return np.array(values)


def sample_from_csv(path) -> SampleDraw:
    """Rebuild a sample from the export schema, renumbering sequentially.

    Only sampled rows exist in the file, so the returned draw covers the
    selected clusters (``pi_h`` has one entry per selected cluster) and
    their sampled units; that is all estimation consumes.  Rows are grouped
    by ``cluster_id`` in increasing order, keeping file order within a
    cluster.  ``y`` must be finite, both probabilities in (0, 1], and each
    (cluster_id, unit_id) pair may appear once.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(SAMPLE_CSV_COLUMNS[:5]) - set(reader.fieldnames or [])
        if missing:
            raise DesignError(f"sample CSV missing columns: {sorted(missing)}")
        rows = list(reader)
    if not rows:
        raise DesignError("sample CSV contains no data rows")
    cluster = _csv_column(rows, "cluster_id", int, lambda v: True, "an integer")
    unit = _csv_column(rows, "unit_id", int, lambda v: True, "an integer")
    first_line = {}
    for line, key in enumerate(zip(cluster.tolist(), unit.tolist()), start=2):
        if key in first_line:
            raise DesignError(f"sample CSV lines {first_line[key]} and {line}: unit {key[1]} "
                              f"of cluster {key[0]} appears twice")
        first_line[key] = line
    y = _csv_column(rows, "y", float, math.isfinite, "a finite number")
    in_unit_interval = lambda v: 0.0 < v <= 1.0
    pi_h = _csv_column(rows, "pi_h", float, in_unit_interval, "in (0, 1]")
    pi_cond = _csv_column(rows, "pi_l_given_h", float, in_unit_interval, "in (0, 1]")
    order = np.argsort(cluster, kind="stable")
    cluster, pi_h = cluster[order], pi_h[order]
    ids, starts, counts = np.unique(cluster, return_index=True, return_counts=True)
    inconsistent = pi_h != np.repeat(pi_h[starts], counts)
    if inconsistent.any():
        raise DesignError(f"cluster {cluster[inconsistent.argmax()]} has inconsistent pi_h values")
    offsets = cluster_offsets(counts)
    return SampleDraw(cluster_ids=np.arange(len(ids)), offsets=offsets,
                      units=np.arange(len(rows)) - np.repeat(offsets[:-1], counts),
                      pi_h=pi_h[starts], pi_cond=pi_cond[order], y=y[order])
