"""Finite-population generation for the one-way random-intercept model.

Responses decompose exactly as ``y = mu0 + a0[h] + eps0`` for every unit
of cluster h, with Gaussian cluster effects ``a0`` and unit noise ``eps0``.
The latent draws are kept alongside ``y`` because the informative sampling
designs select on them (cluster sizes on ``a0``, unit sizes on ``eps0``).
Per-unit arrays are flat, in cluster order; ``cluster_offsets`` gives the
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .errors import ConfigError
from .rng import substream


@dataclass(frozen=True)
class PopulationConfig:
    """Generating parameters for one finite population.

    ``N_h`` may be a single int (constant cluster size) or a sequence of
    per-cluster sizes; it is normalized to a tuple of length ``M``.
    ``sigma_a0`` and ``sigma_eps0`` are standard deviations.
    """

    M: int
    N_h: tuple[int, ...]
    mu0: float
    sigma_a0: float
    sigma_eps0: float
    seed: int

    def __post_init__(self):
        if isinstance(self.N_h, (int, np.integer)):
            object.__setattr__(self, "N_h", (int(self.N_h),) * int(self.M))
        else:
            object.__setattr__(self, "N_h", tuple(int(n) for n in self.N_h))
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if len(self.N_h) != self.M:
            raise ConfigError(f"N_h has {len(self.N_h)} entries for M={self.M} clusters")
        if any(n < 1 for n in self.N_h):
            raise ConfigError("every N_h must be >= 1")
        if not self.sigma_a0 > 0:
            raise ConfigError(f"sigma_a0 must be > 0, got {self.sigma_a0}")
        if not self.sigma_eps0 > 0:
            raise ConfigError(f"sigma_eps0 must be > 0, got {self.sigma_eps0}")

    @property
    def N(self) -> int:
        return sum(self.N_h)


def cluster_offsets(counts) -> np.ndarray:
    """Offsets such that cluster k of ``counts`` is ``offsets[k]:offsets[k + 1]``."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))


@dataclass(frozen=True)
class Population:
    """A realized finite population, immutable after construction.

    ``eps0`` and ``y`` hold one entry per unit, cluster by cluster: cluster
    h is ``offsets[h]:offsets[h + 1]``.  ``offsets`` and ``eps_min`` are
    derived once, at construction: the linear unit designs offset every
    cluster's size measures by the population constant ``eps_min``, so a
    sample draw reads it instead of rescanning all clusters.
    """

    config: PopulationConfig
    a0: np.ndarray                # (M,) cluster effects
    eps0: np.ndarray              # (N,) unit noise in cluster order
    y: np.ndarray                 # (N,) mu0 + a0[h] + eps0 for the units of cluster h
    offsets: np.ndarray = field(init=False)  # (M + 1,) from config.N_h
    eps_min: float = field(init=False)  # min over all units' eps0

    def __post_init__(self):
        object.__setattr__(self, "offsets", cluster_offsets(self.config.N_h))
        object.__setattr__(self, "eps_min", float(self.eps0.min()))

    @property
    def M(self) -> int:
        return self.config.M

    @property
    def N(self) -> int:
        return self.config.N


def generate_population(config: PopulationConfig) -> Population:
    """Draw a population from the generating model.

    ``a0`` and ``eps0`` are i.i.d. normal on separate substreams of
    ``config.seed``; ``y`` is assembled exactly (not re-sampled), so
    ``y - mu0 - a0 - eps0 == 0`` holds bitwise.  Identical configs yield
    bit-identical populations.
    """
    a0 = substream(config.seed, 0).normal(0.0, config.sigma_a0, size=config.M)
    eps0 = substream(config.seed, 1).normal(0.0, config.sigma_eps0, size=config.N)
    y = config.mu0 + np.repeat(a0, config.N_h) + eps0
    return Population(config=config, a0=a0, eps0=eps0, y=y)


def population_to_csv(population: Population, path) -> None:
    """Dump the population as (cluster_id, unit_id, a0, eps0, y) rows;
    values round-trip exactly."""
    h = np.repeat(np.arange(population.M), population.config.N_h)
    unit = np.arange(population.N) - population.offsets[h]
    write_csv(path, ["cluster_id", "unit_id", "a0", "eps0", "y"],
              zip(h.tolist(), unit.tolist(), population.a0[h], population.eps0, population.y))
