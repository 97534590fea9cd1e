"""Finite-population generation for the one-way random-intercept model.

Responses decompose exactly as ``y[h][l] = mu0 + a0[h] + eps0[h][l]`` with
Gaussian cluster effects ``a0`` and unit noise ``eps0``.  The latent draws
are kept alongside ``y`` because the informative sampling designs select
on them (cluster sizes on ``a0``, unit sizes on ``eps0``).
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
    ``sigma_a0`` and ``sigma_eps0`` are standard deviations (the precisions
    are their inverse squares).
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

    @property
    def tau_a0(self) -> float:
        return self.sigma_a0 ** -2

    @property
    def tau_eps0(self) -> float:
        return self.sigma_eps0 ** -2


@dataclass(frozen=True)
class Population:
    """A realized finite population, immutable after construction.

    ``eps_min`` is derived from ``eps0`` once, at construction: the linear
    unit designs offset every cluster's size measures by this population
    constant, so a sample draw reads it instead of rescanning all clusters.
    """

    config: PopulationConfig
    a0: np.ndarray                # (M,) cluster effects
    eps0: list[np.ndarray]        # eps0[h] has N_h entries
    y: list[np.ndarray]           # y[h][l] = mu0 + a0[h] + eps0[h][l]
    eps_min: float = field(init=False)  # min over all units' eps0

    def __post_init__(self):
        object.__setattr__(self, "eps_min", float(self.eps_flat().min()))

    @property
    def M(self) -> int:
        return self.config.M

    @property
    def N(self) -> int:
        return self.config.N

    def eps_flat(self) -> np.ndarray:
        return np.concatenate(self.eps0)


def generate_population(config: PopulationConfig) -> Population:
    """Draw a population from the generating model.

    ``a0`` and ``eps0`` are i.i.d. normal on separate substreams of
    ``config.seed``; ``y`` is assembled exactly (not re-sampled), so
    ``y - mu0 - a0 - eps0 == 0`` holds bitwise.  Identical configs yield
    bit-identical populations.
    """
    counts = np.asarray(config.N_h)
    a0 = substream(config.seed, 0).normal(0.0, config.sigma_a0, size=config.M)
    flat = substream(config.seed, 1).normal(0.0, config.sigma_eps0, size=int(counts.sum()))
    eps0 = np.split(flat, np.cumsum(counts)[:-1])
    y = [config.mu0 + a0[h] + eps0[h] for h in range(config.M)]
    return Population(config=config, a0=a0, eps0=eps0, y=y)


def population_to_csv(population: Population, path) -> None:
    """Dump the population as (cluster_id, unit_id, a0, eps0, y) rows;
    values round-trip exactly."""
    write_csv(path, ["cluster_id", "unit_id", "a0", "eps0", "y"],
              ([h, l, population.a0[h], population.eps0[h][l], population.y[h][l]]
               for h in range(population.M) for l in range(population.config.N_h[h])))
