import csv

import numpy as np
import pytest

from svyanova.errors import ConfigError
from svyanova.popgen import PopulationConfig, Population, generate_population, population_to_csv


def _cfg(**kw):
    base = dict(M=50, N_h=10, mu0=1.0, sigma_a0=2.0, sigma_eps0=3.0, seed=1)
    base.update(kw)
    return PopulationConfig(**base)


class TestConfigValidation:
    def test_scalar_N_h_broadcasts(self):
        cfg = _cfg(M=3, N_h=7)
        assert cfg.N_h == (7, 7, 7)
        assert cfg.N == 21

    @pytest.mark.parametrize("bad", [
        dict(M=0), dict(sigma_a0=0.0), dict(sigma_a0=-1.0),
        dict(sigma_eps0=0.0), dict(M=3, N_h=(5, 5)), dict(M=2, N_h=(5, 0)),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            _cfg(**bad)


class TestGeneration:
    def test_determinism_bitwise(self):
        p1 = generate_population(_cfg(seed=123))
        p2 = generate_population(_cfg(seed=123))
        assert np.array_equal(p1.a0, p2.a0)
        assert np.array_equal(p1.eps0, p2.eps0)
        assert np.array_equal(p1.y, p2.y)

    def test_different_seeds_differ(self):
        p1 = generate_population(_cfg(seed=123))
        p2 = generate_population(_cfg(seed=124))
        assert not np.array_equal(p1.a0, p2.a0)

    def test_reconstruction_exact(self):
        # y is assembled, not re-sampled: recomputing the assembly is
        # bit-identical, and the subtraction form is zero to re-association
        # rounding (a few ulp)
        pop = generate_population(_cfg(seed=5))
        for h in range(pop.M):
            units = slice(pop.offsets[h], pop.offsets[h + 1])
            assert np.array_equal(pop.y[units], pop.config.mu0 + pop.a0[h] + pop.eps0[units])
            resid = pop.y[units] - pop.config.mu0 - pop.a0[h] - pop.eps0[units]
            assert np.all(np.abs(resid) < 1e-12)

    def test_eps_min_is_the_population_noise_minimum(self):
        pop = generate_population(_cfg(M=6, N_h=(3, 8, 1, 5, 2, 4), seed=9))
        assert pop.eps_min == pop.eps0.min()
        # derived from eps0 when the population is built directly, too
        direct = Population(config=_cfg(M=2, N_h=(2, 1)), a0=np.zeros(2),
                            eps0=np.array([0.5, -1.5, -0.25]), y=np.zeros(3))
        assert direct.eps_min == -1.5
        assert direct.offsets.tolist() == [0, 2, 3]

    def test_unequal_cluster_sizes(self):
        cfg = _cfg(M=4, N_h=(3, 8, 1, 5), seed=9)
        pop = generate_population(cfg)
        assert np.diff(pop.offsets).tolist() == [3, 8, 1, 5]
        assert pop.N == len(pop.eps0) == len(pop.y) == 17

    def test_paper_scale_shape(self):
        pop = generate_population(_cfg(M=2000, N_h=40, seed=7))
        assert pop.N == 80_000
        assert len(pop.a0) == 2000

    def test_degenerate_scale(self):
        pop = generate_population(_cfg(M=3, N_h=2, sigma_a0=1e-12, seed=2))
        assert np.all(np.abs(pop.a0) < 1e-10)
        np.testing.assert_allclose(pop.y, pop.config.mu0 + pop.eps0, atol=1e-10)

    def test_moment_sanity(self):
        cfg = _cfg(M=4000, N_h=40, seed=11)
        pop = generate_population(cfg)
        assert abs(pop.a0.mean()) < 4 * cfg.sigma_a0 / np.sqrt(cfg.M)
        eps = pop.eps0
        assert abs(eps.mean()) < 4 * cfg.sigma_eps0 / np.sqrt(cfg.N)

    @pytest.mark.parametrize("seed", [11, 222, 3333])
    def test_cluster_effect_variance_band(self, seed):
        # chi-square sampling distribution of the variance with 3999 df puts
        # the sample variance of a0 within [3.65, 4.35] (sigma_a0^2 = 4,
        # band is ~3.9 standard errors wide)
        pop = generate_population(_cfg(M=4000, N_h=40, seed=seed))
        var = pop.a0.var(ddof=1)
        assert 3.65 <= var <= 4.35


class TestCsvDump:
    def test_round_trip(self, tmp_path):
        pop = generate_population(_cfg(M=3, N_h=(2, 1, 3), seed=77))
        path = tmp_path / "pop.csv"
        population_to_csv(pop, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == pop.N
        for row in rows:
            h, l = int(row["cluster_id"]), int(row["unit_id"])
            assert float(row["a0"]) == pop.a0[h]
            assert float(row["eps0"]) == pop.eps0[pop.offsets[h] + l]
            assert float(row["y"]) == pop.y[pop.offsets[h] + l]
