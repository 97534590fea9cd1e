"""Checks of the benchmark's ESS estimator against closed forms.

Run with ``python3 -m pytest svybench/test_ess.py`` from the repository root.
"""

import numpy as np
import pytest

from ess import geyer_ess


def ar1(n: int, rho: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) * np.sqrt(1.0 - rho ** 2)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + z[t]
    return x


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
def test_ar1_matches_closed_form(rho):
    n = 100_000
    exact = n * (1.0 - rho) / (1.0 + rho)
    est = np.mean([geyer_ess(ar1(n, rho, seed)) for seed in range(4)])
    assert abs(est / exact - 1.0) < 0.08


def test_iid_chain_is_about_n():
    n = 20_000
    rng = np.random.default_rng(7)
    est = np.mean([geyer_ess(rng.standard_normal(n)) for _ in range(5)])
    assert abs(est / n - 1.0) < 0.05


def test_antithetic_chain_exceeds_n():
    n = 20_000
    assert geyer_ess(ar1(n, -0.5, 3)) > 1.5 * n


def test_constant_chain_has_no_information():
    assert geyer_ess(np.ones(100)) == 0.0
