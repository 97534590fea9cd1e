"""Effective sample size by Geyer's initial monotone sequence estimator.

Geyer (1992), "Practical Markov chain Monte Carlo", Stat. Sci. 7:473.
The integrated autocorrelation time is tau = -1 + 2 * sum_k Gamma_k with
Gamma_k = rho_{2k} + rho_{2k+1}; the sum stops before the first
non-positive Gamma_k, and each Gamma_k is lowered to the minimum of the
ones before it.  ESS = n / tau.
"""

from __future__ import annotations

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Lag 0..n-1 sample autocorrelations (biased 1/n autocovariance)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    xc = x - x.mean()
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f), 2 * n)[:n] / n
    return acov / acov[0]


def geyer_ess(x) -> float:
    """ESS of one chain; a constant chain has no information and gets 0."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError("ESS needs at least 4 draws")
    if not np.isfinite(x).all():
        raise ValueError("ESS of a chain with non-finite draws")
    if np.ptp(x) == 0.0:
        return 0.0
    rho = autocorrelation(x)
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpos = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: nonpos[0]] if nonpos.size else pairs
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum())
    return n / tau
