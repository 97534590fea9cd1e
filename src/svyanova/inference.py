"""Survey-weighted estimation of (mu, sigma_a, sigma_eps) from a sample.

Three routes share one pseudo-posterior target:

* independent draws of the augmented state (mu, tau_a, tau_eps, a_1..a_m),
  in which the unit likelihood is exponentiated by the marginal weight
  ``w_jk`` and the random-effect prior by the cluster weight ``w_k``: its
  (mu, tau_a, tau_eps) marginal is the integrated posterior below, drawn
  exactly, and each cluster effect is then drawn from its conjugate Normal
  full conditional;
* independent draws from the likelihood with every cluster effect
  marginalized out analytically, through its exact collapse to one
  dimension: x = log(tau_a/tau_eps) has a closed-form density, and given x,
  tau_eps is Gamma and mu Normal (``_collapsed``);
* its mode, found by a one-dimensional search in x: for each ratio the
  maximizing mu and tau_eps are in closed form.

Every density is computed once, from the per-cluster weighted sums in
``_SuffStats`` and their totals, taken once per fit.  The sums are of y
centred at its weighted mean, so that a large mean costs no digits; every
route works in the centred mu and adds the centre back to its results.
The public ``fc_*`` functions are views of the full conditionals
(``_cond_*``), of which ``run_gibbs`` draws the cluster effects from
``_cond_a``; the collapsed draws, their quadrature means and the MAP search
share one per-ratio algebra (``_conditionals``); the MAP is scored with the
one integrated log posterior on (mu, log tau_a, log tau_eps).  The per-unit
``augmented_logpseudo*`` densities are the independent reference the tests
check those closed forms against.

Both drawing routes take (x, tau_eps, mu) from ``_draw_collapsed``, which
draws all its ``uniform`` values (x by inverse CDF), then all
``standard_gamma`` (tau_eps), then all ``standard_normal`` (mu), one per
kept draw: ``run_integrated_mcmc`` from the substream keyed by the chain
seed alone, ``run_gibbs`` from the one keyed by (seed, 1).  ``run_gibbs``
draws ``standard_normal((n_draws, m))`` for the cluster effects from that
generator where the collapsed draws left it, when its result's ``a`` is
first read.  A change to these calls changes the random streams.

Precisions ``tau`` are carried internally; reported scales are
``sigma = tau**-0.5`` applied per draw.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from numbers import Real

import numpy as np

from .csvio import write_csv
from .errors import ConfigError, PosteriorError, require_int
from .rng import substream

_LOG_TAU_MAX = 600.0  # |log tau| beyond which the integrated posterior is -inf
PARAM_NAMES = ("b0", "sigma_a", "sigma_eps")


@dataclass(frozen=True)
class PriorConfig:
    """Inverse-gamma hyperparameters on the variances tau_a^-1, tau_eps^-1.

    Equivalently Gamma(alpha, rate=beta) priors on the precisions.  The
    intercept carries an improper flat prior.
    """

    alpha1: float = 0.1
    beta1: float = 0.1
    alpha2: float = 0.1
    beta2: float = 0.1

    def __post_init__(self):
        for key in ("alpha1", "beta1", "alpha2", "beta2"):
            value = getattr(self, key)
            if isinstance(value, bool) or not (isinstance(value, Real) and math.isfinite(value)
                                               and value > 0):
                raise ConfigError(f"prior hyperparameter {key} must be finite and "
                                  f"positive, got {value!r}")


@dataclass(frozen=True)
class ParamState:
    mu: float
    tau_a: float
    tau_eps: float
    a: np.ndarray | None = None

    def __post_init__(self):
        if not (self.tau_a > 0 and self.tau_eps > 0):
            raise ConfigError("precisions must be positive")

    @property
    def sigma_a(self) -> float:
        return self.tau_a ** -0.5

    @property
    def sigma_eps(self) -> float:
        return self.tau_eps ** -0.5


@dataclass(frozen=True)
class ChainConfig:
    """How many independent draws a sampler makes, and from which seed."""

    n_draws: int = 2000
    seed: int = 0

    def __post_init__(self):
        require_int(self.n_draws, "n_draws", 1)

    @property
    def n_iterations(self) -> int:
        """n_draws; kept only because the benchmark's span counters
        (svybench/workloads.py) read it.  Goes with the next change to the
        benchmark."""
        return self.n_draws


class DrawsMatrix:
    """Independent posterior draws with summary accessors.

    ``a`` holds the (n_draws, m) cluster effects of an augmented fit, else
    None.  It may be given as a callable that returns them, as ``run_gibbs``
    does: the effects are then drawn when ``a`` is first read, and kept.
    """

    def __init__(self, mu: np.ndarray, tau_a: np.ndarray, tau_eps: np.ndarray,
                 a=None, acceptance_rate: float | None = None):
        self.mu, self.tau_a, self.tau_eps = mu, tau_a, tau_eps
        self._a = a
        self.acceptance_rate = acceptance_rate

    @property
    def a(self) -> np.ndarray | None:
        if callable(self._a):
            self._a = self._a()
        return self._a

    @property
    def n_draws(self) -> int:
        return len(self.mu)

    @property
    def sigma_a(self) -> np.ndarray:
        return self.tau_a ** -0.5

    @property
    def sigma_eps(self) -> np.ndarray:
        return self.tau_eps ** -0.5

    def values(self, param: str) -> np.ndarray:
        if param in ("b0", "mu"):
            return self.mu
        if param == "sigma_a":
            return self.sigma_a
        if param == "sigma_eps":
            return self.sigma_eps
        raise KeyError(param)

    def mean(self, param: str) -> float:
        return float(self.values(param).mean())

    def sd(self, param: str) -> float:
        return float(self.values(param).std(ddof=1))

    def quantiles(self, param: str, qs=(0.05, 0.5, 0.95)) -> np.ndarray:
        return np.quantile(self.values(param), qs)

    def point_estimates(self) -> dict:
        return {p: self.mean(p) for p in PARAM_NAMES}

    def to_csv(self, path, include_effects: bool = False) -> None:
        header = ["draw", "mu", "sigma_a", "sigma_eps"]
        n_eff = self.a.shape[1] if (include_effects and self.a is not None) else 0
        header += [f"a_{k + 1}" for k in range(n_eff)]
        sigma_a, sigma_eps = self.sigma_a, self.sigma_eps
        write_csv(path, header,
                  ([i, self.mu[i], sigma_a[i], sigma_eps[i],
                    *(self.a[i][:n_eff] if n_eff else ())] for i in range(self.n_draws)))

    def summary(self, mode: str = "", converged: bool = True) -> dict:
        qs = {p: dict(zip(("q05", "q50", "q95"),
                          (float(v) for v in self.quantiles(p)))) for p in PARAM_NAMES}
        return {
            "mode": mode,
            "point_estimates": self.point_estimates(),
            "posterior_sd": {p: self.sd(p) for p in PARAM_NAMES},
            "quantiles": qs,
            "acceptance_rate": self.acceptance_rate,
            "converged": converged,
        }


@dataclass(frozen=True)
class _SuffStats:
    """Per-cluster weighted sums of the centred response y - center and
    their totals; everything the three routes consume.  Built once per
    fit."""

    w_k: np.ndarray    # cluster weights
    sw: np.ndarray     # sum_j w_jk
    swy: np.ndarray    # sum_j w_jk (y_jk - center)
    n_k: np.ndarray    # realized units per cluster
    center: float = 0.0  # weighted mean of y
    wss: float = 0.0     # sum_jk w_jk (y_jk - ybar_k)^2, summed per unit
    sw_tot: float = field(init=False)
    swy_tot: float = field(init=False)
    w_k_tot: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sw_tot", float(self.sw.sum()))
        object.__setattr__(self, "swy_tot", float(self.swy.sum()))
        object.__setattr__(self, "w_k_tot", float(self.w_k.sum()))

    @property
    def m(self) -> int:
        return len(self.w_k)

    @cached_property
    def ybar(self) -> np.ndarray:
        """Weighted cluster means of the centred y."""
        return self.swy / self.sw


def _suffstats(sample, weights) -> _SuffStats:
    w, starts = weights.w_marg, sample.offsets[:-1]
    center = float(w @ sample.y / w.sum())
    y = sample.y - center
    wy = w * y
    sw, swy = np.add.reduceat(w, starts), np.add.reduceat(wy, starts)
    within = y - np.repeat(swy / sw, sample.n_k)
    return _SuffStats(w_k=np.asarray(weights.w_k, dtype=float), sw=sw, swy=swy,
                      n_k=sample.n_k, center=center, wss=float(w @ (within * within)))


# ---------------------------------------------------------------------------
# Full conditional pseudo-posterior distributions (augmented model)
# ---------------------------------------------------------------------------
# The _cond_* functions are the conditionals of the augmented model; the
# public fc_* are views of them for one sample, and run_gibbs draws the
# cluster effects from _cond_a.

def _cond_a(stats: _SuffStats, mu, tau_a, tau_eps):
    """(h_k, phi_k); mu, tau_a and tau_eps may be columns of draws."""
    phi = tau_eps * stats.sw + tau_a * stats.w_k
    return tau_eps * (stats.swy - mu * stats.sw) / phi, phi


def _cond_mu(stats: _SuffStats, a: np.ndarray, tau_eps: float):
    return (stats.swy_tot - float(a @ stats.sw)) / stats.sw_tot, tau_eps * stats.sw_tot


def _cond_tau_a(stats: _SuffStats, a: np.ndarray, prior: PriorConfig):
    return 0.5 * stats.w_k_tot + prior.alpha1, 0.5 * float((a * a) @ stats.w_k) + prior.beta1


def _cond_tau_eps(stats: _SuffStats, mu: float, a: np.ndarray, prior: PriorConfig):
    # sum_jk w_jk (y_jk - mu - a_k)^2 = WSS + sum_k sw_k (ybar_k - mu - a_k)^2:
    # a sum of non-negative parts, so no digits cancel
    dev = stats.ybar - mu - a
    ssr = stats.wss + float(stats.sw @ (dev * dev))
    return 0.5 * stats.sw_tot + prior.alpha2, 0.5 * ssr + prior.beta2


def fc_a_k(k: int, mu: float, tau_a: float, tau_eps: float, sample, weights):
    """Normal full conditional for cluster effect a_k: returns (h_k, phi_k).

    phi_k = tau_eps * sum_j w_jk + tau_a * w_k,
    h_k = tau_eps * sum_j w_jk (y_jk - mu) / phi_k.
    """
    stats = _suffstats(sample, weights)
    h, phi = _cond_a(stats, mu - stats.center, tau_a, tau_eps)
    return float(h[k]), float(phi[k])


def fc_mu(a: np.ndarray, tau_eps: float, sample, weights):
    """Normal full conditional for the intercept: returns (mean, precision).

    mean = sum w_jk (y_jk - a_k) / sum w_jk, precision = tau_eps * sum w_jk.
    """
    stats = _suffstats(sample, weights)
    mean, prec = _cond_mu(stats, np.asarray(a, dtype=float), tau_eps)
    return mean + stats.center, prec


def fc_tau_a(a: np.ndarray, w_k: np.ndarray, prior: PriorConfig):
    """Inverse-gamma full conditional for tau_a^-1: returns (shape, scale).

    Sampling tau_a itself is a Gamma(shape, rate=scale) draw.  Only the
    cluster weights enter, so the clusters are given no units.
    """
    w_k = np.asarray(w_k, dtype=float)
    zeros = np.zeros_like(w_k)
    stats = _SuffStats(w_k, zeros, zeros, zeros)
    return _cond_tau_a(stats, np.asarray(a, dtype=float), prior)


def fc_tau_eps(mu: float, a: np.ndarray, sample, weights, prior: PriorConfig):
    """Inverse-gamma full conditional for tau_eps^-1: returns (shape, scale)."""
    stats = _suffstats(sample, weights)
    return _cond_tau_eps(stats, mu - stats.center, np.asarray(a, dtype=float), prior)


# ---------------------------------------------------------------------------
# Joint densities
# ---------------------------------------------------------------------------

def _gamma_logpdf(tau: float, alpha: float, beta: float) -> float:
    # Gamma(alpha, rate=beta) density in the precision; equals the
    # IG(alpha, beta) prior on the variance after change of variables.
    return alpha * math.log(beta) - math.lgamma(alpha) + (alpha - 1.0) * math.log(tau) - beta * tau


def log_priors(tau_a: float, tau_eps: float, prior: PriorConfig) -> float:
    """Log prior density at (tau_a, tau_eps); the flat mu prior adds nothing."""
    if tau_a <= 0 or tau_eps <= 0:
        raise ValueError("precisions must be positive")
    return _gamma_logpdf(tau_a, prior.alpha1, prior.beta1) + \
        _gamma_logpdf(tau_eps, prior.alpha2, prior.beta2)


def augmented_logpseudolikelihood(state: ParamState, sample, weights) -> float:
    """Weighted log pseudo-likelihood of the augmented model.

    sum_jk w_jk log N(y_jk | mu + a_k, tau_eps^-1)
    + sum_k w_k log N(a_k | 0, tau_a^-1).
    """
    a = state.a
    if a is None or len(a) != sample.m:
        raise ValueError("state must carry one cluster effect per sampled cluster")
    mu, tau_a, tau_eps = state.mu, state.tau_a, state.tau_eps
    r = sample.y - mu - np.repeat(a, sample.n_k)
    ll = float(np.sum(weights.w_marg * (0.5 * math.log(tau_eps) - 0.5 * math.log(2 * math.pi)
                                        - 0.5 * tau_eps * r ** 2)))
    w_k = np.asarray(weights.w_k, dtype=float)
    ll += float(np.sum(w_k * (0.5 * math.log(tau_a) - 0.5 * math.log(2 * math.pi)
                              - 0.5 * tau_a * np.asarray(a) ** 2)))
    return ll


def augmented_logpseudoposterior(state: ParamState, sample, weights,
                                 prior: PriorConfig) -> float:
    """Augmented log pseudo-likelihood plus log priors (a density in the
    precisions; each full conditional is proportional to this joint along
    its own coordinate)."""
    if state.tau_a <= 0 or state.tau_eps <= 0:
        raise ValueError("precisions must be positive")
    return augmented_logpseudolikelihood(state, sample, weights) + \
        log_priors(state.tau_a, state.tau_eps, prior)


# ---------------------------------------------------------------------------
# Integrated likelihood route
# ---------------------------------------------------------------------------

def _integrated_loglik_stats(mu: float, tau_a: float, tau_eps: float,
                             stats: _SuffStats) -> float:
    # Per cluster, with phi = tau_eps sw + tau_a w_k the precision of a_k in
    # _cond_a: -0.5 log phi + 0.5 w_k log tau_a + 0.5 sw log tau_eps, minus
    # half of tau_eps WSS_k + q_k (ybar_k - mu)^2 with
    # q_k = 1/(1/(tau_a w_k) + 1/(tau_eps sw_k)): the residual term is a sum
    # of non-negative parts, so no digits cancel.
    # The 2-pi power carries the weighted exponents (sw + w_k - 1)/2 so the
    # value equals the exact integral of the weighted augmented integrand,
    # not just the integral up to a theta-free constant.
    if tau_a <= 0 or tau_eps <= 0:
        raise ValueError("precisions must be positive")
    phi = tau_eps * stats.sw + tau_a * stats.w_k
    q = tau_a * stats.w_k * (tau_eps * stats.sw / phi)
    dev = stats.ybar - mu
    return (-0.5 * float(np.log(phi).sum())
            + 0.5 * stats.w_k_tot * math.log(tau_a) + 0.5 * stats.sw_tot * math.log(tau_eps)
            - 0.5 * (stats.sw_tot + stats.w_k_tot - stats.m) * math.log(2 * math.pi)
            - 0.5 * (tau_eps * stats.wss + float(q @ (dev * dev))))


def _centred_theta(theta, stats: _SuffStats) -> tuple[float, float, float]:
    """(mu - center, tau_a, tau_eps) from a ParamState or a 3-tuple."""
    if isinstance(theta, ParamState):
        theta = theta.mu, theta.tau_a, theta.tau_eps
    mu, tau_a, tau_eps = theta
    return float(mu) - stats.center, float(tau_a), float(tau_eps)


def _integrated_logpost_stats(mu: float, tau_a: float, tau_eps: float,
                              stats: _SuffStats, prior: PriorConfig) -> float:
    return (_integrated_loglik_stats(mu, tau_a, tau_eps, stats)
            + _gamma_logpdf(tau_a, prior.alpha1, prior.beta1)
            + _gamma_logpdf(tau_eps, prior.alpha2, prior.beta2))


def _integrated_logpost_x(mu: float, lta: float, lte: float, stats: _SuffStats,
                          prior: PriorConfig) -> float:
    """Integrated log posterior at (mu, log tau_a, log tau_eps), as a
    density in the precisions (no Jacobian); -inf where |log tau| > 600,
    beyond which exp over- or underflows."""
    if abs(lta) > _LOG_TAU_MAX or abs(lte) > _LOG_TAU_MAX:
        return -math.inf
    return _integrated_logpost_stats(mu, math.exp(lta), math.exp(lte), stats, prior)


def integrated_loglik(theta, sample, weights) -> float:
    """Log pseudo-likelihood with every a_k marginalized analytically.

    ``theta`` is (mu, tau_a, tau_eps) or a ParamState.  Per cluster the
    exponentiated value equals the integral over a_k of the weighted
    augmented integrand; the closed form is the reciprocal of a normal
    density at h_k times weighted normal kernels in tau_a and tau_eps.
    """
    stats = _suffstats(sample, weights)
    return _integrated_loglik_stats(*_centred_theta(theta, stats), stats)


def integrated_logposterior(theta, sample, weights, prior: PriorConfig) -> float:
    """integrated_loglik plus log priors; the MAP objective."""
    stats = _suffstats(sample, weights)
    return _integrated_logpost_stats(*_centred_theta(theta, stats), stats, prior)


# The collapse to x = log r, r = tau_a/tau_eps.  With d_k = sw_k + r w_k and
# u_k = w_k/d_k the integrated pseudo-posterior factorizes exactly (the
# variance-ratio reduction of the one-way model: Hill 1965, JASA 60:806; Box
# & Tiao 1973, ch. 5):
#   mu | x, tau_eps ~ N(mu*, 1/(tau_eps Q)),   tau_eps | x ~ Gamma(kappa + 3/2, rate B),
#   log p(x) = -1/2 sum log d_k + (W/2 + alpha1) x - 1/2 log Q - (kappa + 3/2) log B,
# up to a constant, where mu* = sum u_k swy_k / sum u_k sw_k, Q = r sum u_k sw_k,
# E = WSS + r sum u_k sw_k (ybar_k - mu*)^2, B = E/2 + beta1 r + beta2,
# W = sum w_k, S = sum sw_k and kappa = (S + W - m)/2 + alpha1 + alpha2 - 2.

def _kappa(stats: _SuffStats, prior: PriorConfig) -> float:
    return 0.5 * (stats.sw_tot + stats.w_k_tot - stats.m) + prior.alpha1 + prior.alpha2 - 2.0


def _conditionals(stats: _SuffStats, prior: PriorConfig, xs: np.ndarray):
    """(u_k sw_k, mu*, Q, B) at each x in ``xs``; u_k sw_k has one row per x."""
    r = np.exp(xs)
    u_sw = np.add.outer(r, stats.sw / stats.w_k)
    np.divide(stats.sw, u_sw, out=u_sw)
    u_tot = u_sw.sum(axis=1)
    mu = (u_sw @ stats.ybar) / u_tot
    dev = np.subtract.outer(mu, stats.ybar)
    dev *= dev
    dev *= u_sw
    b = 0.5 * (stats.wss + r * dev.sum(axis=1)) + prior.beta1 * r + prior.beta2
    return u_sw, mu, r * u_tot, b


def _collapsed(stats: _SuffStats, prior: PriorConfig, xs: np.ndarray, density: bool = True):
    """(log p(x), mu*(x), Q(x), B(x)) on an array of x = log(tau_a/tau_eps).

    Evaluated a block of about 2^14 (x, cluster) entries at a time, so that
    no (len(xs), m) array is held; log p is None unless ``density``.
    """
    xs = np.asarray(xs, dtype=float)
    rows = max(1, _BLOCK_ENTRIES // stats.m)
    mu, q, b, half_log_usw = np.empty((4, len(xs)))
    for start in range(0, len(xs), rows):
        block = slice(start, start + rows)
        u_sw, mu[block], q[block], b[block] = _conditionals(stats, prior, xs[block])
        if density:
            # -1/2 sum log d_k = 1/2 sum log(u_k sw_k) - 1/2 sum log(w_k sw_k)
            half_log_usw[block] = 0.5 * np.log(u_sw, out=u_sw).sum(axis=1)
    if not density:
        return None, mu, q, b
    logp = (half_log_usw + (0.5 * stats.w_k_tot + prior.alpha1) * xs
            - 0.5 * np.log(q) - (_kappa(stats, prior) + 1.5) * np.log(b))
    return logp, mu, q, b


# Both x searches (the MAP and the collapsed grid) run within |x| <= 700,
# where exp(x) neither over- nor underflows.  They start from the offsets
# 0, +-1, +-3, ..., +-2047 around a first guess, which span that range from
# any start, densest near it.
_LOG_R_MAX = 700.0
_GRID_OFFSETS = tuple(sorted({s * (2.0 ** j - 1.0) for j in range(12) for s in (-1, 1)}))
_GRID_SIZE = 257      # points per refinement of the collapsed grid
_GRID_DROP = 40.0     # the grid covers log p(x) down to this far below its maximum
_GRID_ROUNDS = 60     # a round at least halves the grid's span, so this is ample
_BLOCK_ENTRIES = 2 ** 14  # (x, cluster) entries per block of _collapsed


def _search_grid(x0: float) -> np.ndarray:
    x0 = min(max(x0, -_LOG_R_MAX), _LOG_R_MAX)
    return np.array([-_LOG_R_MAX, *(x0 + off for off in _GRID_OFFSETS
                                    if abs(x0 + off) < _LOG_R_MAX), _LOG_R_MAX])


def _x_grid(stats: _SuffStats, prior: PriorConfig):
    """Grid over x on which the collapsed density is drawn and integrated.

    The first pass scores the search offsets around the moment-based ratio;
    each later pass lays 257 points evenly over the span of the previous
    pass's points within 40 of its best, plus one point beyond on each
    side, until that span covers at least half of a pass's points.
    Returns (x, log p(x) with maximum 0, mu*, Q, B) on that span.  Raises PosteriorError when
    log p has not fallen 40 below its maximum at |x| = 700, when
    kappa + 3/2 <= 1/2, where E[sigma_eps] is infinite, or when
    W/2 + alpha1 <= 1, where E[sigma_a] and E|b0| are: p(x) exp(-x/2)
    grows like exp((W/2 + alpha1 - 1) x) as x -> -inf.
    """
    shape = _kappa(stats, prior) + 1.5
    if shape <= 0.5:
        raise PosteriorError(f"tau_eps | x has Gamma shape kappa + 3/2 = {shape:.6g} <= 1/2, "
                             "so sigma_eps has no finite posterior mean")
    if 0.5 * stats.w_k_tot + prior.alpha1 <= 1.0:
        raise PosteriorError(f"W/2 + alpha1 = {0.5 * stats.w_k_tot + prior.alpha1:.6g} <= 1, "
                             "so sigma_a and b0 have no finite posterior mean")
    _, ta0, te0 = _auto_init(stats)
    xs = _search_grid(math.log(ta0 / te0))
    for round_ in range(_GRID_ROUNDS):
        lp, mu, q, b = _collapsed(stats, prior, xs)
        top = float(np.max(lp))
        if not math.isfinite(top):
            raise PosteriorError(f"integrated log density in log(tau_a/tau_eps) reaches {top}")
        above = np.flatnonzero(lp >= top - _GRID_DROP)
        lo, hi = above[0] - 1, above[-1] + 1
        if round_ == 0 and (lo < 0 or hi == len(xs)):
            raise PosteriorError(
                f"integrated density in log(tau_a/tau_eps) has not fallen {_GRID_DROP:g} "
                f"below its maximum at |log(tau_a/tau_eps)| = {_LOG_R_MAX:g}")
        lo, hi = max(lo, 0), min(hi, len(xs) - 1)
        if hi - lo >= _GRID_SIZE // 2:
            keep = slice(lo, hi + 1)
            return xs[keep], lp[keep] - top, mu[keep], q[keep], b[keep]
        xs = np.linspace(xs[lo], xs[hi], _GRID_SIZE)
    raise PosteriorError("the grid in log(tau_a/tau_eps) did not resolve the density")


def _interval_masses(xs: np.ndarray, lp: np.ndarray):
    """Mass of each grid interval under exp of the linear interpolant of lp,
    with the interval widths h and rises z.  lp is floored at twice the grid
    drop; only the two end intervals reach there, and they hold under e^-40
    of the mass."""
    lp = np.maximum(lp, -2.0 * _GRID_DROP)
    h, z = np.diff(xs), np.diff(lp)
    flat = z == 0.0
    zs = np.where(flat, 1.0, z)
    return np.exp(lp[:-1]) * h * np.where(flat, 1.0, np.expm1(zs) / zs), h, zs, flat


def _draw_x(xs: np.ndarray, lp: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the piecewise log-linear density on the grid at u."""
    mass, h, z, flat = _interval_masses(xs, lp)
    cdf = np.cumsum(mass)
    v = u * cdf[-1]
    i = np.minimum(np.searchsorted(cdf, v, side="right"), len(mass) - 1)
    f = np.clip(1.0 - (cdf[i] - v) / mass[i], 0.0, 1.0)
    # within an interval the CDF is expm1(z t/h)/expm1(z); solve it for t
    t = np.where(flat[i], f, np.log1p(f * np.expm1(z[i])) / z[i])
    return xs[i] + h[i] * np.clip(t, 0.0, 1.0)


def posterior_means(sample, weights, prior: PriorConfig) -> dict:
    """Posterior means of b0, sigma_a and sigma_eps under the integrated
    pseudo-posterior, by quadrature over the grid ``run_integrated_mcmc``
    draws x from; deterministic.

    Given x, E[mu] = mu*, E[sigma_eps] = sqrt(B) Gamma(s - 1/2)/Gamma(s) with
    s = kappa + 3/2, and E[sigma_a] = exp(-x/2) E[sigma_eps]; each is
    averaged over the grid intervals, weighted by their masses.
    """
    stats = _suffstats(sample, weights)
    xs, lp, mu, _, b = _x_grid(stats, prior)
    mass = _interval_masses(xs, lp)[0]
    shape = _kappa(stats, prior) + 1.5
    sigma_eps = np.sqrt(b) * math.exp(math.lgamma(shape - 0.5) - math.lgamma(shape))
    given_x = {"b0": mu, "sigma_a": np.exp(-0.5 * xs) * sigma_eps, "sigma_eps": sigma_eps}
    means = {p: float(mass @ (0.5 * (v[:-1] + v[1:]))) / float(mass.sum())
             for p, v in given_x.items()}
    means["b0"] += stats.center
    return means


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _auto_init(stats: _SuffStats) -> tuple[float, float, float]:
    """Moment-based start: weighted mean, inverse weighted within-cluster
    residual variance, inverse variance of cluster means (floored at 1e-4)."""
    mu0 = stats.swy_tot / stats.sw_tot
    var_eps = max(stats.wss / stats.sw_tot, 1e-8)
    var_a = max(float(np.var(stats.ybar)), 1e-4)
    return mu0, 1.0 / var_a, 1.0 / var_eps


def _draw_collapsed(stats: _SuffStats, prior: PriorConfig, rng, n: int):
    """n independent draws of (mu - center, tau_a, tau_eps) from the
    integrated pseudo-posterior.

    x is drawn by inverse CDF from the piecewise log-linear interpolant of
    log p(x) on the grid of ``_x_grid``, then tau_eps | x ~ Gamma and
    mu | x, tau_eps ~ Normal exactly, at each draw's own x.  Raises
    PosteriorError where ``_x_grid`` does.
    """
    xs, lp, *_ = _x_grid(stats, prior)
    x = _draw_x(xs, lp, rng.uniform(size=n))
    gam = rng.standard_gamma(_kappa(stats, prior) + 1.5, size=n)
    z = rng.standard_normal(n)
    _, mu, q, b = _collapsed(stats, prior, x, density=False)
    tau_eps = gam / b
    mu += z / np.sqrt(tau_eps * q)
    tau_a = np.exp(x) * tau_eps
    if not (np.isfinite(mu).all() and np.isfinite(tau_a).all() and (tau_eps > 0).all()):
        raise PosteriorError("non-finite draw from the collapsed posterior")
    return mu, tau_a, tau_eps


def _draw_effects(stats: _SuffStats, mu: np.ndarray, tau_a: np.ndarray, tau_eps: np.ndarray,
                  rng) -> np.ndarray:
    """One row of cluster effects per draw of the centred (mu, tau_a,
    tau_eps): a_k ~ N(h_k, 1/phi_k) from ``_cond_a``, with the standard
    normals drawn from a copy of ``rng``, so every call returns the same
    array."""
    a = copy.deepcopy(rng).standard_normal((len(mu), stats.m))
    rows = max(1, _BLOCK_ENTRIES // stats.m)
    for start in range(0, len(mu), rows):
        block = slice(start, start + rows)
        h, phi = _cond_a(stats, mu[block, None], tau_a[block, None], tau_eps[block, None])
        a[block] /= np.sqrt(phi, out=phi)
        a[block] += h
    return a


def run_gibbs(sample, weights, prior: PriorConfig, chain: ChainConfig) -> DrawsMatrix:
    """Independent exact draws of the augmented state (mu, tau_a, tau_eps,
    a_1..a_m); not a Gibbs scan, though it targets the same pseudo-posterior.

    (mu, tau_a, tau_eps) is drawn as in ``run_integrated_mcmc``, since the
    augmented posterior's marginal is the integrated one, but from the
    substream (``chain.seed``, 1), so that the draws differ from
    ``run_integrated_mcmc``'s at the same seed.  Each
    a_k | mu, tau_a, tau_eps ~ N(h_k, 1/phi_k), the full conditional
    ``fc_a_k`` returns, is drawn only when the result's ``a`` is first read,
    from the generator where the (mu, tau_a, tau_eps) draws left it: the
    effects are the same whenever, and wherever, they are read.  Makes
    ``chain.n_draws`` draws; deterministic given ``chain.seed``; raises
    PosteriorError where ``_x_grid`` does.
    """
    stats = _suffstats(sample, weights)
    rng = substream(chain.seed, 1)
    mu, tau_a, tau_eps = _draw_collapsed(stats, prior, rng, chain.n_draws)
    return DrawsMatrix(mu=mu + stats.center, tau_a=tau_a, tau_eps=tau_eps,
                       a=partial(_draw_effects, stats, mu, tau_a, tau_eps, rng))


def run_integrated_mcmc(sample, weights, prior: PriorConfig, chain: ChainConfig) -> DrawsMatrix:
    """Independent draws from the integrated pseudo-posterior through its
    collapse to x = log(tau_a/tau_eps) (``_draw_collapsed``).

    Makes ``chain.n_draws`` i.i.d. draws, each counted as accepted
    (``acceptance_rate`` 1.0).  Raises PosteriorError where ``_x_grid``
    does.
    """
    stats = _suffstats(sample, weights)
    mu, tau_a, tau_eps = _draw_collapsed(stats, prior, substream(chain.seed), chain.n_draws)
    return DrawsMatrix(mu=mu + stats.center, tau_a=tau_a, tau_eps=tau_eps, a=None,
                       acceptance_rate=1.0)


_LOG_R_TOL = 1e-12  # above the spacing of doubles up to 1024, so bisection ends


def map_estimate(sample, weights, prior: PriorConfig, seed: int = 0):
    """Mode of the integrated log posterior, by a profile search in log r,
    r = tau_a/tau_eps.

    For fixed r the posterior is maximized in closed form by mu* (a
    weighted mean of the cluster means ybar_k), tau_eps* = kappa/B and
    tau_a* = r tau_eps*, with mu*, B and kappa those of the collapse above
    (``_conditionals``).  Only log r is searched: the search offsets around
    the moment-based ratio of ``_auto_init``, each point scored with the
    one integrated log posterior, then bisection between the neighbours of
    the best grid point on the sign of the profile's slope in log r,
    (W - m + sum s_k)/2 + alpha1 - 1 - kappa r (sum u_k sw_k s_k
    (ybar_k - mu*)^2/2 + beta1)/B with s_k = sw_k/d_k.  A root of the slope
    is placed to rounding, where comparing values near a flat maximum
    places it to the square root of rounding.  The bisection stops at the
    edge of ``|log tau| <= 600`` if the slope points out of it; its end
    points replace the best grid point only if they score higher.

    Returns ``(theta, loglik, converged)``: the best state found, the
    integrated log-likelihood there, and whether it is an interior mode.
    ``converged`` is False when the maximum lies on the edge of the
    searched range (``|log tau| <= 600``), and theta is that edge point;
    it is also False when kappa <= 0, where tau_eps has no mode, and theta
    is the moment-based start.  Neither case raises.  ``seed`` is accepted
    for compatibility and does not affect the result.
    """
    stats = _suffstats(sample, weights)
    mu0, ta0, te0 = _auto_init(stats)
    best = (mu0, math.log(ta0), math.log(te0))
    best_value = _integrated_logpost_x(*best, stats, prior)
    kappa = _kappa(stats, prior)
    converged = False
    if kappa > 0:
        def profile(x: float) -> tuple[float, float, float]:
            """(mu*, log tau_eps*, slope of the profile log posterior) at log r = x."""
            u_sw, mu, _, b = _conditionals(stats, prior, np.array([x]))
            u_sw, mu, b = u_sw[0], float(mu[0]), float(b[0])
            s_k = u_sw / stats.w_k
            dev2 = (stats.ybar - mu) ** 2
            slope = (0.5 * (stats.w_k_tot - stats.m + float(s_k.sum())) + prior.alpha1 - 1.0
                     - kappa * math.exp(x) * (0.5 * float((u_sw * s_k) @ dev2) + prior.beta1) / b)
            return mu, math.log(kappa) - math.log(b), slope

        def score(x: float) -> float:
            nonlocal best, best_value
            mu, lte, _ = profile(x)
            value = _integrated_logpost_x(mu, x + lte, lte, stats, prior)
            if value > best_value:
                best, best_value = (mu, x + lte, lte), value
            return value

        x0 = best[1] - best[2]
        grid = _search_grid(x0).tolist()
        values = [score(x) for x in grid]
        i = max(range(len(grid)), key=values.__getitem__)
        if 0 < i < len(grid) - 1 and math.isfinite(values[i]):
            a, b = grid[i - 1], grid[i + 1]
            while b - a > _LOG_R_TOL:
                c = 0.5 * (a + b)
                _, lte, slope = profile(c)
                # the points inside the |log tau| guard form an interval
                # around grid[i]; from outside it, step back toward grid[i]
                if max(abs(c + lte), abs(lte)) > _LOG_TAU_MAX:
                    a, b = (c, b) if c < grid[i] else (a, c)
                elif slope > 0:
                    a = c
                else:
                    b = c
            score(a)
            score(b)
            converged = max(abs(best[1]), abs(best[2])) < _LOG_TAU_MAX - 1e-6
    mu, lta, lte = best
    theta = ParamState(mu=float(mu) + stats.center, tau_a=math.exp(lta), tau_eps=math.exp(lte))
    ll = _integrated_loglik_stats(float(mu), theta.tau_a, theta.tau_eps, stats)
    return theta, float(ll), converged


def map_summary(theta: ParamState, loglik: float, converged: bool, mode: str = "") -> dict:
    """Estimator-summary JSON shape for the MAP route."""
    return {
        "mode": mode,
        "point_estimates": {"b0": theta.mu, "sigma_a": theta.sigma_a,
                            "sigma_eps": theta.sigma_eps},
        "posterior_sd": None,
        "quantiles": None,
        "acceptance_rate": None,
        "loglik": loglik,
        "converged": converged,
    }
