"""Survey-weighted estimation of (mu, sigma_a, sigma_eps) from a sample.

Three routes share one pseudo-posterior target:

* a Gibbs sampler over the augmented state (mu, tau_a, tau_eps, a_1..a_m)
  whose full conditionals are conjugate because the unit likelihood is
  exponentiated by the marginal weight ``w_jk`` and the random-effect
  prior by the cluster weight ``w_k``;
* adaptive random-walk Metropolis on (mu, log tau_a, log tau_eps) using
  the likelihood with every cluster effect marginalized out analytically;
* its mode, found by a one-dimensional search in log(tau_a/tau_eps): for
  each ratio the maximizing mu and tau_eps are in closed form.

Every density is computed once, from the per-cluster weighted sums in
``_SuffStats`` and their totals, taken once per chain.  The sums are of y
centred at its weighted mean, so that a large mean costs no digits; every
route works in the centred mu and adds the centre back to its results.
The public ``fc_*`` functions are views of the conditionals ``run_gibbs``
draws from; the integrated-MCMC and MAP routes share one integrated log
posterior on (mu, log tau_a, log tau_eps), which also scores the MAP
search.  The per-unit ``augmented_logpseudo*`` densities are the
independent reference the tests check those closed forms against.

Per iteration the kernels do only the vector work they need: a Gibbs sweep
draws the m cluster effects and reduces them to four dot products, from
which the mu, tau_a and tau_eps conditionals follow over the totals; the
integrated log posterior sums only phi h^2 and log phi over clusters; the
random-walk step carries its state as floats.  Each chain draws
``standard_normal(m)``, ``standard_normal()`` and two ``gamma`` per Gibbs
sweep and ``standard_normal(3)``, ``uniform()`` per RWM step, in that
order; a change to these calls changes the random streams.

Precisions ``tau`` are carried internally; reported scales are
``sigma = tau**-0.5`` applied per draw.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .csvio import write_csv
from .errors import ChainDivergenceError, ConfigError
from .rng import substream

log = logging.getLogger(__name__)

_TAU_MIN, _TAU_MAX = 1e-12, 1e12
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
            if not (isinstance(value, Real) and math.isfinite(value) and value > 0):
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
    n_iterations: int = 4000
    n_burnin: int = 2000
    thin: int = 1
    seed: int = 0
    init: ParamState | str = "auto"

    def __post_init__(self):
        if not 0 <= self.n_burnin < self.n_iterations:
            raise ConfigError("need 0 <= n_burnin < n_iterations")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")


@dataclass(frozen=True)
class DrawsMatrix:
    """Post-burn-in, thinned chain states with summary accessors."""

    mu: np.ndarray
    tau_a: np.ndarray
    tau_eps: np.ndarray
    a: np.ndarray | None = None          # (n_draws, m) for augmented chains
    acceptance_rate: float | None = None
    iterations: np.ndarray | None = None

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
        header = ["iteration", "mu", "sigma_a", "sigma_eps"]
        n_eff = self.a.shape[1] if (include_effects and self.a is not None) else 0
        header += [f"a_{k + 1}" for k in range(n_eff)]
        its = self.iterations if self.iterations is not None else np.arange(self.n_draws)
        sigma_a, sigma_eps = self.sigma_a, self.sigma_eps
        write_csv(path, header,
                  ([int(its[i]), self.mu[i], sigma_a[i], sigma_eps[i],
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
    chain."""

    w_k: np.ndarray    # cluster weights
    sw: np.ndarray     # sum_j w_jk
    swy: np.ndarray    # sum_j w_jk (y_jk - center)
    swyy: np.ndarray   # sum_j w_jk (y_jk - center)^2
    n_k: np.ndarray    # realized units per cluster
    center: float = 0.0  # weighted mean of y
    sw_tot: float = field(init=False)
    swy_tot: float = field(init=False)
    swyy_tot: float = field(init=False)
    w_k_tot: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sw_tot", float(self.sw.sum()))
        object.__setattr__(self, "swy_tot", float(self.swy.sum()))
        object.__setattr__(self, "swyy_tot", float(self.swyy.sum()))
        object.__setattr__(self, "w_k_tot", float(self.w_k.sum()))

    @property
    def m(self) -> int:
        return len(self.w_k)


def _suffstats(sample, weights) -> _SuffStats:
    w, starts = weights.w_marg, sample.offsets[:-1]
    center = float(w @ sample.y / w.sum())
    y = sample.y - center
    wy = w * y
    return _SuffStats(w_k=np.asarray(weights.w_k, dtype=float), sw=np.add.reduceat(w, starts),
                      swy=np.add.reduceat(wy, starts), swyy=np.add.reduceat(wy * y, starts),
                      n_k=sample.n_k, center=center)


# ---------------------------------------------------------------------------
# Full conditional pseudo-posterior distributions (augmented model)
# ---------------------------------------------------------------------------
# The _cond_* functions are what run_gibbs draws from; the public fc_* are
# views of them for one sample.  The conditionals of mu, tau_a and tau_eps
# see the cluster effects only through the four sums of _effect_sums.

def _cond_a(stats: _SuffStats, mu: float, tau_a: float, tau_eps: float):
    phi = tau_eps * stats.sw + tau_a * stats.w_k
    return tau_eps * (stats.swy - mu * stats.sw) / phi, phi


def _effect_sums(stats: _SuffStats, a: np.ndarray) -> tuple[float, float, float, float]:
    """(sum a_k sw_k, sum a_k swy_k, sum a_k^2 w_k, sum a_k^2 sw_k)."""
    aa = a * a
    return (float(a @ stats.sw), float(a @ stats.swy),
            float(aa @ stats.w_k), float(aa @ stats.sw))


def _cond_mu(stats: _SuffStats, a_sw: float, tau_eps: float):
    return (stats.swy_tot - a_sw) / stats.sw_tot, tau_eps * stats.sw_tot


def _cond_tau_a(stats: _SuffStats, aa_wk: float, prior: PriorConfig):
    return 0.5 * stats.w_k_tot + prior.alpha1, 0.5 * aa_wk + prior.beta1


def _cond_tau_eps(stats: _SuffStats, mu: float, a_sw: float, a_swy: float, aa_sw: float,
                  prior: PriorConfig):
    # sum_jk w_jk (y_jk - mu - a_k)^2, expanded over the totals
    ssr = (stats.swyy_tot - 2.0 * (mu * stats.swy_tot + a_swy)
           + mu * mu * stats.sw_tot + 2.0 * mu * a_sw + aa_sw)
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
    a_sw = _effect_sums(stats, np.asarray(a, dtype=float))[0]
    mean, prec = _cond_mu(stats, a_sw, tau_eps)
    return mean + stats.center, prec


def fc_tau_a(a: np.ndarray, w_k: np.ndarray, prior: PriorConfig):
    """Inverse-gamma full conditional for tau_a^-1: returns (shape, scale).

    Sampling tau_a itself is a Gamma(shape, rate=scale) draw.  Only the
    cluster weights enter, so the clusters are given no units.
    """
    w_k = np.asarray(w_k, dtype=float)
    zeros = np.zeros_like(w_k)
    stats = _SuffStats(w_k, zeros, zeros, zeros, zeros)
    aa_wk = _effect_sums(stats, np.asarray(a, dtype=float))[2]
    return _cond_tau_a(stats, aa_wk, prior)


def fc_tau_eps(mu: float, a: np.ndarray, sample, weights, prior: PriorConfig):
    """Inverse-gamma full conditional for tau_eps^-1: returns (shape, scale)."""
    stats = _suffstats(sample, weights)
    a_sw, a_swy, _, aa_sw = _effect_sums(stats, np.asarray(a, dtype=float))
    return _cond_tau_eps(stats, mu - stats.center, a_sw, a_swy, aa_sw, prior)


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
    # Per cluster: 0.5 phi h^2 - 0.5 log phi + 0.5 w_k log tau_a
    # + 0.5 sw log tau_eps - 0.5 tau_eps sum_j w_jk (y_jk - mu)^2, with h, phi
    # from _cond_a; only the first two terms are summed over clusters here,
    # the rest are taken from the per-chain totals.
    # The 2-pi power carries the weighted exponents (sw + w_k - 1)/2 so the
    # value equals the exact integral of the weighted augmented integrand,
    # not just the integral up to a theta-free constant.
    if tau_a <= 0 or tau_eps <= 0:
        raise ValueError("precisions must be positive")
    h, phi = _cond_a(stats, mu, tau_a, tau_eps)
    sw_res = stats.swyy_tot - 2.0 * mu * stats.swy_tot + mu * mu * stats.sw_tot
    return (0.5 * float(h @ (phi * h)) - 0.5 * float(np.log(phi).sum())
            + 0.5 * stats.w_k_tot * math.log(tau_a) + 0.5 * stats.sw_tot * math.log(tau_eps)
            - 0.5 * (stats.sw_tot + stats.w_k_tot - stats.m) * math.log(2 * math.pi)
            - 0.5 * tau_eps * sw_res)


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


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _auto_init(stats: _SuffStats) -> tuple[float, float, float]:
    """Moment-based start: weighted mean, inverse weighted within-cluster
    residual variance, inverse variance of cluster means (floored at 1e-4)."""
    mu0 = stats.swy_tot / stats.sw_tot
    ybar = stats.swy / stats.sw
    wss = float(np.sum(stats.swyy - stats.sw * ybar ** 2))
    var_eps = max(wss / stats.sw_tot, 1e-8)
    var_a = max(float(np.var(ybar)), 1e-4)
    return mu0, 1.0 / var_a, 1.0 / var_eps


def _resolve_init(init: ParamState | str, stats: _SuffStats) -> tuple[float, float, float]:
    """Starting (mu - center, tau_a, tau_eps)."""
    if isinstance(init, ParamState):
        return init.mu - stats.center, init.tau_a, init.tau_eps
    if init == "auto":
        return _auto_init(stats)
    raise ConfigError(f"unknown chain init: {init!r}")


def _clamp_tau(tau: float, what: str, it: int, warned: set) -> float:
    if not math.isfinite(tau):
        raise ChainDivergenceError(it, f"{what} non-finite at iteration {it}")
    if tau < _TAU_MIN or tau > _TAU_MAX:
        if what not in warned:
            log.warning("%s clamped to [%g, %g] at iteration %d", what, _TAU_MIN, _TAU_MAX, it)
            warned.add(what)
        return min(max(tau, _TAU_MIN), _TAU_MAX)
    return tau


def run_gibbs(sample, weights, prior: PriorConfig, chain: ChainConfig) -> DrawsMatrix:
    """Gibbs scan over (a_1..a_m | ...), (mu | ...), (tau_a | ...), (tau_eps | ...).

    Each update draws from the same conditional the public ``fc_*``
    function returns.  Deterministic given ``chain.seed``; raises
    ChainDivergenceError (with the iteration index) on a non-finite state.
    """
    stats = _suffstats(sample, weights)
    rng = substream(chain.seed)
    mu, tau_a, tau_eps = _resolve_init(chain.init, stats)
    warned: set = set()

    its = np.arange(chain.n_burnin, chain.n_iterations, chain.thin)
    kept = np.empty((len(its), 3))
    a_kept = np.empty((len(its), stats.m))
    for it in range(chain.n_iterations):
        h, phi = _cond_a(stats, mu, tau_a, tau_eps)
        a = h + rng.standard_normal(stats.m) / np.sqrt(phi)
        a_sw, a_swy, aa_wk, aa_sw = _effect_sums(stats, a)

        mean_mu, prec_mu = _cond_mu(stats, a_sw, tau_eps)
        mu = mean_mu + rng.standard_normal() / math.sqrt(prec_mu)

        shape1, scale1 = _cond_tau_a(stats, aa_wk, prior)
        tau_a = _clamp_tau(rng.gamma(shape1, 1.0 / scale1), "tau_a", it, warned)

        shape2, scale2 = _cond_tau_eps(stats, mu, a_sw, a_swy, aa_sw, prior)
        tau_eps = _clamp_tau(rng.gamma(shape2, 1.0 / scale2), "tau_eps", it, warned)

        # every sw_k > 0, so a non-finite a_k makes a_sw non-finite
        if not (math.isfinite(mu) and math.isfinite(a_sw)):
            raise ChainDivergenceError(it)
        if it >= chain.n_burnin and (it - chain.n_burnin) % chain.thin == 0:
            i = (it - chain.n_burnin) // chain.thin
            kept[i] = mu, tau_a, tau_eps
            a_kept[i] = a

    mus, tas, tes = kept.T.copy()
    return DrawsMatrix(mu=mus + stats.center, tau_a=tas, tau_eps=tes, a=a_kept, iterations=its)


def run_integrated_mcmc(sample, weights, prior: PriorConfig, chain: ChainConfig) -> DrawsMatrix:
    """Adaptive random-walk Metropolis on x = (mu, log tau_a, log tau_eps).

    The target is the integrated log posterior plus the log-Jacobian
    log tau_a + log tau_eps of the log transforms.  Per-coordinate proposal
    scales track the running chain standard deviations and a global scale
    adapts toward 0.234 acceptance; adaptation freezes after burn-in, over
    which the acceptance rate is recorded.
    """
    stats = _suffstats(sample, weights)
    rng = substream(chain.seed)
    mu0, ta0, te0 = _resolve_init(chain.init, stats)
    # state, proposal scales and running moments, one float per coordinate
    x0, x1, x2 = mu0, math.log(ta0), math.log(te0)
    lp = _integrated_logpost_x(x0, x1, x2, stats, prior) + x1 + x2
    if not math.isfinite(lp):
        raise ChainDivergenceError(0, "non-finite log posterior at initialization")

    sd0 = max(1.0 / math.sqrt(te0 * stats.sw_tot), 1e-3)
    sd1 = max(math.sqrt(2.0 / stats.m), 1e-3)
    sd2 = max(math.sqrt(2.0 / stats.n_k.sum()), 1e-3)
    log_scale = math.log(2.38 / math.sqrt(3.0))
    mean0, mean1, mean2 = x0, x1, x2
    m2_0 = m2_1 = m2_2 = 0.0
    accepted = proposals = 0

    its = np.arange(chain.n_burnin, chain.n_iterations, chain.thin)
    kept = np.empty((len(its), 3))
    for it in range(chain.n_iterations):
        adapting = it < chain.n_burnin
        scale = math.exp(log_scale)
        z0, z1, z2 = rng.standard_normal(3).tolist()
        p0, p1, p2 = x0 + scale * sd0 * z0, x1 + scale * sd1 * z1, x2 + scale * sd2 * z2
        lp_prop = _integrated_logpost_x(p0, p1, p2, stats, prior) + p1 + p2
        if math.isnan(lp_prop):
            raise ChainDivergenceError(it, f"NaN log posterior at iteration {it}")
        alpha = min(1.0, math.exp(min(0.0, lp_prop - lp)))
        accept = rng.uniform() < alpha
        if accept:
            x0, x1, x2, lp = p0, p1, p2, lp_prop
        if adapting:
            log_scale += (it + 1) ** -0.6 * (alpha - 0.234)
            log_scale = min(max(log_scale, -10.0), 5.0)
            d0, d1, d2 = x0 - mean0, x1 - mean1, x2 - mean2
            mean0 += d0 / (it + 1)
            mean1 += d1 / (it + 1)
            mean2 += d2 / (it + 1)
            m2_0 += d0 * (x0 - mean0)
            m2_1 += d1 * (x1 - mean1)
            m2_2 += d2 * (x2 - mean2)
            if it >= 200:
                sd0 = max(math.sqrt(m2_0 / it), 1e-6)
                sd1 = max(math.sqrt(m2_1 / it), 1e-6)
                sd2 = max(math.sqrt(m2_2 / it), 1e-6)
        else:
            proposals += 1
            accepted += int(accept)
        if it >= chain.n_burnin and (it - chain.n_burnin) % chain.thin == 0:
            kept[(it - chain.n_burnin) // chain.thin] = x0, math.exp(x1), math.exp(x2)

    mus, tas, tes = kept.T.copy()
    return DrawsMatrix(mu=mus + stats.center, tau_a=tas, tau_eps=tes, a=None,
                       acceptance_rate=accepted / max(proposals, 1), iterations=its)


# The MAP search runs over log r, r = tau_a/tau_eps, within +-700, where
# exp(log r) neither over- nor underflows; for any tau_eps* inside
# exp(+-100) the |log tau| guard cuts in first.  Grid offsets from the
# start are 0, +-1, +-3, ..., +-2047, so the grid spans that range from any
# start, densest near it.
_LOG_R_MAX = 700.0
_GRID_OFFSETS = tuple(sorted({s * (2.0 ** j - 1.0) for j in range(12) for s in (-1, 1)}))
_LOG_R_TOL = 1e-12  # above the spacing of doubles up to 1024, so bisection ends


def map_estimate(sample, weights, prior: PriorConfig, init: ParamState | str = "auto",
                 seed: int = 0):
    """Mode of the integrated log posterior, by a profile search in log r,
    r = tau_a/tau_eps.

    For fixed r, with d_k = sw_k + r w_k and u_k = w_k/d_k, the posterior
    is maximized in closed form by mu* = sum u_k swy_k / sum u_k sw_k (a
    weighted mean of the cluster means ybar_k) and tau_eps* =
    kappa/(E/2 + beta1 r + beta2), tau_a* = r tau_eps*, where
    E = WSS + r sum u_k sw_k (ybar_k - mu*)^2 is the weighted residual sum
    of squares at mu*, WSS its within-cluster part and
    kappa = (S + W - m)/2 + alpha1 + alpha2 - 2.  Only log r is searched:
    a grid around the ratio of ``init``, each point scored with the one
    integrated log posterior, then bisection between the neighbours of the
    best grid point on the sign of the profile's slope in log r,
    (W - m + sum s_k)/2 + alpha1 - 1 - kappa r (sum u_k sw_k s_k
    (ybar_k - mu*)^2/2 + beta1)/B with s_k = sw_k/d_k, B = E/2 + beta1 r +
    beta2.  A root of the slope is placed to rounding, where comparing
    values near a flat maximum places it to the square root of rounding.
    The bisection stops at the edge of ``|log tau| <= 600`` if the slope
    points out of it; its end points replace the best grid point only if
    they score higher.

    Returns ``(theta, loglik, converged)``: the best state found, the
    integrated log-likelihood there, and whether it is an interior mode.
    ``converged`` is False when the maximum lies on the edge of the
    searched range (``|log tau| <= 600``), and theta is that edge point;
    it is also False when kappa <= 0, where tau_eps has no mode, and theta
    is the start.  Neither case raises.  ``seed`` is accepted for
    compatibility and does not affect the result.
    """
    stats = _suffstats(sample, weights)
    mu0, ta0, te0 = _resolve_init(init, stats)
    best = (mu0, math.log(ta0), math.log(te0))
    best_value = _integrated_logpost_x(*best, stats, prior)
    kappa = 0.5 * (stats.sw_tot + stats.w_k_tot - stats.m) + prior.alpha1 + prior.alpha2 - 2.0
    converged = False
    if kappa > 0:
        ybar = stats.swy / stats.sw
        wss = float(np.sum(stats.swyy - stats.swy * ybar))
        sw_over_w = stats.sw / stats.w_k

        def profile(x: float) -> tuple[float, float, float]:
            """(mu*, log tau_eps*, slope of the profile log posterior) at log r = x."""
            r = math.exp(x)
            u_sw = stats.sw / (sw_over_w + r)
            s_k = u_sw / stats.w_k
            mu = float(u_sw @ ybar) / float(u_sw.sum())
            dev2 = (ybar - mu) ** 2
            b = 0.5 * (wss + r * float(u_sw @ dev2)) + prior.beta1 * r + prior.beta2
            slope = (0.5 * (stats.w_k_tot - stats.m + float(s_k.sum())) + prior.alpha1 - 1.0
                     - kappa * r * (0.5 * float((u_sw * s_k) @ dev2) + prior.beta1) / b)
            return mu, math.log(kappa) - math.log(b), slope

        def score(x: float) -> float:
            nonlocal best, best_value
            mu, lte, _ = profile(x)
            value = _integrated_logpost_x(mu, x + lte, lte, stats, prior)
            if value > best_value:
                best, best_value = (mu, x + lte, lte), value
            return value

        x0 = best[1] - best[2]
        grid = [-_LOG_R_MAX, *(x0 + off for off in _GRID_OFFSETS if abs(x0 + off) < _LOG_R_MAX),
                _LOG_R_MAX]
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
