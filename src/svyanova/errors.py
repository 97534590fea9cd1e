"""Exception types shared across the package, and the integer check that
every configuration applies to its counts and seeds."""

from numbers import Integral


class ConfigError(ValueError):
    """Invalid configuration (nonpositive scale, zero clusters, no draws)."""


class DesignError(ValueError):
    """Invalid sampling-design request (n exceeding frame size, zero inclusion probability)."""


class PosteriorError(ValueError):
    """The pseudo-posterior cannot be drawn from: its density in
    log(tau_a/tau_eps) is not finite or does not decay inside the searched
    range, or sigma_a or sigma_eps has no finite posterior mean."""


def require_int(value, key: str, least: int) -> int:
    """``value`` as an int if it is an integer (not a bool) of at least
    ``least``; otherwise a ConfigError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return int(value)
