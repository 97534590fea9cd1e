"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration (nonpositive scale, zero clusters, bad chain lengths)."""


class DesignError(ValueError):
    """Invalid sampling-design request (n exceeding frame size, zero inclusion probability)."""


class PosteriorError(ValueError):
    """The pseudo-posterior cannot be drawn from: its density in
    log(tau_a/tau_eps) is not finite or does not decay inside the searched
    range, or sigma_a or sigma_eps has no finite posterior mean."""

