"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration (nonpositive scale, zero clusters, bad chain lengths)."""


class DesignError(ValueError):
    """Invalid sampling-design request (n exceeding frame size, zero inclusion probability)."""


class PosteriorError(ValueError):
    """The integrated pseudo-posterior cannot be drawn from: its density in
    log(tau_a/tau_eps) does not decay inside the searched range, or sigma_a
    or sigma_eps has no finite posterior mean."""


class ChainDivergenceError(RuntimeError):
    """A Markov chain produced a non-finite state."""

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"chain diverged at iteration {iteration}")
