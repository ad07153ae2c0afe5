"""Exception types shared across the package."""


class PowerGameError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(PowerGameError, ValueError):
    """A configuration value, or a combination of values, that the table
    asked for cannot use; ``key`` names the config key to change."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class SolverError(PowerGameError):
    """A numerical solver failed to bracket or converge."""


class InfeasibleLoadError(PowerGameError):
    """A requested system load violates the receiver's feasibility bound."""


class SingularSpreadingError(PowerGameError):
    """The spreading crosscorrelation matrix is rank deficient (decorrelator)."""


class InfeasibleUserError(PowerGameError):
    """A user cannot reach any positive SIR (zero gain or orthogonal filter)."""

    def __init__(self, user: int, message: str | None = None):
        self.user = user
        super().__init__(message or f"user {user} has zero output SIR; target unreachable")
