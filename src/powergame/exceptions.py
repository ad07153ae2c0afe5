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


class NoTargetSirError(ConfigError, SolverError):
    """The efficiency model has no tangent point, hence no target SIR; the
    packet size M is the key to change."""


class InfeasibleLoadError(ConfigError):
    """A requested system load violates the receiver's feasibility bound;
    the load, alpha, is the key to change."""

    def __init__(self, message: str):
        super().__init__("alpha", message)


class SingularSpreadingError(PowerGameError):
    """The spreading crosscorrelation matrix is rank deficient (decorrelator)."""


class InfeasibleUserError(PowerGameError):
    """A user cannot reach any positive SIR (zero gain or orthogonal filter)."""

    def __init__(self, user: int, message: str | None = None):
        self.user = user
        super().__init__(message or f"user {user} has zero output SIR; target unreachable")
