"""Exception types shared across the package, the config value checks, and
the base of the records that run them."""

import math


class PowerGameError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(PowerGameError, ValueError):
    """A configuration value, or a combination of values, that the table
    asked for cannot use; ``key`` names the config key to change."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


# config key -> the least value it takes; the other one-key rules below
_MINIMUM = dict(K=1, N=1, L=1, M=1, trials=1, max_iter=1, seed=0)
_POSITIVE = ("sigma2", "R", "Pmax", "distance", "d_min", "d_max")


def check_value(key: str, value) -> None:
    """Raise ConfigError on key unless value meets the one-key rule of key,
    if key has one; the config records run it on their fields, the CLI on
    every value."""
    if key in _MINIMUM and value < _MINIMUM[key]:
        raise ConfigError(key, f"must be >= {_MINIMUM[key]}, got {value}")
    if key in _POSITIVE or key == "alpha_range":
        grid = value if key == "alpha_range" else (value,)
        for low, high in zip((0.0, *grid), grid):
            if not (math.isfinite(high) and high > 0):
                raise ConfigError(key, f"must be positive and finite, got {high}")
            if high <= low:
                raise ConfigError(key, f"must increase, got {high} after {low}")
    if key in ("antennas", "n_grid"):
        listing = ",".join(map(str, value))
        if not value or min(value) < 1:
            raise ConfigError(key, f"expected positive integers, got {listing!r}")
        if len(set(value)) != len(value):
            raise ConfigError(key, f"repeated value in {listing!r}")


class Record(tuple):
    """Base of an immutable named tuple whose _check, its value rules, runs
    on every record built by its constructor or _make, and so by _replace:
    class Rec(Record, collections.namedtuple("Rec", fields)). A subclass
    with a __new__ of its own checks there instead."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    # namedtuple's own _make, which _replace calls, skips __new__
    _make = classmethod(lambda cls, values: cls(*values))


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

    def __init__(self, user: int):
        self.user = user
        super().__init__(f"user {user} has zero output SIR; target unreachable")
