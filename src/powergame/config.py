"""The config types. They load no numpy, so the CLI can build a config, and
`gamma-star` run, without it."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .efficiency import EfficiencyModel
from .exceptions import ConfigError, check_value

# best-response sweep cap of a finite equilibrium solve
DEFAULT_MAX_ITER = 500


class ReceiverKind(Enum):
    MATCHED_FILTER = "MF"
    DECORRELATOR = "DE"
    MMSE = "MMSE"


@dataclass(frozen=True)
class SystemParams:
    """Static system parameters.

    K      number of users
    N      processing gain (spreading sequence length)
    sigma2 noise power, W
    R      transmission rate, bits/s
    L      information bits per packet
    M      total bits per packet (L <= M)
    Pmax   transmit power cap, W
    m      receive antennas
    """

    K: int
    N: int
    sigma2: float
    R: float
    L: int
    M: int
    Pmax: float
    m: int = 1

    def __post_init__(self):
        for key in ("K", "N", "L", "M", "sigma2", "R", "Pmax"):
            check_value(key, getattr(self, key))
        check_value("antennas", (self.m,))  # no config key sets m
        if self.L > self.M:
            raise ConfigError("L", f"must be <= M, got L={self.L}, M={self.M}")


class SweepMode(Enum):
    NONCOOPERATIVE = "noncoop"
    PARETO = "pareto"
    BOTH = "both"


@dataclass(frozen=True)
class ScenarioConfig:
    params: SystemParams
    model: EfficiencyModel
    kinds: tuple
    alpha_grid: tuple
    trials: int
    master_seed: int
    distance: float
    antennas: tuple
    mode: SweepMode
    d_min: float = 10.0      # annulus placement radii for admission runs
    d_max: float = 1000.0
    n_grid: tuple = (25, 50, 100)
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        # each ConfigError names the config key that sets the field
        for key, value in (("trials", self.trials), ("max_iter", self.max_iter),
                           ("seed", self.master_seed), ("distance", self.distance),
                           ("d_min", self.d_min), ("d_max", self.d_max),
                           ("alpha_range", self.alpha_grid),
                           ("antennas", self.antennas), ("n_grid", self.n_grid)):
            check_value(key, value)
        if self.d_min >= self.d_max:
            raise ConfigError("d_min", f"must be below d_max={self.d_max}, got {self.d_min}")
        if not self.kinds:
            raise ConfigError("receiver", "must not be empty")
