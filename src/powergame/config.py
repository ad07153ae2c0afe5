"""The config types. They load no numpy, so the CLI can build a config, and
`gamma-star` run, without it."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .exceptions import ConfigError, Record, check_value

# pass cap of a finite equilibrium solve: Newton steps plus best responses
DEFAULT_MAX_ITER = 500
# ScenarioConfig's last fields and their defaults, also their config keys'
SCENARIO_DEFAULTS = dict(d_min=10.0, d_max=1000.0, n_grid=(25, 50, 100),
                         max_iter=DEFAULT_MAX_ITER)


class ReceiverKind(Enum):
    MATCHED_FILTER = "MF"
    DECORRELATOR = "DE"
    MMSE = "MMSE"


class SystemParams(Record, namedtuple(
        "SystemParams", "K N sigma2 R L M Pmax m", defaults=(1,))):
    """Static system parameters, an immutable named tuple.

    K      number of users
    N      processing gain (spreading sequence length)
    sigma2 noise power, W
    R      transmission rate, bits/s
    L      information bits per packet
    M      total bits per packet (L <= M)
    Pmax   transmit power cap, W
    m      receive antennas
    """

    __slots__ = ()

    def _check(self):
        for key in ("K", "N", "L", "M", "sigma2", "R", "Pmax"):
            check_value(key, getattr(self, key))
        check_value("antennas", (self.m,))  # no config key sets m
        if self.L > self.M:
            raise ConfigError("L", f"must be <= M, got L={self.L}, M={self.M}")


class SweepMode(Enum):
    NONCOOPERATIVE = "noncoop"
    PARETO = "pareto"
    BOTH = "both"


class ScenarioConfig(Record, namedtuple(
        "ScenarioConfig", "params model kinds alpha_grid trials master_seed "
        "distance antennas mode " + " ".join(SCENARIO_DEFAULTS),
        defaults=SCENARIO_DEFAULTS.values())):
    """One table's config, an immutable named tuple; the fields with a
    default are SCENARIO_DEFAULTS's."""

    __slots__ = ()

    def _check(self):
        # each ConfigError names the config key that sets the field, the
        # field's own name but for three; params, model and mode have no rule
        keys = dict(kinds="receiver", alpha_grid="alpha_range",
                    master_seed="seed")
        for field, value in zip(self._fields, self):
            check_value(keys.get(field, field), value)
        if self.d_min >= self.d_max:
            raise ConfigError("d_min", f"must be below d_max={self.d_max}, got {self.d_min}")
        if not self.kinds:
            raise ConfigError("receiver", "must not be empty")
