"""Packet-success efficiency functions and the utility-maximizing target SIR.

Two efficiency shapes are supported:

* ``EXP_APPROX``: f(g) = (1 - exp(-g))^M, an analytic stand-in for the
  packet success rate that is exactly 0 at g = 0.
* ``BPSK_AWGN``: the BPSK packet success rate (1 - Q(sqrt(2 g)))^M shifted
  down by its value at zero, so f(0) = 0 holds exactly as well.

The target SIR is the unique positive solution of f(g) = g f'(g), i.e. the
point where a line through the origin is tangent to f. Every user drives
its transmit power toward this SIR regardless of receiver type.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from enum import Enum

from .exceptions import NoTargetSirError, Record, check_value
from .rootfind import bisect, scan_brackets

GAMMA_BRACKET = (1e-6, 1e3)  # search window for the tangent condition


class EfficiencyKind(Enum):
    EXP_APPROX = "exp"
    BPSK_AWGN = "bpsk"


class EfficiencyModel(Record, namedtuple("EfficiencyModel", "kind M")):
    """Efficiency shape plus packet size M (total bits per packet)."""

    __slots__ = ()

    def _check(self):
        check_value("M", self.M)


def _log_exp_base(gamma: float) -> float:
    """log(1 - e^-gamma), accurate for both tiny and large gamma."""
    if gamma < math.log(2.0):
        return math.log(-math.expm1(-gamma))
    return math.log1p(-math.exp(-gamma))


def _log_bpsk_base(gamma: float) -> float:
    """log(1 - Q(sqrt(2 gamma))), with Q(x) = erfc(x / sqrt(2)) / 2."""
    return math.log1p(-0.5 * math.erfc(math.sqrt(gamma)))


def eff_value(model: EfficiencyModel, gamma: float) -> float:
    """Evaluate f(gamma); lies in [0, 1) and is exactly 0 at gamma = 0.

    Powers of near-1 bases are taken as exp(M log(base)), which stays
    ulp-accurate where libm pow drifts by tens of ulps. Below gamma = 1e-3
    shifted BPSK is (1/2)^M expm1(M log1p(erf(sqrt(gamma)))) instead.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if gamma == 0.0:
        return 0.0
    if model.kind is EfficiencyKind.EXP_APPROX:
        return math.exp(model.M * _log_exp_base(gamma))
    # shifted BPSK: subtract the zero-SIR guessing floor (1/2)^M
    if gamma < 1e-3:  # where the difference below cancels
        # the exponent is below 0.04 M here, so past 700, where expm1 would
        # overflow, (1/2)^M and the true value are both 0
        grow = model.M * math.log1p(math.erf(math.sqrt(gamma)))
        return 0.5 ** model.M * math.expm1(min(grow, 700.0))
    return math.exp(model.M * _log_bpsk_base(gamma)) - 0.5 ** model.M


def eff_derivative(model: EfficiencyModel, gamma: float) -> float:
    """Closed-form f'(gamma).

    For the BPSK kind the slope diverges at gamma = 0 (the success rate has a
    sqrt(gamma) leading term), so +inf is returned there.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    M = model.M
    if model.kind is EfficiencyKind.EXP_APPROX:
        if gamma == 0.0:
            return 1.0 if M == 1 else 0.0
        return M * math.exp(-gamma + (M - 1) * _log_exp_base(gamma))
    if gamma == 0.0:
        return math.inf
    return (M * math.exp(-gamma + (M - 1) * _log_bpsk_base(gamma))
            / (2.0 * math.sqrt(math.pi * gamma)))


@functools.lru_cache  # pure in model; exceptions are not cached
def solve_gamma_star(model: EfficiencyModel) -> float:
    """Solve f(g) = g f'(g) for the target SIR by bracketed bisection.

    The residual g f'(g) - ... is scanned on a geometric grid over
    ``GAMMA_BRACKET`` and the rightmost upward crossing is refined to
    rootfind's absolute tolerance BISECT_TOL. The rightmost crossing is the
    one that maximizes f(g)/g away from the origin; the shifted BPSK curve
    has a spurious sliver of positive residual at tiny g that this skips.

    Raises NoTargetSirError, a SolverError and a ConfigError on key M, when
    no crossing exists: the model is not S-shaped, e.g. EXP_APPROX with
    M = 1 is concave everywhere, and BPSK_AWGN needs M >= 7.
    """
    def residual(g: float) -> float:
        return eff_value(model, g) - g * eff_derivative(model, g)

    brackets = scan_brackets(residual, *GAMMA_BRACKET)
    if not brackets:
        raise NoTargetSirError("M", f"eff={model.kind.value} has no target "
                               f"SIR at M={model.M}: f(g) = g f'(g) has no "
                               "root, the efficiency is not S-shaped; use a "
                               "larger M")
    return bisect(residual, *brackets[-1])
