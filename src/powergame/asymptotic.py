"""Large-system closed forms: powers, utilities, Pareto targets, admission.

In the limit K, N -> infinity with K/N -> alpha, the SIR of every user
depends on the spreading sequences only through the load alpha. The balanced
received power that puts every user at SIR gamma, the load-dependent utility
factor Gamma, the feasibility bound per receiver, the cooperative (Pareto)
target SIR, and the total-utility-maximizing load all come out in closed form
or as one-dimensional root solves.
"""

from __future__ import annotations

import math

from .config import ReceiverKind, SystemParams
from .efficiency import (GAMMA_BRACKET, EfficiencyModel, eff_derivative,
                         eff_value, solve_gamma_star)
from .exceptions import InfeasibleLoadError, SolverError
from .rootfind import bisect, scan_brackets


def feasibility_bound(kind: ReceiverKind, gamma: float, m: int = 1) -> float:
    """Supremum of the loads at which SIR gamma is reachable by all users
    with m receive antennas: the single-antenna bound times m for the matched
    filter and MMSE receiver, unchanged for the decorrelator. Feasibility
    itself is decided by gamma_factor."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if kind is ReceiverKind.MATCHED_FILTER:
        return m * (1.0 / gamma)
    if kind is ReceiverKind.DECORRELATOR:
        return 1.0
    return m * (1.0 + 1.0 / gamma)


def gamma_factor(kind: ReceiverKind, alpha: float, gamma_star: float,
                 m: int = 1) -> float:
    """Load penalty Gamma in (0, 1] with m receive antennas: MF 1 - a g*,
    DE 1 - a, MMSE 1 - a g*/(1+g*) at the effective load a = alpha/m (MF,
    MMSE) or a = alpha (DE, whose per-antenna nulling burns m degrees of
    freedom per interferer). Raises InfeasibleLoadError unless a lies below
    the single-antenna feasibility bound."""
    limit = feasibility_bound(kind, gamma_star, m)
    # compare a with the single-antenna bound, never alpha with the limit:
    # the two round differently at m > 1
    load = alpha if kind is ReceiverKind.DECORRELATOR else alpha / m
    if load >= feasibility_bound(kind, gamma_star):
        raise InfeasibleLoadError(
            f"load alpha={alpha:g} infeasible for {kind.value} with m={m}: "
            f"requires alpha < {limit:g} at gamma={gamma_star:g}")
    if kind is ReceiverKind.MATCHED_FILTER:
        return 1.0 - load * gamma_star
    if kind is ReceiverKind.DECORRELATOR:
        return 1.0 - load
    return 1.0 - load * gamma_star / (1.0 + gamma_star)


def balanced_received_power(kind: ReceiverKind, alpha: float, gamma: float,
                            sigma2: float, m: int = 1) -> float:
    """Common received power q = gamma sigma2 / Gamma that balances all SIRs
    at gamma with m receive antennas, q pooled over the antennas."""
    return gamma * sigma2 / gamma_factor(kind, alpha, gamma, m)


def utility_coef(params: SystemParams, model: EfficiencyModel,
                 gamma: float) -> float:
    """Large-system utility per unit of Gamma h^2 at target SIR gamma:
    L R f(gamma) / (M gamma sigma2), bits/joule.

    Every user at SIR gamma transmits q/h^2 with q = gamma sigma2 / Gamma, so
    its utility (L/M) R f(gamma) h^2 / q is this coefficient times Gamma h^2.
    The non-cooperative, cooperative and m-antenna utilities all take this
    form, at gamma* or the Pareto target and with gamma_factor at the antenna
    count as Gamma (h^2 pooled over the antennas).
    """
    return (params.L * params.R * eff_value(model, gamma)
            / (params.M * gamma * params.sigma2))


def mmse_pareto_gap(gamma: float, alpha: float) -> float:
    """Factor g(gamma) = 1 - alpha gamma / ((1+gamma)^2 - alpha gamma^2)."""
    denom = (1.0 + gamma) ** 2 - alpha * gamma ** 2
    if denom <= 0:
        raise ValueError(
            f"(1+gamma)^2 - alpha gamma^2 must be positive, got {denom:g}")
    return 1.0 - alpha * gamma / denom


def _pareto_residual(kind: ReceiverKind, alpha: float, model: EfficiencyModel):
    """Stationarity residual of f(gamma)/q(gamma) for the cooperative target."""
    if kind is ReceiverKind.MATCHED_FILTER:
        return lambda g: eff_value(model, g) - g * (1.0 - alpha * g) * eff_derivative(model, g)
    return lambda g: (eff_value(model, g)
                      - g * mmse_pareto_gap(g, alpha) * eff_derivative(model, g))


def _pareto_upper(kind: ReceiverKind, alpha: float) -> float:
    """Upper search limit keeping q(gamma) and the residual well defined."""
    lo, hi = GAMMA_BRACKET
    margin = 1.0 - 1e-9
    if kind is ReceiverKind.MATCHED_FILTER:
        return min(hi, margin / alpha)  # q^MF diverges at gamma = 1/alpha
    if alpha > 1.0:
        # q^MMSE pole at gamma = 1/(alpha-1); g(..) pole at 1/(sqrt(alpha)-1)
        return min(hi, margin / (alpha - 1.0), margin / (math.sqrt(alpha) - 1.0))
    return hi


def solve_pareto_target(kind: ReceiverKind, alpha: float,
                        model: EfficiencyModel, tol: float = 1e-9) -> float:
    """Target SIR of the equal-weight, SIR-balanced cooperative optimum.

    For the decorrelator the cooperative and non-cooperative targets coincide,
    so the plain tangent solve is returned. Otherwise all upward crossings of
    the stationarity residual are refined and the one maximizing f(gamma)/q is
    kept, which guards against spurious stationary points.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if kind is ReceiverKind.DECORRELATOR or alpha == 0.0:
        return solve_gamma_star(model, tol)
    residual = _pareto_residual(kind, alpha, model)
    lo = GAMMA_BRACKET[0]
    hi = _pareto_upper(kind, alpha)
    brackets = scan_brackets(residual, lo, hi)
    if not brackets:
        raise SolverError(
            f"no stationary point of f/q on [{lo:g}, {hi:g}] for {kind.value} "
            f"at alpha={alpha:g}")
    roots = [bisect(residual, a, b, tol) for a, b in brackets]

    def ratio(g: float) -> float:
        return eff_value(model, g) / balanced_received_power(kind, alpha, g, 1.0)

    return max(roots, key=ratio)


def optimal_load(kind: ReceiverKind, gamma_star: float, m: int = 1) -> float:
    """Load maximizing total utility per degree of freedom (solves Gamma = 1/2).

    Gamma falls linearly from 1 at zero load to 0 at the feasibility bound,
    so the optimum is half the bound: with m receive antennas it scales with
    m for the matched filter and MMSE receiver and stays at 1/2 for the
    decorrelator.
    """
    return feasibility_bound(kind, gamma_star, m) / 2.0
