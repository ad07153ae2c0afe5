"""Best-response power iteration to the SIR-balanced Nash equilibrium.

Because the output SIR of every linear receiver considered here is
proportional to the user's own transmit power at fixed interference, the
exact best response to a target SIR g* is the multiplicative correction
p <- min(p * g*/gamma, Pmax). Sweeping that update synchronously over all
users is a standard interference-function iteration and converges to the
unique fixed point from any positive start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .efficiency import EfficiencyModel, solve_gamma_star
from .exceptions import InfeasibleUserError
from .system import (ChannelRealization, ReceiverKind, SystemParams,
                     effective_system, make_sir_engine, output_sir,
                     receiver_filter, receiver_filters, utility)

INITIAL_POWER_FRACTION = 1e-2  # starting powers as a fraction of Pmax
DEFAULT_MAX_ITER = 500
POWER_TOL = 1e-9  # largest relative power change of a settled sweep
SIR_TOL = 1e-6    # relative SIR error allowed for users below Pmax
PROBE_GRID_SIZE = 16  # deviations per user in verify_nash, 0.5x .. 2x
NASH_REL_TOL = 1e-6   # relative utility gain a deviation must beat


@dataclass
class EquilibriumResult:
    powers: np.ndarray     # W
    sirs: np.ndarray
    utilities: np.ndarray  # bits/joule
    iterations: int
    converged: bool
    clamped_users: frozenset


def best_response_power(k: int, powers, realization: ChannelRealization,
                        kind: ReceiverKind, gamma_star: float, sigma2: float,
                        Pmax: float) -> float:
    """One exact best-response step for user k against the current powers.

    The kind-specific filter is recomputed from the current interferer powers,
    the resulting SIR is measured, and the power that would hit gamma_star is
    returned (clamped at Pmax). Exact because gamma is linear in p_k. Any
    antenna count: the filter plays on effective_system, with sqrt(h2)
    exactly h at m = 1.
    """
    powers = np.asarray(powers, dtype=float)
    S, h2 = effective_system(kind, realization.S, realization.H)
    heff = np.sqrt(h2)
    c = receiver_filter(kind, k, S, heff, powers, sigma2)
    g = output_sir(c, k, S, heff, powers, sigma2)
    if g <= 0.0:
        raise InfeasibleUserError(k)
    return float(min(powers[k] * gamma_star / g, Pmax))


def solve_from_engine(sirs_fn: Callable[[np.ndarray], np.ndarray], K: int,
                      params: SystemParams, model: EfficiencyModel,
                      gamma_star: float,
                      max_iter: int = DEFAULT_MAX_ITER) -> EquilibriumResult:
    """Run synchronous best-response sweeps until the powers settle.

    The result is converged when the sweeps settled within max_iter, every
    user below Pmax sits at gamma_star within SIR_TOL, and at least one user
    is below Pmax. A result with every user clamped at Pmax is not
    converged: no one reaches the target SIR, so it is not the equilibrium
    the game describes.
    """
    Pmax = params.Pmax
    p = np.full(K, INITIAL_POWER_FRACTION * Pmax)
    iterations = 0
    settled = False
    for iterations in range(1, max_iter + 1):
        g = sirs_fn(p)
        if np.any(g <= 0.0):
            raise InfeasibleUserError(int(np.argmax(g <= 0.0)))
        p_new = np.minimum(p * gamma_star / g, Pmax)
        delta = float(np.max(np.abs(p_new - p) / p))
        p = p_new
        if delta < POWER_TOL:
            settled = True
            break

    sirs = sirs_fn(p)
    clamped = frozenset(np.flatnonzero(p >= Pmax * (1.0 - 1e-12)).tolist())
    unclamped = [k for k in range(K) if k not in clamped]
    sir_ok = all(abs(sirs[k] - gamma_star) / gamma_star <= SIR_TOL for k in unclamped)
    utilities = np.array([utility(p[k], sirs[k], params, model) for k in range(K)])
    return EquilibriumResult(powers=p, sirs=sirs, utilities=utilities,
                             iterations=iterations,
                             converged=settled and sir_ok and bool(unclamped),
                             clamped_users=clamped)


def solve_channel(S, H, kind: ReceiverKind, params: SystemParams,
                  model: EfficiencyModel, max_iter: int = DEFAULT_MAX_ITER,
                  gamma_star: float | None = None) -> EquilibriumResult:
    """SIR-balanced equilibrium for spreading S (N x K) and gains H (m x K).

    Any antenna count m: the sweeps run on effective_system(kind, S, H).
    Stops when the largest relative power change over a sweep drops below
    POWER_TOL or when max_iter sweeps have run; non-convergence is reported
    through the result, not raised, so Monte Carlo harnesses can decide.
    """
    if gamma_star is None:
        gamma_star = solve_gamma_star(model)
    S, h2 = effective_system(kind, S, H)
    return solve_from_engine(make_sir_engine(kind, S, h2, params.sigma2),
                             S.shape[1], params, model, gamma_star, max_iter)


def solve_equilibrium(realization: ChannelRealization, kind: ReceiverKind,
                      params: SystemParams, model: EfficiencyModel,
                      max_iter: int = DEFAULT_MAX_ITER,
                      gamma_star: float | None = None) -> EquilibriumResult:
    """Drive all users of one realization to the SIR-balanced equilibrium
    (solve_channel on its spreading and gains)."""
    return solve_channel(realization.S, realization.H, kind, params, model,
                         max_iter, gamma_star)


def verify_nash(result: EquilibriumResult, realization: ChannelRealization,
                kind: ReceiverKind, params: SystemParams,
                model: EfficiencyModel) -> bool:
    """Probe unilateral deviations and confirm no user can gain.

    Each user's power is swept over a multiplicative grid 0.5x .. 2x of its
    equilibrium value (capped at Pmax) with everyone else frozen. No filter
    depends on the deviating user's own power, so all K filters come from one
    factorization at the equilibrium powers (receiver_filters), and each
    user's output SIR is its own power times a fixed SIR per watt, computed
    from the explicit filters rather than taken from the result. Any
    antenna count: the filters play on effective_system.
    """
    S, h2 = effective_system(kind, realization.S, realization.H)
    powers = result.powers
    C = receiver_filters(kind, S, h2, powers, params.sigma2)
    X = (C.T @ S) ** 2  # X[k, j] = (c_k' s_j)^2
    own = np.diag(X).copy()
    np.fill_diagonal(X, 0.0)
    noise = params.sigma2 * np.einsum("nk,nk->k", C, C)
    sir_per_watt = h2 * own / (noise + X @ (powers * h2))
    factors = np.geomspace(0.5, 2.0, PROBE_GRID_SIZE)
    for k in range(S.shape[1]):
        base = result.utilities[k]
        for factor in factors:
            p_k = min(powers[k] * factor, params.Pmax)
            g = p_k * sir_per_watt[k]
            if utility(p_k, g, params, model) > base * (1.0 + NASH_REL_TOL):
                return False
    return True
