"""Receive diversity: m-antenna equilibria and large-system load factors.

The m-antenna game is the single-antenna game on the effective signatures
that system.effective_system builds; the closed forms below give its
large-system feasibility bounds and load penalties.
"""

from __future__ import annotations

import numpy as np

from .efficiency import EfficiencyModel
from .exceptions import InfeasibleLoadError
from .game import DEFAULT_MAX_ITER, EquilibriumResult, solve_channel
from .system import ReceiverKind, SystemParams
from . import asymptotic


def solve_equilibrium_ma(S: np.ndarray, H: np.ndarray, kind: ReceiverKind,
                         params: SystemParams, model: EfficiencyModel,
                         max_iter: int = DEFAULT_MAX_ITER,
                         gamma_star: float | None = None) -> EquilibriumResult:
    """m-antenna SIR-balanced equilibrium for spreading S and gains H
    (m x K, signs allowed): game.solve_channel, the solver behind
    game.solve_equilibrium, so the two agree exactly at m = 1."""
    return solve_channel(S, H, kind, params, model, max_iter, gamma_star)


def _effective_load(kind: ReceiverKind, alpha: float, m: int) -> float:
    # interference reduction applies to MF and MMSE only; the per-antenna
    # decorrelator burns m degrees of freedom per interferer
    return alpha if kind is ReceiverKind.DECORRELATOR else alpha / m


def load_limit_ma(kind: ReceiverKind, m: int, gamma_star: float) -> float:
    """Supremum of the feasible loads alpha with m receive antennas, for
    messages; feasibility itself is decided by ``is_feasible_ma``."""
    bound = asymptotic.feasibility_bound(kind, gamma_star)
    return bound if kind is ReceiverKind.DECORRELATOR else m * bound


def is_feasible_ma(kind: ReceiverKind, alpha: float, m: int,
                   gamma_star: float) -> bool:
    """Whether load alpha admits the SIR target with m receive antennas:
    the effective load lies below the single-antenna feasibility bound."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return (_effective_load(kind, alpha, m)
            < asymptotic.feasibility_bound(kind, gamma_star))


def gamma_factor_ma(kind: ReceiverKind, alpha: float, m: int,
                    gamma_star: float) -> float:
    """m-antenna load penalty: the single-antenna Gamma at load alpha/m
    (matched filter, MMSE) or at alpha unchanged (decorrelator)."""
    if not is_feasible_ma(kind, alpha, m, gamma_star):
        raise InfeasibleLoadError(
            f"load alpha={alpha:g} infeasible for {kind.value} with m={m}: "
            f"requires alpha < {load_limit_ma(kind, m, gamma_star):g}")
    return asymptotic.gamma_factor(kind, _effective_load(kind, alpha, m),
                                   gamma_star)

