"""Receive diversity: the m-antenna equilibrium on raw spreading and gains.

The m-antenna game is the single-antenna game on the effective signatures
that system.effective_system builds; its large-system feasibility bounds and
load penalties are asymptotic.feasibility_bound and asymptotic.gamma_factor
at the antenna count.
"""

from __future__ import annotations

import numpy as np

from .efficiency import EfficiencyModel
from .game import DEFAULT_MAX_ITER, EquilibriumResult, solve_channel
from .system import ReceiverKind, SystemParams


def solve_equilibrium_ma(S: np.ndarray, H: np.ndarray, kind: ReceiverKind,
                         params: SystemParams, model: EfficiencyModel,
                         max_iter: int = DEFAULT_MAX_ITER,
                         gamma_star: float | None = None) -> EquilibriumResult:
    """m-antenna SIR-balanced equilibrium for spreading S and gains H
    (m x K, signs allowed): game.solve_channel, the solver behind
    game.solve_equilibrium, so the two agree exactly at m = 1."""
    return solve_channel(S, H, kind, params, model, max_iter, gamma_star)
