"""Receive diversity: stacked effective signatures and m-antenna equilibria.

With m receive antennas the chip samples of all antennas stack into one
length-mN vector, and user k's contribution rides on the effective signature
sbar_k = [h_k1 s_k', ..., h_km s_k']'. The m-antenna game is then the
single-antenna game over (sbar_k) with unit nominal gains, which is how the
matched filter (despread + maximal ratio combining) and the MMSE receiver are
handled below. The decorrelator is different: it zero-forces per antenna
using only the spreading sequences and combines the antenna outputs with MRC
weights, because it knows nothing about the interferers' channel gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyModel, solve_gamma_star
from .exceptions import InfeasibleLoadError
from .game import DEFAULT_MAX_ITER, EquilibriumResult, solve_from_engine
from .system import ReceiverKind, SystemParams, make_sir_engine
from . import asymptotic


@dataclass
class EffectiveSystem:
    """Stacked signatures and pooled gain powers hbar2_k = sum_l h_kl^2."""

    Sbar: np.ndarray   # (m N) x K
    hbar2: np.ndarray  # K
    m: int


def effective_signatures(S: np.ndarray, H: np.ndarray) -> EffectiveSystem:
    """Stack h_kl-weighted copies of each spreading sequence per antenna.

    Column k of the result has squared norm hbar2_k since s_k is unit norm.
    """
    S = np.asarray(S, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if S.shape[1] != H.shape[1]:
        raise ValueError("S and H disagree on the number of users")
    m = H.shape[0]
    N, K = S.shape
    Sbar = (H[:, None, :] * S[None, :, :]).reshape(m * N, K)
    return EffectiveSystem(Sbar=Sbar, hbar2=(H ** 2).sum(axis=0), m=m)


def solve_equilibrium_ma(S: np.ndarray, H: np.ndarray, kind: ReceiverKind,
                         params: SystemParams, model: EfficiencyModel,
                         max_iter: int = DEFAULT_MAX_ITER,
                         gamma_star: float | None = None) -> EquilibriumResult:
    """m-antenna SIR-balanced equilibrium; reduces exactly to the
    single-antenna solver at m = 1.

    Matched filter and MMSE run over the stacked effective system. The
    decorrelator runs per antenna with MRC combining, which collapses to the
    single-antenna zero-forcing SIR with h^2 replaced by the pooled hbar2.
    """
    if gamma_star is None:
        gamma_star = solve_gamma_star(model)
    eff = effective_signatures(S, H)
    if kind is ReceiverKind.DECORRELATOR:
        engine = make_sir_engine(kind, np.asarray(S, dtype=float),
                                 np.sqrt(eff.hbar2), params.sigma2)
    else:
        engine = make_sir_engine(kind, eff.Sbar, np.ones(eff.Sbar.shape[1]),
                                 params.sigma2)
    return solve_from_engine(engine, eff.Sbar.shape[1], params, model,
                             gamma_star, max_iter)


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

