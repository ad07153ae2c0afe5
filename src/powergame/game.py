"""SIR-balanced Nash equilibrium: Newton iteration on the power balance,
best-response sweeps where a user meets the power cap.

Every linear receiver considered here gives user k the SIR
gamma_k = rec_k / I_k(rec), rec = p h^2 being the received powers and I the
interference-plus-noise the filter sees, so the best response to a target
SIR g* is the multiplicative correction p <- min(p * g*/gamma, Pmax). The
equilibrium is the fixed point of that standard interference function
(Yates, IEEE JSAC 1995). With no user at Pmax it solves the uncapped balance
rec = g* I(rec), which Newton's method reaches in one step for the matched
filter (I is affine) and the decorrelator (I is constant), and monotonically
and quadratically for MMSE (I is a minimum of affine maps, so concave).
Only when the balance needs a power at or above Pmax, or a step breaks down,
do the synchronous capped sweeps run; they converge to the unique fixed
point from any positive start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .efficiency import EfficiencyModel, solve_gamma_star
from .exceptions import InfeasibleUserError, SolverError
from .system import (ChannelRealization, ReceiverKind, SirEngine,
                     SystemParams, effective_system, make_sir_engine,
                     sir_per_watt, utility)

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
    iterations: int        # Newton steps, or sweeps where the fallback ran
    converged: bool
    clamped_users: frozenset


def best_response_power(k: int, powers, realization: ChannelRealization,
                        kind: ReceiverKind, gamma_star: float, sigma2: float,
                        Pmax: float) -> float:
    """User k's best response to the others' powers: the power that puts it
    at gamma_star, gamma_star / sir_per_watt, clamped at Pmax. Exact because
    no filter depends on p_k, so its SIR is linear in p_k; hence the response
    does not depend on powers[k] either. Any antenna count.
    """
    rate = sir_per_watt(kind, realization.S, realization.H, powers, sigma2)[k]
    if not rate > 0.0:
        raise InfeasibleUserError(k)
    return float(min(gamma_star / rate, Pmax))


def _result(p: np.ndarray, sirs: np.ndarray, iterations: int, settled: bool,
            params: SystemParams, model: EfficiencyModel,
            gamma_star: float) -> EquilibriumResult:
    """The EquilibriumResult of powers p with SIRs sirs.

    It is converged when the iteration settled, every user below Pmax sits at
    gamma_star within SIR_TOL, and at least one user is below Pmax. A result
    with every user clamped at Pmax is not converged: no one reaches the
    target SIR, so it is not the equilibrium the game describes.
    """
    K = len(p)
    clamped = frozenset(np.flatnonzero(p >= params.Pmax * (1.0 - 1e-12)).tolist())
    unclamped = [k for k in range(K) if k not in clamped]
    sir_ok = all(abs(sirs[k] - gamma_star) / gamma_star <= SIR_TOL for k in unclamped)
    utilities = np.array([utility(p[k], sirs[k], params, model) for k in range(K)])
    return EquilibriumResult(powers=p, sirs=sirs, utilities=utilities,
                             iterations=iterations,
                             converged=settled and sir_ok and bool(unclamped),
                             clamped_users=clamped)


def solve_from_engine(sirs_fn: Callable[[np.ndarray], np.ndarray], K: int,
                      params: SystemParams, model: EfficiencyModel,
                      gamma_star: float,
                      max_iter: int = DEFAULT_MAX_ITER) -> EquilibriumResult:
    """Run synchronous capped best-response sweeps until the powers settle.

    The sweeps settle when the largest relative power change of a sweep is
    below POWER_TOL; the result is converged as _result decides.
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
    return _result(p, sirs_fn(p), iterations, settled, params, model,
                   gamma_star)


def _newton_balance(engine: SirEngine, h2: np.ndarray, Pmax: float,
                    gamma_star: float, max_iter: int):
    """Newton iteration on the uncapped balance rec = gamma* I(rec).

    It starts from equal received powers, the weakest user's at the sweeps'
    starting power, which is nearer the balance than equal transmit powers:
    seeded MMSE draws with K = 110 users at N = 100 then reach it in 4-5
    steps on 24 of 30 draws, where equal transmit powers reach it on none.

    Each step is rec + solve(Id - gamma* dI/drec, gamma* I(rec) - rec), or
    gamma* I(rec) itself when I is constant. The balance is settled when the
    best response would move no power by POWER_TOL or more relative, the
    sweeps' rule; a step counts toward max_iter. Returns
    (powers, SIRs, steps, settled), or None when a step fails: a singular
    system, a zero SIR, or an iterate that is not strictly between 0 and
    Pmax, which only the capped sweeps can handle.
    """
    eye = np.eye(len(h2))
    # a failed step ends in the fallback, so it must not warn or raise
    with np.errstate(all="ignore"):
        rec = np.full(len(h2), INITIAL_POWER_FRACTION * Pmax * h2.min())
        cap = Pmax * h2
        for steps in range(max_iter + 1):
            if not np.all((rec > 0.0) & (rec < cap)):  # also rejects NaN
                return None
            try:
                sirs, jacobian = engine.tangent(rec)
            except SolverError:
                return None
            target = gamma_star * rec / sirs
            delta = np.max(np.abs(target - rec) / rec)
            if not np.isfinite(delta):  # a zero or NaN SIR
                return None
            if delta < POWER_TOL or steps == max_iter:
                return rec / h2, sirs, steps, bool(delta < POWER_TOL)
            if jacobian is None:
                rec = target
                continue
            try:
                rec = rec + np.linalg.solve(eye - gamma_star * jacobian,
                                            target - rec)
            except np.linalg.LinAlgError:
                return None


def solve_channel(S, H, kind: ReceiverKind, params: SystemParams,
                  model: EfficiencyModel, max_iter: int = DEFAULT_MAX_ITER,
                  gamma_star: float | None = None) -> EquilibriumResult:
    """SIR-balanced equilibrium for spreading S (N x K) and gains H (m x K).

    Any antenna count m: the solver plays on effective_system(kind, S, H),
    with one engine, hence one factorization, for the Newton steps and any
    fallback sweeps. Newton steps run while every power stays below Pmax;
    otherwise solve_from_engine sweeps from the start, so such a draw gives
    what the sweeps alone give. Stops once the powers settle or max_iter
    steps (or sweeps) have run; non-convergence is reported through the
    result, not raised, so Monte Carlo harnesses can decide.
    """
    if gamma_star is None:
        gamma_star = solve_gamma_star(model)
    S, h2 = effective_system(kind, S, H)
    engine = make_sir_engine(kind, S, h2, params.sigma2)
    newton = _newton_balance(engine, h2, params.Pmax, gamma_star, max_iter)
    if newton is None:
        return solve_from_engine(engine.sirs, S.shape[1], params, model,
                                 gamma_star, max_iter)
    return _result(*newton, params, model, gamma_star)


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
    equilibrium value (capped at Pmax) with everyone else frozen, its SIR
    being its power times its sir_per_watt at the equilibrium powers, read
    off explicit filters rather than taken from the result.
    """
    powers = result.powers
    rate = sir_per_watt(kind, realization.S, realization.H, powers,
                        params.sigma2)
    factors = np.geomspace(0.5, 2.0, PROBE_GRID_SIZE)
    for k in range(len(powers)):
        base = result.utilities[k]
        for factor in factors:
            p_k = min(powers[k] * factor, params.Pmax)
            g = p_k * rate[k]
            if utility(p_k, g, params, model) > base * (1.0 + NASH_REL_TOL):
                return False
    return True
