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
and quadratically for MMSE (I is a minimum of affine maps, so concave),
whose steps start at the large-system balanced power q = g* sigma2 / Gamma.
Only when the balance needs a power at or above Pmax, or a step breaks down,
do the synchronous capped sweeps run; they converge to the unique fixed
point from any positive start. Solves and Nash checks take one Gram each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotic import balanced_received_power
from .config import DEFAULT_MAX_ITER, ReceiverKind, SystemParams
from .efficiency import EfficiencyModel, eff_value, solve_gamma_star
from .exceptions import InfeasibleLoadError, InfeasibleUserError, SolverError
from .system import (ChannelRealization, effective_gram, make_sir_engine,
                     sir_per_watt)

INITIAL_POWER_FRACTION = 1e-2  # starting powers as a fraction of Pmax
POWER_TOL = 1e-9  # largest relative power change of a settled sweep
SIR_TOL = 1e-6    # relative SIR error allowed for users below Pmax
NASH_REL_TOL = 1e-6  # relative utility gain a deviation must beat
# Past this many MMSE users a Newton step first tries a series: timed in
# pairs on one BLAS thread, a solve with series against one with LU alone
# takes +2%, -2% and -7% at N/K 200/64, 200/80 and 200/100, +7% to +12% at
# N = 100 up to K = 80, where a series needs more terms.
SERIES_USERS = 80


@dataclass
class EquilibriumResult:
    powers: np.ndarray     # W
    sirs: np.ndarray
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
            params: SystemParams, gamma_star: float) -> EquilibriumResult:
    """The EquilibriumResult of powers p with SIRs sirs.

    It is converged when the iteration settled, every user below Pmax sits at
    gamma_star within SIR_TOL, and at least one user is below Pmax. A result
    with every user clamped at Pmax is not converged: no one reaches the
    target SIR, so it is not the equilibrium the game describes.
    """
    clamped = p >= params.Pmax * (1.0 - 1e-12)
    free_sirs = sirs[~clamped]
    sir_ok = (abs(free_sirs - gamma_star) / gamma_star <= SIR_TOL).all()
    return EquilibriumResult(powers=p, sirs=sirs, iterations=iterations,
                             converged=bool(settled and sir_ok and free_sirs.size),
                             clamped_users=frozenset(
                                 clamped.nonzero()[0].tolist()))


def solve_from_engine(sirs_fn: Callable[[np.ndarray], np.ndarray], K: int,
                      params: SystemParams, gamma_star: float,
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
    return _result(p, sirs_fn(p), iterations, settled, params, gamma_star)


def _newton_start(kind: ReceiverKind, S, H, gram: np.ndarray,
                  h2: np.ndarray, params: SystemParams,
                  gamma_star: float) -> np.ndarray:
    """The received powers Newton starts from on effective_gram's Gram G
    and gains h2 of spreading S and gains H.

    MMSE starts at the large-system balance (Tse and Hanly, IEEE Trans. IT
    1999): every user received at q = gamma* sigma2 / Gamma, the load being
    K/N with m antennas, i.e. rec_k = q / G_kk. On seeded draws at N = 100
    and 200 below the load limit the mean received power of the finite
    balance lies within 1-2% of q with one antenna and ~19% above it with
    two, and Newton settles in one step fewer than from the default start
    either way. The default start, also MMSE's where the load is infeasible
    or q / G_kk is not strictly between 0 and Pmax h2, is equal received
    powers at the weakest user's sweep starting power. MF and DE keep it:
    from any start they balance in one step.
    """
    N, K = np.shape(S)
    # an underflow or overflow only fails a range test, here or Newton's
    with np.errstate(all="ignore"):
        rec = np.full(K, INITIAL_POWER_FRACTION * params.Pmax * h2.min())
        if kind is not ReceiverKind.MMSE:
            return rec
        try:
            q = balanced_received_power(kind, K / N, gamma_star, params.sigma2,
                                        len(np.atleast_2d(H)))
        except InfeasibleLoadError:
            return rec
        large = q / gram.diagonal()
        inside = np.all((large > 0.0) & (large < params.Pmax * h2))
    return large if inside else rec


def _series_direction(step: np.ndarray, residual: np.ndarray,
                      delta: float) -> np.ndarray | None:
    """(Id - step)^-1 residual as the Neumann series sum_i step^i residual,
    stopped at the first term of max-norm <= 1e-6 delta |residual|_max (the
    terms shrinking threefold, the sum then errs by <= 1e-6 delta |sum|_max,
    so Newton stays quadratic: Dembo, Eisenstat and Steihaug, SIAM J. Numer.
    Anal. 1982); None once a term exceeds a third of the one before, or
    after 40 terms."""
    total, term = residual.copy(), residual
    size = abs(residual).max()
    tol = 1e-6 * delta * size
    for _ in range(40):
        term = step @ term
        last, size = size, abs(term).max()
        if not size <= last / 3.0:  # also NaN
            return None
        total += term
        if size <= tol:
            return total
    return None


def _newton_balance(balance: Callable[[np.ndarray], tuple], rec: np.ndarray,
                    h2: np.ndarray, Pmax: float, gamma_star: float,
                    max_iter: int, series: bool = False):
    """Newton iteration on the uncapped balance rec = gamma* I(rec), from
    the received powers rec (_newton_start's).

    balance is make_sir_engine's map rec -> (SIRs, dI/drec). Each step is
    rec + solve(Id - gamma* dI/drec, gamma* I(rec) - rec), or gamma* I(rec)
    itself when I is constant; only a step builds dI/drec. With series, a
    direction is _series_direction's until one gives up; the later steps
    solve, gamma* J contracting about as slowly at each. The balance is
    settled when the best response would move no power by POWER_TOL or more
    relative, the sweeps' rule; a step counts toward max_iter. Returns
    (powers, SIRs, steps, settled), or None when a step fails: a singular
    system, a zero SIR, or an iterate that is not strictly between 0 and
    Pmax, which only the capped sweeps can handle. With more MMSE users than
    chips that happens on feasible draws too: of 30 seeded draws each,
    1 at N = 100, K = 110 and 28 at N = 20, K = 22 fall back.
    """
    # a failed step ends in the fallback, so it must not warn or raise
    with np.errstate(all="ignore"):
        cap = Pmax * h2
        for steps in range(max_iter + 1):
            if not ((rec > 0.0) & (rec < cap)).all():  # also rejects NaN
                return None
            try:
                sirs, jacobian = balance(rec)
            except SolverError:
                return None
            target = gamma_star * rec / sirs
            delta = (abs(target - rec) / rec).max()
            if not np.isfinite(delta):  # a zero or NaN SIR
                return None
            if delta < POWER_TOL or steps == max_iter:
                return rec / h2, sirs, steps, bool(delta < POWER_TOL)
            if jacobian is None:
                rec = target
                continue
            # gamma* J, never written into J, which the matched filter
            # shares across calls
            step = gamma_star * jacobian()
            r = target - rec
            direction = _series_direction(step, r, delta) if series else None
            if direction is None:  # Id - gamma* J, J's diagonal being 0
                series = False
                np.negative(step, out=step)
                step.flat[::len(rec) + 1] += 1.0
                try:
                    direction = np.linalg.solve(step, r)
                except np.linalg.LinAlgError:
                    return None
            rec = rec + direction


def solve_channel(S, H, kind: ReceiverKind, params: SystemParams,
                  model: EfficiencyModel, max_iter: int = DEFAULT_MAX_ITER,
                  gamma_star: float | None = None) -> EquilibriumResult:
    """SIR-balanced equilibrium for spreading S (N x K) and gains H (m x K).

    Any antenna count m: the solver plays on effective_gram(kind, S, H),
    with one balance map for the Newton steps and any fallback sweeps, which
    never build its Jacobian. Newton steps run while every power stays below
    Pmax; otherwise solve_from_engine sweeps from the start, so such a draw
    gives what the sweeps alone give. Stops once the powers settle or max_iter
    steps (or sweeps) have run; non-convergence is reported through the
    result, not raised, so Monte Carlo harnesses can decide.
    """
    if gamma_star is None:
        gamma_star = solve_gamma_star(model)
    gram, h2 = effective_gram(kind, S, H)
    balance = make_sir_engine(kind, gram, params.sigma2)
    start = _newton_start(kind, S, H, gram, h2, params, gamma_star)
    newton = _newton_balance(balance, start, h2, params.Pmax, gamma_star,
                             max_iter, kind is ReceiverKind.MMSE
                             and len(h2) > SERIES_USERS)
    if newton is None:
        return solve_from_engine(lambda p: balance(p * h2)[0], len(h2),
                                 params, gamma_star, max_iter)
    return _result(*newton, params, gamma_star)


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
    """Confirm that no user gains by changing its power alone.

    Against the others' frozen powers user k's SIR is p w_k, w_k being its
    sir_per_watt, read off each filter's K x K weights and never off the
    solver's balance map (make_sir_engine). f(g)/g rises up to gamma* and
    falls after it (test_tangent_line_maximizes_utility_ratio), so k's best
    power is exactly b = min(gamma*/w_k, Pmax), as in best_response_power. Its
    utilities (L/M) R f(x w)/x at x = b and at its own power are compared
    without their common (L/M) R, f(b w) being f(gamma*) where b < Pmax;
    both come from result.powers alone, never from the result's SIRs.
    """
    gamma_star = solve_gamma_star(model)
    rate = sir_per_watt(kind, realization.S, realization.H, result.powers,
                        params.sigma2)
    best = np.minimum(gamma_star / rate, params.Pmax)
    f_star = eff_value(model, gamma_star)
    for p, b, w in zip(result.powers.tolist(), best.tolist(), rate.tolist()):
        if b <= 0.0 or p <= 0.0:  # as in utility
            raise ValueError(f"a power must be positive, got {min(b, p)}")
        f_best = f_star if b < params.Pmax else eff_value(model, b * w)
        own = eff_value(model, p * w) / p
        if not f_best / b <= own * (1.0 + NASH_REL_TOL):  # NaN fails too
            return False
    return True
