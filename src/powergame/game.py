"""SIR-balanced Nash equilibrium: one iteration of capped best responses
and Newton steps on the power balance.

Every linear receiver considered here gives user k the SIR
gamma_k = rec_k / I_k(rec), rec = p h^2 being the received powers and I the
interference-plus-noise the filter sees, so the best response to a target
SIR g* is the multiplicative correction p <- min(p * g*/gamma, Pmax). The
equilibrium is the fixed point of that standard interference function
(Yates, IEEE JSAC 1995), which the capped best responses reach from any
positive start. A pass steps instead by Newton's method on that capped map,
whose Jacobian is g* dI/drec with the capped users' rows zeroed: they stay
at Pmax and the others balance rec = g* I(rec) against them, in one step
for the matched filter (I is affine) and the decorrelator (I is constant),
monotonically and quadratically for MMSE (I is a minimum of affine maps, so
concave). Every matched-filter step lands: one past Pmax is cut there, and
one that puts a free user at or below 0 restarts at Pmax. An MMSE step that
would take a free user out of (0, Pmax) is not taken, and the pass moves to
the best response. Solves and Nash checks take one Gram each.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .asymptotic import balanced_received_power
from .config import DEFAULT_MAX_ITER, ReceiverKind, SystemParams
from .efficiency import EfficiencyModel, eff_value, solve_gamma_star
from .exceptions import InfeasibleLoadError, InfeasibleUserError, SolverError
from .system import (LEAF_ROWS, ChannelRealization, effective_gram,
                     make_sir_engine, sir_per_watt)

INITIAL_POWER_FRACTION = 1e-2  # starting powers as a fraction of Pmax
POWER_TOL = 1e-9  # largest relative power change of a settled pass
SIR_TOL = 1e-6    # relative SIR error allowed for users below Pmax
NASH_REL_TOL = 1e-6  # relative utility gain a deviation must beat
# The contraction a Neumann-series term must show against the one before
SHRINK = 3.0


class EquilibriumResult(NamedTuple):
    powers: np.ndarray     # W
    sirs: np.ndarray
    iterations: int        # passes: Newton steps plus capped best responses
    converged: bool
    clamped_users: frozenset


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
    return EquilibriumResult(p, sirs, iterations,
                             bool(settled and sir_ok and free_sirs.size),
                             frozenset(clamped.nonzero()[0].tolist()))


def _newton_start(kind: ReceiverKind, S, H, gram: np.ndarray,
                  h2: np.ndarray, params: SystemParams,
                  gamma_star: float) -> np.ndarray:
    """The received powers _balance starts from on effective_gram's Gram G
    and gains h2 of spreading S and gains H.

    MF and DE start at the noise-only balance min(gamma* sigma2 / G_kk,
    Pmax h2), gamma* I(0), at or below the equilibrium as I is monotone
    (Yates 1995); DE's balance is one best response on. MMSE starts at the
    large-system balance (Tse and Hanly, IEEE Trans. IT 1999), every user
    received at q = gamma* sigma2 / Gamma, the load being K/N with m
    antennas, i.e. rec_k = q / G_kk: from it Newton settles one step sooner
    than from equal powers on seeded draws at N = 100 and 200. Where the
    load is infeasible or q / G_kk is not strictly between 0 and Pmax h2,
    MMSE starts at equal received powers, the weakest user's at
    INITIAL_POWER_FRACTION of Pmax.
    """
    # an underflow or overflow only fails a range test, here or a step's
    with np.errstate(all="ignore"):
        if kind is not ReceiverKind.MMSE:
            return np.minimum(gamma_star * params.sigma2 / gram.diagonal(),
                              params.Pmax * h2)
        N, K = np.shape(S)
        rec = np.full(K, INITIAL_POWER_FRACTION * params.Pmax * h2.min())
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
    terms shrinking SHRINK-fold, the sum then errs by <= 1e-6 delta
    |sum|_max, so Newton stays quadratic: Dembo, Eisenstat and Steihaug,
    SIAM J. Numer. Anal. 1982); None once a term exceeds 1/SHRINK of the one
    before, or after 40 terms."""
    total, term = residual.copy(), residual
    size = abs(residual).max()
    tol = 1e-6 * delta * size
    for _ in range(40):
        term = step @ term
        last, size = size, abs(term).max()
        if not size <= last / SHRINK:  # also NaN
            return None
        total += term
        if size <= tol:
            return total
    return None


def _balance(balance: Callable[[np.ndarray], tuple], rec: np.ndarray,
             h2: np.ndarray, params: SystemParams, gamma_star: float,
             max_iter: int, kind: ReceiverKind) -> EquilibriumResult:
    """The capped best-response iteration from the received powers rec
    (_newton_start's), with Newton steps on the capped map
    min(gamma* I(rec), Pmax h2).

    balance is make_sir_engine's map rec -> (SIRs, dI/drec). Each pass
    reads it once and forms the capped target min(gamma* rec / SIRs,
    Pmax h2); the powers are settled when the target moves no power by
    POWER_TOL or more relative. Otherwise the pass takes a Newton step:
    with step = gamma* dI/drec, its rows zeroed where the target is capped,
    rec + solve(Id - step, target - rec), the capped users set at Pmax h2.
    Where I is constant (the decorrelator) or Id - step is singular, the
    pass moves to the target instead. MMSE past LEAF_ROWS users (where
    _inverse leaves LAPACK too) sums each direction by _series_direction
    first, solving where that gives up.

    Every matched-filter step lands. I is affine with a nonnegative
    Jacobian B, so the step is exact, and (Id - gamma* B_FF)^-1 >= 0
    exactly when rho(gamma* B_FF) < 1 (Berman and Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, ch. 6). The capped balance b
    has b <= gamma* I(b) and b <= Pmax h2, so a step whose free entries
    are all > 0, which certifies rho(gamma* B_FF) < 1, lies at or above b,
    and cut at Pmax h2 it still does. A free entry at or below 0, or NaN,
    certifies rho(gamma* B_FF) >= 1, so one more user caps, and the pass
    restarts at Pmax h2, above b too. An MMSE step must put every free
    user strictly between 0 and Pmax h2; otherwise (with more users than
    chips, Id - step need not be an M-matrix far from the balance) the
    pass moves to the target. A pass is a Newton step, a best response or
    that restart, and max_iter caps them. A zero SIR raises
    InfeasibleUserError and a non-finite one a SolverError naming sigma2;
    a Pmax h2 that underflows to 0 raises a SolverError naming Pmax before
    the first pass. A best response that overflows is capped at Pmax.
    """
    series = kind is ReceiverKind.MMSE and len(rec) > LEAF_ROWS
    with np.errstate(all="ignore"):
        cap = params.Pmax * h2
        if not cap.min() > 0.0:
            raise SolverError(
                f"Pmax={params.Pmax!r} times user {int(np.argmin(cap))}'s "
                "squared gain underflows to 0 W received; raise Pmax")
        for iterations in range(max_iter + 1):
            sirs, jacobian = balance(rec)
            if not 0.0 < sirs.min() <= sirs.max() < np.inf:  # also NaN
                if not np.isfinite(sirs).all():
                    raise SolverError(
                        f"an SIR is not finite at sigma2={params.sigma2!r}, "
                        "the noise vanishing against the received powers; "
                        "raise sigma2")
                raise InfeasibleUserError(int(np.argmin(sirs > 0.0)))
            target = np.minimum(gamma_star * rec / sirs, cap)
            delta = (abs(target - rec) / rec).max()
            if delta < POWER_TOL or iterations == max_iter:
                break
            if jacobian is None:
                rec = target
                continue
            # the capped map's Jacobian, gamma* J with the capped users' rows
            # zeroed, never written into J, which the matched filter shares
            # across calls
            capped = target == cap
            step = gamma_star * jacobian()
            step[capped] = 0.0
            r = target - rec
            direction = _series_direction(step, r, delta) if series else None
            if direction is None:  # Id - step, J's diagonal being 0
                np.negative(step, out=step)
                step.flat[::len(rec) + 1] += 1.0
                try:
                    direction = np.linalg.solve(step, r)
                except np.linalg.LinAlgError:  # singular: the best response
                    rec = target
                    continue
            stepped = np.where(capped, cap, rec + direction)
            if kind is ReceiverKind.MATCHED_FILTER:  # at or above the balance
                rec = np.minimum(stepped, cap) if (stepped > 0.0).all() else cap
            elif ((stepped > 0.0) & (stepped < cap) | capped).all():  # also NaN
                rec = stepped
            else:
                rec = target
        # a capped user's Pmax h2 / h2 can round past Pmax
        powers = np.minimum(rec / h2, params.Pmax)
    return _result(powers, sirs, iterations, bool(delta < POWER_TOL), params,
                   gamma_star)


def solve_channel(S, H, kind: ReceiverKind, params: SystemParams,
                  model: EfficiencyModel, max_iter: int = DEFAULT_MAX_ITER,
                  gamma_star: float | None = None) -> EquilibriumResult:
    """SIR-balanced equilibrium for spreading S (N x K) and gains H (m x K).

    Any antenna count m: _balance plays on effective_gram(kind, S, H)'s
    balance map from _newton_start's powers. Stops once the powers
    settle or max_iter passes have run; non-convergence is reported through
    the result, not raised, so Monte Carlo harnesses can decide.
    """
    if gamma_star is None:
        gamma_star = solve_gamma_star(model)
    gram, h2 = effective_gram(kind, S, H)
    start = _newton_start(kind, S, H, gram, h2, params, gamma_star)
    return _balance(make_sir_engine(kind, gram, params.sigma2), start, h2,
                    params, gamma_star, max_iter, kind)


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
    power is exactly b = min(gamma*/w_k, Pmax), its best response. Its
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
