"""Seeded Monte Carlo scenarios emitting tabular sweep data: the tables
that draw or solve a finite system, and so load numpy.

Reproducibility contract: every random draw comes from a trial_rng stream,
a pure function of (master_seed, stream label, key) realized through numpy
SeedSequence spawn keys, and all aggregation uses math.fsum so reported
means are exact and independent of trial ordering. Running the same config
twice therefore produces identical tables, bit for bit. The realizations of
the finite-system tables take one stream each. The Monte Carlo tables
(sweep, pareto and antennas) read trial t as row t of a few sequential
streams, so their first T trials do not depend on the trial count. The
tables that draw nothing (sir-compare, admission, curve-efficiency) live in
closedform, with the feasibility gate and the one-value rule they share
with these drivers.

Load sweeps draw one gain vector per trial and reuse it across every
(load, receiver, antenna count) cell, so receiver orderings that hold per
realization hold exactly in the reported means."""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from . import asymptotic, closedform
from .closedform import (M1_ONLY, ONE_COUNT, ONE_RECEIVER, check_distance,
                         feasible_cells, one)
from .config import ReceiverKind, ScenarioConfig, SweepMode
from .efficiency import solve_gamma_star
from .exceptions import PowerGameError, SingularSpreadingError, SolverError
from .game import solve_equilibrium
from .system import (ChannelRealization, generate_gains, generate_spreading,
                     rayleigh_scale, sir_per_watt, utility)

# stream labels keeping the experiment families on disjoint substreams; a
# table's bytes depend on its label, so labels are never renumbered
_STREAM_SWEEP = 0
_STREAM_FINITE = 2
_STREAM_CURVE = 3
_STREAM_EQUILIBRIUM = 4

# perfbench imports the admission driver from here
run_admission_curve = closedform.run_admission_curve


class SweepRow(NamedTuple):
    alpha: float
    kind: ReceiverKind
    m: int
    mode: SweepMode
    mean_utility: float
    std_utility: float
    mean_power: float
    target_sir: float
    trials_used: int
    trials_discarded: int


class EquilibriumRow(NamedTuple):
    kind: ReceiverKind
    user: int
    power: float
    sir: float
    utility: float
    iterations: int
    converged: bool


class UtilityCurveRow(NamedTuple):
    power: float
    utility: float


class FiniteVsAsymptoticRow(NamedTuple):
    N: int
    kind: ReceiverKind
    mean_rel_power_error: float
    std_error: float  # standard error of the mean power ratio
    redrawn: int      # draws discarded and redrawn for the cell


def trial_rng(master_seed: int, stream: int, *key: int) -> np.random.Generator:
    """Generator for one trial, a pure function of (master_seed, stream, key)."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(stream, *key)))


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def _std(values, mean: float) -> float:
    # sample standard deviation; exact summation keeps it order independent
    if len(values) < 2:
        return 0.0
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))


def _sweep_gains(config: ScenarioConfig) -> np.ndarray:
    """Squared gains of the observed user, one row per trial and one column
    per antenna: antenna l's column is the scaled Rayleigh draws of
    trial_rng(master_seed, _STREAM_SWEEP, l), so it depends on neither the
    other antennas nor the trials after it."""
    check_distance(config.distance)
    scale = rayleigh_scale([config.distance])
    return np.column_stack([
        (scale * trial_rng(config.master_seed, _STREAM_SWEEP, l).rayleigh(
            size=config.trials)) ** 2
        for l in range(max(config.antennas))])


def _moments(hbar2: np.ndarray):
    """(mean, sample std, mean of the reciprocal) of hbar2, exact sums."""
    values = hbar2.tolist()
    mean = _mean(values)
    return mean, _std(values, mean), _mean((1.0 / hbar2).tolist())


def _sort_key(row: SweepRow):
    return (row.alpha, row.kind.value, row.m, row.mode.value)


def run_load_sweep(config: ScenarioConfig):
    """Average utility versus load per (receiver, antenna count, mode).

    Utilities come from the large-system closed forms evaluated on random
    gain draws of one user at the configured distance; infeasible cells are
    omitted, and InfeasibleLoadError is raised before any draw if all are.
    Cooperative (Pareto) rows are produced for the single-antenna case only
    and on the same feasibility grid as the non-cooperative ones, so
    mode=pareto, whose rows are all cooperative, takes antennas=(1,) only.
    """
    if config.mode is SweepMode.PARETO:
        one("antennas", config.antennas,
             "mode=pareto tabulates m=1 only, got antennas={}", only=1)
    gstar = solve_gamma_star(config.model)
    p, model = config.params, config.model
    cells = feasible_cells(config.kinds, config.antennas, config.alpha_grid,
                            gstar)
    h2 = _sweep_gains(config)
    try:  # gains check_distance admits can still square past the range
        moments = {m: _moments(h2[:, :m].sum(axis=1)) for m in config.antennas}
    except OverflowError:
        raise PowerGameError(f"distance={config.distance!r}: the spread of "
                             "the gains at that distance is outside the "
                             "float range") from None
    rows = []
    for kind, m, alpha, gamma_bar in cells:
        # (mode, target SIR, Gamma) of each row of the cell
        targets = []
        if config.mode in (SweepMode.NONCOOPERATIVE, SweepMode.BOTH):
            targets.append((SweepMode.NONCOOPERATIVE, gstar, gamma_bar))
        if config.mode in (SweepMode.PARETO, SweepMode.BOTH) and m == 1:
            g_opt = asymptotic.solve_pareto_target(kind, alpha, model)
            targets.append((SweepMode.PARETO, g_opt,
                            asymptotic.gamma_factor(kind, alpha, g_opt)))
        mean, std, mean_inv = moments[m]
        # utility is coef * hbar2 and power gamma sigma2 / (Gamma hbar2):
        # the rows scale the moments of hbar2 by one grouping for both
        # modes, so the decorrelator rows, whose cooperative target equals
        # the tangent solution, come out bit-identical to the
        # non-cooperative ones
        for mode, gamma, factor in targets:
            coef = asymptotic.utility_coef(p, model, gamma) * factor
            rows.append(SweepRow(alpha, kind, m, mode, coef * mean, coef * std,
                                 (gamma * p.sigma2 / factor) * mean_inv,
                                 gamma, config.trials, 0))
    rows.sort(key=_sort_key)
    return rows


def _check_powers(config: ScenarioConfig) -> None:
    """check_distance, then a PowerGameError naming distance and sigma2
    where a user alone at config.distance needs gamma* sigma2 / E[h^2] below
    the normal floats: the powers solved for there lose digits, and the SIRs
    and utilities from them overflow."""
    d, sigma2 = config.distance, config.params.sigma2
    if solve_gamma_star(config.model) * sigma2 / check_distance(d) < (
            sys.float_info.min):
        raise PowerGameError(f"distance={d!r}: the power a user alone at that "
                             f"distance needs at sigma2={sigma2!r} is below "
                             "the float range")


def _utility(power: float, sir: float, config: ScenarioConfig) -> float:
    """system.utility, or a PowerGameError naming the keys that set its
    scale, R h^2 / sigma2, where it leaves the float range."""
    value = utility(power, sir, config.params, config.model)
    if not math.isfinite(value):
        raise PowerGameError(f"{_scale_keys(config)}, R={config.params.R!r}: "
                             "a user's utility at that distance, noise "
                             "power and rate is outside the float range")
    return value


def _scale_keys(config: ScenarioConfig) -> str:
    return (f"distance={config.distance!r}, "
            f"sigma2={config.params.sigma2!r}")


def _draw_realization(config: ScenarioConfig, N: int, K: int, m: int,
                      stream: int, *key: int) -> ChannelRealization:
    """One realization from trial_rng(master_seed, stream, *key): the N x K
    spreading first, then m x K gains for users at config.distance."""
    rng = trial_rng(config.master_seed, stream, *key)
    S = generate_spreading(N, K, rng)
    distances = np.full(K, config.distance)
    H = generate_gains(distances, m, rng)
    return ChannelRealization(S=S, H=H, distances=distances)


def run_equilibria(config: ScenarioConfig):
    """Per-user equilibrium rows for every configured receiver on one seeded
    realization with the one configured antenna count, sorted by receiver
    and user. Returns (rows, whether every equilibrium converged)."""
    m = one("antennas", config.antennas, ONE_COUNT)
    _check_powers(config)
    p = config.params
    realization = _draw_realization(config, p.N, p.K, m,
                                    _STREAM_EQUILIBRIUM, 0)
    rows, converged = [], True
    for kind in config.kinds:
        result = solve_equilibrium(realization, kind, p, config.model,
                                   max_iter=config.max_iter)
        converged = converged and result.converged
        rows.extend(EquilibriumRow(kind, k, power, sir,
                                   _utility(power, sir, config),
                                   result.iterations, result.converged)
                    for k, (power, sir) in enumerate(zip(
                        result.powers.tolist(), result.sirs.tolist())))
    rows.sort(key=lambda r: (r.kind.value, r.user))
    return rows, converged


def run_utility_power_curve(config: ScenarioConfig):
    """Utility of user 0 versus its own power, interference frozen.

    The interferers are frozen at their equilibrium powers on a single seeded
    realization with the one configured antenna count, so the curve peaks
    where the user's SIR meets the target. At power x that SIR is
    x * sir_per_watt, no filter depending on the user's own power. The grid
    is the equilibrium power times 1/16 .. 16, cut at Pmax. Returns (rows,
    whether the equilibrium converged).
    """
    m = one("antennas", config.antennas, ONE_COUNT)
    kind = one("receiver", config.kinds, ONE_RECEIVER)
    _check_powers(config)
    p = config.params
    realization = _draw_realization(config, p.N, p.K, m, _STREAM_CURVE, 0)
    result = solve_equilibrium(realization, kind, p, config.model,
                               max_iter=config.max_iter)
    try:  # h^2 / sigma2 past the range overflows in the filter weights
        rate = float(sir_per_watt(kind, realization.S, realization.H,
                                  result.powers, p.sigma2)[0])
    except FloatingPointError:
        raise PowerGameError(f"{_scale_keys(config)}: a user's SIR per watt "
                             "at that distance and noise power is outside "
                             "the float range") from None
    grid = result.powers[0] * np.geomspace(1.0 / 16.0, 16.0, 65)
    rows = [UtilityCurveRow(x, _utility(x, x * rate, config))
            for x in grid[grid <= p.Pmax].tolist()]
    return rows, result.converged


def run_finite_vs_asymptotic(config: ScenarioConfig):
    """Relative gap between average finite-N equilibrium power and the closed form.

    For each processing gain in ``config.n_grid`` and each receiver, K is set
    to round(alpha N) at the first configured load, the finite equilibrium is
    solved on fresh draws, and the per-user power ratio to the large-system
    prediction at load K/N is averaged over users and trials; the reported
    error is |mean ratio - 1|, i.e. how far the average equilibrium power sits
    from the prediction once per-realization spreading noise averages out.
    Each row also reports the standard error of that mean ratio over the
    trials, and how many draws the cell redrew. A draw is redrawn, from the
    next substream, when its crosscorrelation is singular or its equilibrium
    is not physical: some power is not strictly between 0 and Pmax. The
    Newton solve balances every physical draw in a few steps, however slowly
    the best-response sweeps would settle, so which draws are kept does not
    depend on max_iter beyond those few steps. A
    (receiver, N) cell whose load K/N is at or above the receiver's
    feasibility bound is omitted, as in run_load_sweep, and
    InfeasibleLoadError is raised before any draw when every cell is.
    The table has no alpha or antenna column, so it takes one load and
    antennas=(1,).
    """
    alpha = one("alpha_range", config.alpha_grid, "this subcommand "
                f"tabulates one load, got {len(config.alpha_grid)} loads; "
                "set alpha")
    one("antennas", config.antennas, M1_ONLY, only=1)
    p, model = config.params, config.model
    gstar = solve_gamma_star(model)
    users = {N: max(1, round(alpha * N)) for N in config.n_grid}
    # two N can share a load K/N and still tabulate one row each
    loads = list(dict.fromkeys(K / N for N, K in users.items()))
    feasible = {(kind, load) for kind, _, load, _
                in feasible_cells(config.kinds, (1,), loads, gstar)}
    _check_powers(config)
    rows = []
    for kind_index, kind in enumerate(config.kinds):
        for N, K in users.items():
            if (kind, K / N) not in feasible:
                continue
            # the closed-form balanced received power depends on the load only
            q_asym = asymptotic.balanced_received_power(kind, K / N, gstar,
                                                        p.sigma2)
            trial_mean_ratios = []
            discarded = 0
            for t in range(config.trials):
                for attempt in range(100):
                    realization = _draw_realization(
                        config, N, K, 1, _STREAM_FINITE, kind_index, N, t,
                        attempt)
                    try:
                        res = solve_equilibrium(realization, kind, p, model,
                                                max_iter=config.max_iter)
                    except SingularSpreadingError:
                        discarded += 1
                        continue
                    if res.converged and not res.clamped_users:
                        break
                    discarded += 1
                else:
                    raise SolverError(
                        f"no feasible draw for {kind.value} at N={N}")
                p_asym = q_asym / realization.H[0] ** 2
                trial_mean_ratios.append(_mean((res.powers / p_asym).tolist()))
            mean_ratio = _mean(trial_mean_ratios)
            rows.append(FiniteVsAsymptoticRow(
                N, kind, abs(mean_ratio - 1.0),
                _std(trial_mean_ratios, mean_ratio) / math.sqrt(config.trials),
                discarded))
    rows.sort(key=lambda r: (r.N, r.kind.value))
    return rows
