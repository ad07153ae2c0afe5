"""Seeded Monte Carlo scenarios emitting tabular sweep data.

Reproducibility contract: every random draw comes from a trial_rng stream,
a pure function of (master_seed, stream label, key) realized through numpy
SeedSequence spawn keys, and all aggregation uses math.fsum so reported
means are exact and independent of trial ordering. Running the same config
twice therefore produces identical tables, bit for bit. The realizations of
the finite-system tables take one stream each. The Monte Carlo tables
(sweep and admission) read trial t as row t of a few sequential streams, so
their first T trials do not depend on the trial count.

Variance-reduction choices that keep the desk-scale runs stable:

* load sweeps draw one gain vector per trial and reuse it across every
  (load, receiver, antenna count) cell, so receiver orderings that hold per
  realization hold exactly in the reported means;
* the admission curve reuses one user-placement pool per trial across the
  whole load grid, so the load dependence of total utility is exact and the
  curve peaks precisely where the analysis says it must.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from . import asymptotic
from .config import ReceiverKind, ScenarioConfig, SweepMode
from .efficiency import EfficiencyModel, eff_value, solve_gamma_star
from .exceptions import (ConfigError, InfeasibleLoadError,
                         SingularSpreadingError, SolverError)
from .game import solve_equilibrium
from .system import (ChannelRealization, generate_gains, generate_spreading,
                     rayleigh_scale, sir_per_watt, utility)

log = logging.getLogger(__name__)

# stream labels keeping the experiment families on disjoint substreams
_STREAM_SWEEP = 0
_STREAM_ADMISSION = 1
_STREAM_FINITE = 2
_STREAM_CURVE = 3
_STREAM_EQUILIBRIUM = 4

# admission trials per vectorised block of draws; whole-run arrays are no
# faster and would tie peak memory to the trial count
_BLOCK = 32

# _exact_terms: bits of a 53-bit integer mantissa's low half, and the most
# values one bincount sums, so that every per-exponent sum of a half stays
# an integer below 2**53, exact in float64
_LOW_BITS = 26
_EXACT_CHUNK = 1 << 26


@dataclass(frozen=True)
class SweepRow:
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


@dataclass(frozen=True)
class EquilibriumRow:
    kind: ReceiverKind
    user: int
    power: float
    sir: float
    utility: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class TargetSirRow:
    alpha: float
    kind: ReceiverKind
    gamma_noncoop: float
    gamma_pareto: float


@dataclass(frozen=True)
class AdmissionRow:
    alpha: float
    mean_total_utility_per_dof: float
    Gamma: float


@dataclass(frozen=True)
class UtilityCurveRow:
    power: float
    utility: float


@dataclass(frozen=True)
class EfficiencyCurveRow:
    gamma: float
    f: float


@dataclass(frozen=True)
class FiniteVsAsymptoticRow:
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


# messages of _one, with {} for the values given
_ONE_COUNT = "this subcommand solves one antenna count, got {}"
_ONE_RECEIVER = "this subcommand solves one receiver, got {}"
_M1_ONLY = "this subcommand tabulates m=1 only, got antennas={}"


def _one(key: str, values: tuple, message: str, only=None):
    """The one value of ``key`` that a table with no column for it takes,
    which must be ``only`` if that is given. Any other tuple is a ConfigError
    naming the key, never cut to its first entry."""
    if len(values) != 1 or (only is not None and values[0] != only):
        raise ConfigError(key, message.format(",".join(
            str(v.value if isinstance(v, Enum) else v) for v in values)))
    return values[0]


def _sweep_gains(config: ScenarioConfig) -> np.ndarray:
    """Squared gains of the observed user, one row per trial and one column
    per antenna: antenna l's column is the scaled Rayleigh draws of
    trial_rng(master_seed, _STREAM_SWEEP, l), so it depends on neither the
    other antennas nor the trials after it."""
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


def _feasible_cells(kinds, antennas, loads, gamma_star: float):
    """(kind, m, load, Gamma) for each cell of kinds x antennas x loads, in
    that order, whose load admits the SIR target gamma_star with m antennas,
    as asymptotic.gamma_factor decides: the one feasibility gate of the
    tables. Each cell left out is logged; with none left, InfeasibleLoadError
    names every cell's load limit."""
    cells, limits = [], []
    for kind in kinds:
        for m in antennas:
            limits.append(f"{kind.value} m={m}: alpha < "
                          f"{asymptotic.feasibility_bound(kind, gamma_star, m):g}")
            for load in loads:
                try:
                    cells.append((kind, m, load, asymptotic.gamma_factor(
                        kind, load, gamma_star, m)))
                except InfeasibleLoadError:
                    log.info("omitting infeasible cell alpha=%g kind=%s m=%d",
                             load, kind.value, m)
    if not cells:
        raise InfeasibleLoadError("no feasible load point; " + "; ".join(limits))
    return cells


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
        _one("antennas", config.antennas,
             "mode=pareto tabulates m=1 only, got antennas={}", only=1)
    gstar = solve_gamma_star(config.model)
    p, model = config.params, config.model
    cells = _feasible_cells(config.kinds, config.antennas, config.alpha_grid,
                            gstar)
    h2 = _sweep_gains(config)
    moments = {m: _moments(h2[:, :m].sum(axis=1)) for m in config.antennas}
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


def run_target_sir_comparison(config: ScenarioConfig):
    """Non-cooperative versus cooperative target SIR over the load grid."""
    _one("antennas", config.antennas, _M1_ONLY, only=1)
    gstar = solve_gamma_star(config.model)
    rows = [TargetSirRow(alpha, kind, gstar,
                         asymptotic.solve_pareto_target(kind, alpha,
                                                        config.model))
            for kind, _, alpha, _ in _feasible_cells(
                config.kinds, (1,), config.alpha_grid, gstar)]
    rows.sort(key=lambda r: (r.alpha, r.kind.value))
    return rows


def _annulus_distances(u: np.ndarray, d_min: float, d_max: float) -> np.ndarray:
    # uniforms u in [0, 1) to distances uniform over the annulus area
    return np.sqrt(d_min ** 2 + u * (d_max ** 2 - d_min ** 2))


def _exact_terms(values: np.ndarray) -> list:
    """A few floats whose exact sum is the exact sum of values, so one
    math.fsum over the terms of many arrays is the fsum of all their values.

    Each value is an integer mantissa below 2**53 times a power of two. The
    high and low halves of the mantissas are summed per exponent by
    bincount, in chunks small enough that every partial sum is an integer
    below 2**53, hence exact; each sum times its power of two is exact too.
    An array holding a non-finite value, a subnormal or a value of 2**997
    or more passes through as it is, so fsum sees the ends of the float
    range, and treats their inf, nan and overflow, as it always has.
    """
    values = values.ravel()
    if not (values.size and np.isfinite(values).all()):
        return values.tolist()
    mantissas, exponents = np.frexp(values)
    low, high = exponents.min(), exponents.max()
    if low < -1021 or high > 997:
        return values.tolist()
    ints = (mantissas * 2.0 ** 53).astype(np.int64)
    halves = ((ints >> _LOW_BITS, _LOW_BITS - 53),
              (ints & ((1 << _LOW_BITS) - 1), -53))
    bins = exponents - low
    powers = np.arange(low, high + 1, dtype=exponents.dtype)
    terms = []
    for start in range(0, values.size, _EXACT_CHUNK):
        chunk = slice(start, start + _EXACT_CHUNK)
        for half, shift in halves:
            sums = np.bincount(bins[chunk], weights=half[chunk],
                               minlength=powers.size)
            terms.extend(np.ldexp(sums, powers + shift).tolist())
    return terms


def _pooled_mean_h2(config: ScenarioConfig) -> float:
    """E[h^2] over the placement pools of N annulus users, one per trial.

    Trial t's users take row t of the (trials, N) unit Rayleigh draws of
    trial_rng(master_seed, _STREAM_ADMISSION, 0) and of the annulus uniforms
    of trial_rng(master_seed, _STREAM_ADMISSION, 1). The mean is one exact
    sum over all trials * N squared gains, drawn ``_BLOCK`` trials at a time
    so memory does not grow with the trial count; each block enters the sum
    as its few exact per-exponent terms.
    """
    pool = config.params.N
    gains = trial_rng(config.master_seed, _STREAM_ADMISSION, 0)
    places = trial_rng(config.master_seed, _STREAM_ADMISSION, 1)

    def squares():
        for start in range(0, config.trials, _BLOCK):
            shape = (min(_BLOCK, config.trials - start), pool)
            d = _annulus_distances(places.random(shape), config.d_min,
                                   config.d_max)
            yield _exact_terms((rayleigh_scale(d)
                                * gains.rayleigh(size=shape)) ** 2)

    return math.fsum(chain.from_iterable(squares())) / (config.trials * pool)


def run_admission_curve(config: ScenarioConfig):
    """Total utility per degree of freedom and Gamma versus load.

    Users are placed uniformly in an annulus around the receiver; the same
    per-trial placement pool feeds every load point so the reported curve is
    exactly proportional to alpha * Gamma(alpha) and peaks at the Gamma = 1/2
    crossing regardless of sampling noise. The table has no receiver or
    antenna column, so it takes one of each; m antennas pool m E[h^2].
    """
    kind = _one("receiver", config.kinds, _ONE_RECEIVER)
    m = _one("antennas", config.antennas, _ONE_COUNT)
    gstar = solve_gamma_star(config.model)
    cells = _feasible_cells((kind,), (m,), config.alpha_grid, gstar)
    e_h2 = m * _pooled_mean_h2(config)
    coef = asymptotic.utility_coef(config.params, config.model, gstar)
    return [AdmissionRow(alpha, alpha * coef * gamma_bar * e_h2, gamma_bar)
            for _, _, alpha, gamma_bar in cells]


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
    m = _one("antennas", config.antennas, _ONE_COUNT)
    p = config.params
    realization = _draw_realization(config, p.N, p.K, m,
                                    _STREAM_EQUILIBRIUM, 0)
    rows, converged = [], True
    for kind in config.kinds:
        result = solve_equilibrium(realization, kind, p, config.model,
                                   max_iter=config.max_iter)
        converged = converged and result.converged
        rows.extend(EquilibriumRow(kind, k, power, sir,
                                   utility(power, sir, p, config.model),
                                   result.iterations, result.converged)
                    for k, (power, sir) in enumerate(zip(
                        result.powers.tolist(), result.sirs.tolist())))
    rows.sort(key=lambda r: (r.kind.value, r.user))
    return rows, converged


def run_utility_power_curve(config: ScenarioConfig, k: int = 0):
    """Utility of one user versus its own power, interference frozen.

    The interferers are frozen at their equilibrium powers on a single seeded
    realization with the one configured antenna count, so the curve peaks
    where the user's SIR meets the target. At power x that SIR is
    x * sir_per_watt, no filter depending on the user's own power. The grid
    is the equilibrium power times 1/16 .. 16, cut at Pmax. Returns (rows,
    whether the equilibrium converged).
    """
    m = _one("antennas", config.antennas, _ONE_COUNT)
    kind = _one("receiver", config.kinds, _ONE_RECEIVER)
    p = config.params
    realization = _draw_realization(config, p.N, p.K, m, _STREAM_CURVE, 0)
    result = solve_equilibrium(realization, kind, p, config.model,
                               max_iter=config.max_iter)
    rate = float(sir_per_watt(kind, realization.S, realization.H,
                              result.powers, p.sigma2)[k])
    grid = result.powers[k] * np.geomspace(1.0 / 16.0, 16.0, 65)
    rows = [UtilityCurveRow(x, utility(x, x * rate, p, config.model))
            for x in grid[grid <= p.Pmax].tolist()]
    return rows, result.converged


def run_efficiency_curve(model: EfficiencyModel, gamma_grid):
    """Tabulate the efficiency function along a nonnegative increasing grid."""
    grid = np.asarray(gamma_grid, dtype=float)
    if np.any(grid < 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("gamma grid must be nonnegative and increasing")
    return [EfficiencyCurveRow(float(g), eff_value(model, float(g)))
            for g in grid]


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
    alpha = _one("alpha_range", config.alpha_grid, "this subcommand "
                 f"tabulates one load, got {len(config.alpha_grid)} loads; "
                 "set alpha")
    _one("antennas", config.antennas, _M1_ONLY, only=1)
    p, model = config.params, config.model
    gstar = solve_gamma_star(model)
    users = {N: max(1, round(alpha * N)) for N in config.n_grid}
    # two N can share a load K/N and still tabulate one row each
    loads = list(dict.fromkeys(K / N for N, K in users.items()))
    feasible = {(kind, load) for kind, _, load, _
                in _feasible_cells(config.kinds, (1,), loads, gstar)}
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
