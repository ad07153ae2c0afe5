"""Seeded Monte Carlo scenarios emitting tabular sweep data.

Reproducibility contract: every random draw is a pure function of
(master_seed, stream label, trial index), realized through numpy SeedSequence
spawn keys, and all aggregation uses math.fsum so reported means are exact
and independent of trial ordering. Running the same config twice therefore
produces identical tables, bit for bit. The per-trial sweep and admission
draws come from the trial_rng streams; only their seeding is batched, one
vectorised SeedSequence hash per chunk of consecutive trials.

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

import numpy as np

from . import asymptotic
from .efficiency import EfficiencyModel, eff_value, solve_gamma_star
from .exceptions import (ConfigError, InfeasibleLoadError, PowerGameError,
                         SingularSpreadingError, SolverError, check_value)
from .game import solve_equilibrium
from .system import (ChannelRealization, ReceiverKind, SystemParams,
                     generate_gains, generate_spreading, rayleigh_scale,
                     sir_per_watt, utility)

log = logging.getLogger(__name__)

# stream labels keeping the experiment families on disjoint substreams
_STREAM_SWEEP = 0
_STREAM_ADMISSION = 1
_STREAM_FINITE = 2
_STREAM_CURVE = 3
_STREAM_EQUILIBRIUM = 4

# trials per vectorised block of gain draws; whole-run arrays are no faster
# and would tie peak memory to the trial count
_BLOCK = 32


class SweepMode(Enum):
    NONCOOPERATIVE = "noncoop"
    PARETO = "pareto"
    BOTH = "both"


@dataclass(frozen=True)
class ScenarioConfig:
    params: SystemParams
    model: EfficiencyModel
    kinds: tuple
    alpha_grid: tuple
    trials: int
    master_seed: int
    distance: float
    antennas: tuple
    mode: SweepMode
    d_min: float = 10.0      # annulus placement radii for admission runs
    d_max: float = 1000.0
    n_grid: tuple = (25, 50, 100)
    max_iter: int = 500      # best-response sweep cap for finite solves

    def __post_init__(self):
        # each ConfigError names the config key that sets the field
        for key, value in (("trials", self.trials), ("max_iter", self.max_iter),
                           ("seed", self.master_seed), ("distance", self.distance),
                           ("d_min", self.d_min), ("d_max", self.d_max),
                           ("alpha_range", self.alpha_grid),
                           ("antennas", self.antennas), ("n_grid", self.n_grid)):
            check_value(key, value)
        if self.d_min >= self.d_max:
            raise ConfigError("d_min", f"must be below d_max={self.d_max}, got {self.d_min}")
        if not self.kinds:
            raise ConfigError("receiver", "must not be empty")


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its constants
# and word order are fixed by numpy's stream-compatibility policy, and
# _trial_rngs checks them against numpy once per seeding chunk
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_CHUNK = 256  # trials per vectorised hash; 32 B of words each


def _hashmix(value, h, mult):
    # one hash step on uint32 words held in Python ints or uint64 arrays
    h_next = h * mult & _M32
    value = (value ^ h) * h_next & _M32
    return value ^ value >> 16, h_next


def _mix(x, y):
    # x * L - y * R mod 2**32, with -R taken mod 2**32 so arrays never wrap
    r = ((_MIX_L * x & _M32) + (-_MIX_R & _M32) * y) & _M32
    return r ^ r >> 16


def _uint32_words(n: int) -> list:
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def _trial_states(master_seed: int, stream: int, first: int, count: int):
    """SeedSequence(master_seed, spawn_key=(stream, t)).generate_state(4,
    uint64) for t = first .. first + count - 1, one row per trial.

    The entropy words are the seed zero-padded to the pool size 4, the stream
    and, last, the trial index: the prefix is mixed once in Python ints, the
    trial word and the output words for the whole chunk in numpy.
    """
    if master_seed < 0 or first < 0 or first + count - 1 > _M32:
        raise ValueError("need a seed >= 0 and trial indices below 2**32")
    seed = _uint32_words(master_seed)
    entropy = seed + [0] * (4 - len(seed)) + _uint32_words(stream)
    h, pool = _INIT_A, []
    for word in entropy[:4]:
        value, h = _hashmix(word, h, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if dst != src:
                value, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    trials = np.arange(first, first + count, dtype=np.uint64)
    for word in entropy[4:] + [trials]:
        for dst in range(4):
            value, h = _hashmix(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    words, h = [], _INIT_B
    for i in range(8):
        value, h = _hashmix(pool[i % 4], h, _MULT_B)
        words.append(value)
    # uint32 words pair up little-endian into C-ordered uint64 rows
    return np.stack([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])],
                    axis=1)


def _trial_rngs(master_seed: int, stream: int, first: int, count: int):
    """trial_rng(master_seed, stream, t) for t = first .. first + count - 1."""
    # imported here, not with the module: numpy.random loads on first use,
    # and gamma-star, which never draws, is spared its ~20 ms and ~6 MB
    from numpy.random.bit_generator import ISeedSequence

    class TrialSeed(ISeedSequence):
        """One trial's precomputed words, for PCG64's one and only request,
        generate_state(4, uint64)."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    for start in range(first, first + count, _SEED_CHUNK):
        states = _trial_states(master_seed, stream, start,
                               min(_SEED_CHUNK, first + count - start))
        oracle = np.random.SeedSequence(master_seed, spawn_key=(stream, start))
        if not np.array_equal(states[0], oracle.generate_state(4, np.uint64)):
            raise PowerGameError("batched trial seeding disagrees with numpy")
        for words in states:
            yield np.random.Generator(np.random.PCG64(TrialSeed(words)))


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


def _draw_blocks(config: ScenarioConfig, stream: int, count: int,
                 uniforms: bool):
    """Raw per-trial draws, ``_BLOCK`` trials at a time.

    Trial t takes, from the trial_rng(master_seed, stream, t) stream (seeded
    in batches by _trial_rngs) and in this order, ``count`` uniforms (only if
    ``uniforms``) and then ``count`` unit-scale Rayleigh amplitudes: the
    draws generate_gains makes for ``count`` gains at one scale. Rayleigh
    variates are scale * sqrt(2 E), so multiplying a unit draw by the scale
    afterwards gives the same floats, which lets the callers apply distances
    and scales to a whole block at once. Yields
    (first trial, uniforms or None, unit draws), both arrays of shape
    (block trials, count).
    """
    rngs = _trial_rngs(config.master_seed, stream, 0, config.trials)
    for start in range(0, config.trials, _BLOCK):
        rows = min(_BLOCK, config.trials - start)
        u = np.empty((rows, count)) if uniforms else None
        unit = np.empty((rows, count))
        for i in range(rows):
            rng = next(rngs)
            if uniforms:
                rng.random(out=u[i])
            unit[i] = rng.rayleigh(size=count)
        yield start, u, unit


def _sweep_gains(config: ScenarioConfig) -> np.ndarray:
    """Per-trial squared gains of the observed user, one row per antenna."""
    scale = rayleigh_scale([config.distance])
    m_max = max(config.antennas)
    h2 = np.empty((config.trials, m_max))
    for start, _, unit in _draw_blocks(config, _STREAM_SWEEP, m_max, False):
        h2[start:start + len(unit)] = (scale * unit) ** 2
    return h2


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
    hbar2_by_m = {m: h2[:, :m].sum(axis=1) for m in config.antennas}
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
        hbar2 = hbar2_by_m[m]
        # one grouping for both modes, so the decorrelator rows, whose
        # cooperative target equals the tangent solution, come out
        # bit-identical to the non-cooperative ones
        for mode, gamma, factor in targets:
            coef = asymptotic.utility_coef(p, model, gamma) * factor
            utilities = (coef * hbar2).tolist()
            powers = ((gamma * p.sigma2) / (hbar2 * factor)).tolist()
            mu = _mean(utilities)
            rows.append(SweepRow(alpha, kind, m, mode, mu, _std(utilities, mu),
                                 _mean(powers), gamma, config.trials, 0))
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


def _pooled_mean_h2(config: ScenarioConfig) -> float:
    """E[h^2] over the per-trial placement pools of N annulus users."""
    pool = config.params.N
    mean_h2 = []
    for _, u, unit in _draw_blocks(config, _STREAM_ADMISSION, pool, True):
        d = _annulus_distances(u, config.d_min, config.d_max)
        h = rayleigh_scale(d) * unit
        mean_h2.extend(_mean(row.tolist()) for row in h ** 2)
    return _mean(mean_h2)


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
        rows.extend(EquilibriumRow(kind, k, float(result.powers[k]),
                                   float(result.sirs[k]),
                                   float(result.utilities[k]),
                                   result.iterations, result.converged)
                    for k in range(len(result.powers)))
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
                                                gamma_star=gstar,
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
