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
                         SingularSpreadingError, SolverError)
from .game import solve_equilibrium
from .system import (ChannelRealization, ReceiverKind, SystemParams,
                     generate_gains, generate_spreading, rayleigh_scale,
                     utility_vs_power_curve)

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
    gain_mean_semantics: str = "amplitude"
    n_grid: tuple = (25, 50, 100)
    max_iter: int = 500      # best-response sweep cap for finite solves

    def __post_init__(self):
        if self.trials < 1 or self.max_iter < 1:
            raise ValueError("trials and max_iter must be >= 1")
        if not (self.kinds and self.antennas and self.n_grid):
            raise ValueError("kinds, antennas and n_grid must not be empty")
        grid = np.asarray(self.alpha_grid, dtype=float)
        if grid.size and (np.any(grid <= 0) or np.any(np.diff(grid) <= 0)):
            raise ValueError("alpha_grid must be strictly positive and increasing")
        if any(m < 1 for m in self.antennas):
            raise ValueError("antenna counts must be positive")
        if any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid entries must be positive")
        if not 0 < self.d_min < self.d_max:
            raise ValueError("need 0 < d_min < d_max")
        if self.distance <= 0:
            raise ValueError("distance must be positive")


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
    scale = rayleigh_scale([config.distance], config.gain_mean_semantics)
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
    mode=pareto without antenna count 1 raises ConfigError.
    """
    antennas = config.antennas
    if config.mode is SweepMode.PARETO:
        if 1 not in antennas:
            raise ConfigError("antennas", "mode=pareto tabulates m=1 only, "
                              f"got antennas={','.join(map(str, antennas))}")
        antennas = (1,)
    gstar = solve_gamma_star(config.model)
    p, model = config.params, config.model
    cells = _feasible_cells(config.kinds, antennas, config.alpha_grid, gstar)
    h2 = _sweep_gains(config)
    hbar2_by_m = {m: h2[:, :m].sum(axis=1) for m in antennas}
    rows = []
    for kind, m, alpha, gamma_bar in cells:
        hbar2 = hbar2_by_m[m]
        if config.mode in (SweepMode.NONCOOPERATIVE, SweepMode.BOTH):
            coef = asymptotic.utility_coef(p, model, gstar) * gamma_bar
            utilities = (coef * hbar2).tolist()
            powers = ((gstar * p.sigma2) / (hbar2 * gamma_bar)).tolist()
            mu = _mean(utilities)
            rows.append(SweepRow(alpha, kind, m, SweepMode.NONCOOPERATIVE,
                                 mu, _std(utilities, mu), _mean(powers),
                                 gstar, config.trials, 0))
        if config.mode in (SweepMode.PARETO, SweepMode.BOTH) and m == 1:
            g_opt = asymptotic.solve_pareto_target(kind, alpha, model)
            # same grouping as above so the decorrelator rows, whose
            # cooperative target equals the tangent solution, come
            # out bit-identical to the non-cooperative ones
            factor = asymptotic.gamma_factor(kind, alpha, g_opt)
            coef = asymptotic.utility_coef(p, model, g_opt) * factor
            utilities = (coef * hbar2).tolist()
            powers = ((g_opt * p.sigma2) / (hbar2 * factor)).tolist()
            mu = _mean(utilities)
            rows.append(SweepRow(alpha, kind, m, SweepMode.PARETO,
                                 mu, _std(utilities, mu), _mean(powers),
                                 g_opt, config.trials, 0))
    rows.sort(key=_sort_key)
    return rows


def run_target_sir_comparison(config: ScenarioConfig):
    """Non-cooperative versus cooperative target SIR over the load grid."""
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
        h = rayleigh_scale(d, config.gain_mean_semantics) * unit
        mean_h2.extend(_mean(row.tolist()) for row in h ** 2)
    return _mean(mean_h2)


def run_admission_curve(config: ScenarioConfig):
    """Total utility per degree of freedom and Gamma versus load.

    Users are placed uniformly in an annulus around the receiver; the same
    per-trial placement pool feeds every load point so the reported curve is
    exactly proportional to alpha * Gamma(alpha) and peaks at the Gamma = 1/2
    crossing regardless of sampling noise. The first configured receiver and
    antenna count are used.
    """
    gstar = solve_gamma_star(config.model)
    cells = _feasible_cells(config.kinds[:1], config.antennas[:1],
                            config.alpha_grid, gstar)
    e_h2 = _pooled_mean_h2(config)
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
    H = generate_gains(distances, m, rng, config.gain_mean_semantics)
    return ChannelRealization(S=S, H=H, distances=distances)


def _one_antenna_count(config: ScenarioConfig) -> int:
    """The antenna count of a table solved on one realization; a list is
    rejected rather than cut to its first entry."""
    if len(config.antennas) != 1:
        raise ConfigError("antennas", "this subcommand solves one antenna "
                          f"count, got {','.join(map(str, config.antennas))}")
    return config.antennas[0]


def run_equilibria(config: ScenarioConfig):
    """Per-user equilibrium rows for every configured receiver on one seeded
    realization with the one configured antenna count, sorted by receiver
    and user. Returns (rows, whether every equilibrium converged)."""
    m = _one_antenna_count(config)
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
    where the user's SIR meets the target. The grid is the equilibrium power
    times 1/16 .. 16, cut at Pmax. Returns (rows, whether the equilibrium
    converged).
    """
    m = _one_antenna_count(config)
    p = config.params
    realization = _draw_realization(config, p.N, p.K, m, _STREAM_CURVE, 0)
    kind = config.kinds[0]
    result = solve_equilibrium(realization, kind, p, config.model,
                               max_iter=config.max_iter)
    power_grid = result.powers[k] * np.geomspace(1.0 / 16.0, 16.0, 65)
    curve = utility_vs_power_curve(k, realization, kind, result.powers,
                                   power_grid[power_grid <= p.Pmax], p,
                                   config.model)
    return [UtilityCurveRow(p_k, u) for p_k, u in curve], result.converged


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
    Degenerate draws (singular crosscorrelation or non-convergence) are
    discarded deterministically and redrawn from the next substream. A
    (receiver, N) cell whose load K/N is at or above the receiver's
    feasibility bound is omitted, as in run_load_sweep, and
    InfeasibleLoadError is raised before any draw when every cell is.
    The table has no alpha column, so ConfigError is raised unless
    config.alpha_grid holds exactly one load.
    """
    if len(config.alpha_grid) != 1:
        raise ConfigError("alpha_range", "this subcommand tabulates one load, "
                          f"got {len(config.alpha_grid)} loads; set alpha")
    alpha = config.alpha_grid[0]
    p, model = config.params, config.model
    gstar = solve_gamma_star(model)
    users = {N: max(1, round(alpha * N)) for N in config.n_grid}
    # two N can share a load K/N and still tabulate one row each
    loads = list(dict.fromkeys(K / N for N, K in users.items()))
    gamma_bar = {(kind, load): g for kind, _, load, g
                 in _feasible_cells(config.kinds, (1,), loads, gstar)}
    rows = []
    for kind_index, kind in enumerate(config.kinds):
        for N, K in users.items():
            if (kind, K / N) not in gamma_bar:
                continue
            # the closed-form balanced received power depends on the load only
            q_asym = gstar * p.sigma2 / gamma_bar[kind, K / N]
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
            if discarded:
                log.info("redrew %d degenerate draws for %s at N=%d",
                         discarded, kind.value, N)
            rows.append(FiniteVsAsymptoticRow(
                N, kind, abs(_mean(trial_mean_ratios) - 1.0)))
    rows.sort(key=lambda r: (r.N, r.kind.value))
    return rows
