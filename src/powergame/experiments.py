"""Seeded Monte Carlo scenarios emitting tabular sweep data.

Reproducibility contract: every random draw is a pure function of
(master_seed, stream label, trial index), realized through numpy SeedSequence
spawn keys, and all aggregation uses math.fsum so reported means are exact
and independent of trial ordering. Running the same config twice therefore
produces identical tables, bit for bit.

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

from . import asymptotic, multiantenna
from .efficiency import EfficiencyModel, eff_value, solve_gamma_star
from .exceptions import InfeasibleLoadError, SingularSpreadingError, SolverError
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
        grid = np.asarray(self.alpha_grid, dtype=float)
        if grid.size and (np.any(grid <= 0) or np.any(np.diff(grid) <= 0)):
            raise ValueError("alpha_grid must be strictly positive and increasing")
        if any(m < 1 for m in self.antennas):
            raise ValueError("antenna counts must be positive")
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

    Trial t takes, from trial_rng(master_seed, stream, t) and in this order,
    ``count`` uniforms (only if ``uniforms``) and then ``count`` unit-scale
    Rayleigh amplitudes: the draws generate_gains makes for ``count`` gains
    at one scale. Rayleigh variates are scale * sqrt(2 E), so multiplying a
    unit draw by the scale afterwards gives the same floats, which lets the
    callers apply distances and scales to a whole block at once. Yields
    (first trial, uniforms or None, unit draws), both arrays of shape
    (block trials, count).
    """
    for start in range(0, config.trials, _BLOCK):
        rows = min(_BLOCK, config.trials - start)
        u = np.empty((rows, count)) if uniforms else None
        unit = np.empty((rows, count))
        for i in range(rows):
            rng = trial_rng(config.master_seed, stream, start + i)
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


def run_load_sweep(config: ScenarioConfig):
    """Average utility versus load per (receiver, antenna count, mode).

    Utilities come from the large-system closed forms evaluated on random
    gain draws of one user at the configured distance; infeasible
    (load, receiver) cells are omitted rather than raised. Cooperative
    (Pareto) rows are produced for the single-antenna case only and on the
    same feasibility grid as the non-cooperative ones.
    """
    gstar = solve_gamma_star(config.model)
    p, model = config.params, config.model
    h2 = _sweep_gains(config)
    rows = []
    for m in config.antennas:
        hbar2 = h2[:, :m].sum(axis=1)
        for kind in config.kinds:
            for alpha in config.alpha_grid:
                try:
                    gamma_bar = multiantenna.gamma_factor_ma(kind, alpha, m, gstar)
                except InfeasibleLoadError:
                    log.info("omitting infeasible cell alpha=%g kind=%s m=%d",
                             alpha, kind.value, m)
                    continue
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
    rows = []
    for kind in config.kinds:
        for alpha in config.alpha_grid:
            if not multiantenna.is_feasible_ma(kind, alpha, 1, gstar):
                continue
            g_opt = asymptotic.solve_pareto_target(kind, alpha, config.model)
            rows.append(TargetSirRow(alpha, kind, gstar, g_opt))
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
    kind = config.kinds[0]
    m = config.antennas[0]
    gstar = solve_gamma_star(config.model)
    e_h2 = _pooled_mean_h2(config)
    coef = asymptotic.utility_coef(config.params, config.model, gstar)
    rows = []
    for alpha in config.alpha_grid:
        try:
            gamma_bar = multiantenna.gamma_factor_ma(kind, alpha, m, gstar)
        except InfeasibleLoadError:
            continue
        rows.append(AdmissionRow(alpha, alpha * coef * gamma_bar * e_h2,
                                 gamma_bar))
    return rows


def _curve_realization(config: ScenarioConfig) -> ChannelRealization:
    p = config.params
    rng = trial_rng(config.master_seed, _STREAM_CURVE, 0)
    S = generate_spreading(p.N, p.K, rng)
    distances = np.full(p.K, config.distance)
    H = generate_gains(distances, 1, rng, config.gain_mean_semantics)
    return ChannelRealization(S=S, H=H, distances=distances)


def run_utility_power_curve(config: ScenarioConfig, k: int = 0,
                            power_grid=None):
    """Utility of one user versus its own power, interference frozen.

    The interferers are frozen at their equilibrium powers on a single seeded
    realization (single receive antenna), so the curve peaks where the user's
    SIR meets the target.
    """
    realization = _curve_realization(config)
    kind = config.kinds[0]
    result = solve_equilibrium(realization, kind, config.params, config.model,
                               max_iter=config.max_iter)
    if power_grid is None:
        power_grid = result.powers[k] * np.geomspace(1.0 / 16.0, 16.0, 65)
    curve = utility_vs_power_curve(k, realization, kind, result.powers,
                                   power_grid, config.params, config.model)
    return [UtilityCurveRow(p_k, u) for p_k, u in curve]


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
    feasibility bound is omitted rather than raised, as in run_load_sweep;
    InfeasibleLoadError is raised only when every cell is omitted.
    """
    alpha = config.alpha_grid[0]
    p, model = config.params, config.model
    gstar = solve_gamma_star(model)
    rows = []
    for kind_index, kind in enumerate(config.kinds):
        for N in config.n_grid:
            K = max(1, round(alpha * N))
            load = K / N
            if not multiantenna.is_feasible_ma(kind, load, 1, gstar):
                log.info("omitting infeasible cell load=%g kind=%s N=%d",
                         load, kind.value, N)
                continue
            # the closed-form received power depends on the load only
            q_asym = asymptotic.balanced_received_power(kind, load, gstar,
                                                        p.sigma2)
            trial_mean_ratios = []
            discarded = 0
            for t in range(config.trials):
                for attempt in range(100):
                    rng = trial_rng(config.master_seed, _STREAM_FINITE,
                                    kind_index, N, t, attempt)
                    S = generate_spreading(N, K, rng)
                    distances = np.full(K, config.distance)
                    H = generate_gains(distances, 1, rng,
                                       config.gain_mean_semantics)
                    realization = ChannelRealization(S=S, H=H,
                                                     distances=distances)
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
                p_asym = q_asym / (H[0] * H[0])
                trial_mean_ratios.append(_mean((res.powers / p_asym).tolist()))
            if discarded:
                log.info("redrew %d degenerate draws for %s at N=%d",
                         discarded, kind.value, N)
            rows.append(FiniteVsAsymptoticRow(
                N, kind, abs(_mean(trial_mean_ratios) - 1.0)))
    if not rows:
        raise InfeasibleLoadError(
            f"no feasible cell: every load K/N from alpha={alpha:g} is at or "
            "above the receivers' feasibility bounds")
    rows.sort(key=lambda r: (r.N, r.kind.value))
    return rows
