"""Closed-form tables, loading no numpy: the load sweeps, the
non-cooperative versus cooperative target SIR per load, the admission curve
and the efficiency function.

Only the load sweeps draw, one user's unit-mean squared Rayleigh gains from
random.Random streams, scaled by E[h^2], and they reuse each trial's gains
across every (load, receiver, antenna count) cell, so receiver orderings
that hold per realization hold exactly in the reported means. The table
helpers the drivers in experiments share live here too: ``one``, the one
value of a key a table has no column for, ``feasible_cells``, the one
feasibility gate, and the exact sums.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from typing import NamedTuple

from . import asymptotic
from .config import ReceiverKind, ScenarioConfig, SweepMode
from .efficiency import eff_value, solve_gamma_star
from .exceptions import ConfigError, InfeasibleLoadError, PowerGameError

# system.rayleigh_scale(1.0), 0.3 / 1.0**2 * sqrt(2/pi), bit for bit: the
# Rayleigh scale at 1 m, whose amplitude mean E[h] is 0.3
RAYLEIGH_SCALE_1M = 0.3 * math.sqrt(2.0 / math.pi)

# the load sweeps' stream label, never renumbered: their bytes depend on it
_STREAM_SWEEP = 0


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


class TargetSirRow(NamedTuple):
    alpha: float
    kind: ReceiverKind
    gamma_noncoop: float
    gamma_pareto: float


class AdmissionRow(NamedTuple):
    alpha: float
    mean_total_utility_per_dof: float
    Gamma: float


class EfficiencyCurveRow(NamedTuple):
    gamma: float
    f: float


# messages of one, with {} for the values given
ONE_COUNT = "this subcommand solves one antenna count, got {}"
ONE_RECEIVER = "this subcommand solves one receiver, got {}"
M1_ONLY = "this subcommand tabulates m=1 only, got antennas={}"


def one(key: str, values: tuple, message: str, only=None):
    """The one value of ``key`` that a table with no column for it takes,
    which must be ``only`` if that is given. Any other tuple is a ConfigError
    naming the key, never cut to its first entry."""
    if len(values) != 1 or (only is not None and values[0] != only):
        raise ConfigError(key, message.format(",".join(
            str(v.value if isinstance(v, Enum) else v) for v in values)))
    return values[0]


def feasible_cells(kinds, antennas, loads, gamma_star: float, where=""):
    """(kind, m, load, Gamma) for each cell of kinds x antennas x loads, in
    that order, whose load admits the SIR target gamma_star with m antennas,
    as asymptotic.gamma_factor decides: the one feasibility gate of the
    tables. A cell left out is just absent from the table; with none left,
    InfeasibleLoadError names every cell's load limit, after ``where``, in
    which a table that derives its loads from alpha names them."""
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
                    pass
    if not cells:
        raise InfeasibleLoadError(f"no feasible load point{where}; "
                                  + "; ".join(limits))
    return cells


def exact_mean(values) -> float:
    """The mean by math.fsum: exact, so independent of the values' order."""
    return math.fsum(values) / len(values)


def exact_std(values, mean: float) -> float:
    # sample standard deviation; exact summation keeps it order independent
    if len(values) < 2:
        return 0.0
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))


def _square_gain(d2: float, what: str) -> float:
    """2 (s(1)/d2)^2, the E[h^2] of a Rayleigh gain of scale s(1)/d2; a
    value outside the float range is a PowerGameError led by ``what``."""
    try:
        e_h2 = 2.0 * (RAYLEIGH_SCALE_1M / d2) ** 2
    except ArithmeticError:
        e_h2 = math.inf
    if not (math.isfinite(e_h2) and e_h2 > 0):
        raise PowerGameError(f"{what} is outside the float range")
    return e_h2


def mean_square_gain(d_min: float, d_max: float) -> float:
    """E[h^2] of a user placed uniformly over the area of the annulus
    d_min <= d <= d_max, in closed form.

    A Rayleigh gain of scale s has E[h^2] = 2 s^2, and system.rayleigh_scale
    is s(d) = s(1)/d^2, so E[h^2 | d] = 2 s(1)^2/d^4. Averaged over the
    density 2d/(d_max^2 - d_min^2) of d this is 2 s(1)^2/(d_min^2 d_max^2),
    the gain at the geometric mean radius. A value outside the float range
    is a PowerGameError naming both radii.
    """
    return _square_gain(d_min * d_max, f"d_min={d_min!r}, d_max={d_max!r}: "
                        "the mean square gain over the annulus")


def check_distance(distance: float) -> float:
    """E[h^2] = 2 s(d)^2 of a user at that distance, or a PowerGameError
    naming ``distance`` when it is outside the float range, where every gain
    drawn there would overflow or vanish. The tables drawing users at
    config.distance check it once, before their first draw."""
    return _square_gain(distance * distance, f"distance={distance!r}: the "
                        "mean square gain at that distance")


def _sweep_gains(config: ScenarioConfig):
    """Unit-mean squared gains of the observed user, one list per antenna:
    trial t of antenna l is -log(1 - u) for draw t of
    random.Random("<seed>/<label>/<l>"), whose string seed fixes it across
    Python releases. So a list depends on neither the other antennas, the
    trials after it nor the distance, whose E[h^2] scales the moments."""
    gains = []
    for l in range(max(config.antennas)):
        rng = random.Random(f"{config.master_seed}/{_STREAM_SWEEP}/{l}")
        gains.append([-math.log(1.0 - rng.random())
                      for _ in range(config.trials)])
    return gains


def _moments(hbar2):
    """(mean, sample std, mean of the reciprocal) of hbar2, exact sums."""
    mean = exact_mean(hbar2)
    return mean, exact_std(hbar2, mean), exact_mean([1.0 / v for v in hbar2])


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
    e_h2 = check_distance(config.distance)
    gains = _sweep_gains(config)
    moments = {m: _moments([math.fsum(h2) for h2 in zip(*gains[:m])])
               for m in config.antennas}
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
        # utility is coef * hbar2 and power gamma sigma2 / (Gamma hbar2),
        # hbar2 being E[h^2] times the unit draws: the rows scale their
        # moments by one grouping for both modes, so the decorrelator rows,
        # whose cooperative target equals the tangent solution, come out
        # bit-identical to the non-cooperative ones
        for mode, gamma, factor in targets:
            coef = asymptotic.utility_coef(p, model, gamma) * factor * e_h2
            rows.append(SweepRow(alpha, kind, m, mode, coef * mean, coef * std,
                                 gamma * p.sigma2 / factor * mean_inv / e_h2,
                                 gamma, config.trials, 0))
    rows.sort(key=_sort_key)
    return rows


def run_target_sir_comparison(config: ScenarioConfig):
    """Non-cooperative versus cooperative target SIR over the load grid."""
    one("antennas", config.antennas, M1_ONLY, only=1)
    gstar = solve_gamma_star(config.model)
    rows = [TargetSirRow(alpha, kind, gstar,
                         asymptotic.solve_pareto_target(kind, alpha,
                                                        config.model))
            for kind, _, alpha, _ in feasible_cells(
                config.kinds, (1,), config.alpha_grid, gstar)]
    rows.sort(key=lambda r: (r.alpha, r.kind.value))
    return rows


def run_admission_curve(config: ScenarioConfig):
    """Total utility per degree of freedom and Gamma versus load.

    Each row is alpha * utility_coef * Gamma(alpha) * m E[h^2], with E[h^2]
    the closed form mean_square_gain for users placed uniformly over the
    annulus area, so nothing is drawn: the curve is exactly proportional to
    alpha * Gamma(alpha), peaks at the Gamma = 1/2 crossing, and depends on
    neither the seed, the trial count nor N. The table has no receiver or
    antenna column, so it takes one of each; m antennas pool m E[h^2].
    """
    kind = one("receiver", config.kinds, ONE_RECEIVER)
    m = one("antennas", config.antennas, ONE_COUNT)
    gstar = solve_gamma_star(config.model)
    cells = feasible_cells((kind,), (m,), config.alpha_grid, gstar)
    e_h2 = m * mean_square_gain(config.d_min, config.d_max)
    coef = asymptotic.utility_coef(config.params, config.model, gstar)
    return [AdmissionRow(alpha, alpha * coef * gamma_bar * e_h2, gamma_bar)
            for _, _, alpha, gamma_bar in cells]


def run_efficiency_curve(config: ScenarioConfig):
    """The efficiency function of config.model at the 201 SIRs i * 0.1,
    i = 0 .. 200, whose last point rounds to 20.0."""
    return [EfficiencyCurveRow(g, eff_value(config.model, g))
            for g in (i * 0.1 for i in range(201))]
