"""Seeded Monte Carlo scenarios emitting tabular data: the tables that
solve a finite system, and so load numpy.

Reproducibility contract: every random draw comes from a trial_rng stream,
a pure function of (master_seed, stream label, key) realized through numpy
SeedSequence spawn keys, and all aggregation uses math.fsum so reported
means are exact and independent of trial ordering. Running the same config
twice therefore produces identical tables, bit for bit. Each realization
takes one stream. The tables that solve no finite system, the load sweeps
among them, live in closedform, with the rules they share with these
drivers."""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from . import asymptotic, closedform
from .closedform import (M1_ONLY, ONE_COUNT, ONE_RECEIVER, check_distance,
                         exact_mean, exact_std, feasible_cells, one)
from .config import ReceiverKind, ScenarioConfig
from .efficiency import solve_gamma_star
from .exceptions import PowerGameError, SingularSpreadingError, SolverError
from .game import solve_equilibrium
from .system import (ChannelRealization, generate_gains, generate_spreading,
                     sir_per_watt, utility)

# stream labels keeping the experiment families on disjoint substreams; a
# table's bytes depend on its label, so labels are never renumbered (0 was
# the load sweeps')
_STREAM_FINITE = 2
_STREAM_CURVE = 3
_STREAM_EQUILIBRIUM = 4

# perfbench imports these from here
run_admission_curve = closedform.run_admission_curve
run_load_sweep = closedform.run_load_sweep
SweepMode = closedform.SweepMode


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


def _check_powers(config: ScenarioConfig) -> float:
    """gamma* sigma2 / E[h^2], the power a user alone at config.distance
    needs, or a PowerGameError naming distance and sigma2 where it is past
    the normal floats: the solve overflows above them; below, the powers
    lose digits, and the SIRs and utilities from them overflow."""
    d, sigma2 = config.distance, config.params.sigma2
    power = solve_gamma_star(config.model) * sigma2 / check_distance(d)
    if not sys.float_info.min <= power < math.inf:
        side = "above" if power > 1.0 else "below"
        raise PowerGameError(f"distance={d!r}: the power a user alone at that "
                             f"distance needs at sigma2={sigma2!r} is {side} "
                             "the float range")
    return power


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
    # the gate names the rounded loads K/N, which alpha may not show
    rounded = ", ".join(f"{K}/{N} = {K / N:g}" for N, K in users.items())
    feasible = {(kind, load) for kind, _, load, _ in feasible_cells(
        config.kinds, (1,), loads, gstar, where=f" at K/N = {rounded}")}
    lone = _check_powers(config)
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
                        f"no feasible draw for {kind.value} at N={N} in 100 "
                        f"draws; a user alone at distance={config.distance!r}"
                        f" needs {lone:.3g} W at the mean gain and sigma2="
                        f"{p.sigma2!r}, against Pmax={p.Pmax!r}")
                p_asym = q_asym / realization.H[0] ** 2
                trial_mean_ratios.append(exact_mean((res.powers / p_asym).tolist()))
            mean_ratio = exact_mean(trial_mean_ratios)
            rows.append(FiniteVsAsymptoticRow(
                N, kind, abs(mean_ratio - 1.0),
                exact_std(trial_mean_ratios, mean_ratio) / math.sqrt(config.trials),
                discarded))
    rows.sort(key=lambda r: (r.N, r.kind.value))
    return rows
