"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantities (run pytest -s to see them all).
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from powergame.asymptotic import (feasibility_bound, gamma_factor,
                                  solve_pareto_target, utility_coef)
from powergame.closedform import run_admission_curve, run_load_sweep
from powergame.config import ScenarioConfig, SweepMode
from powergame.efficiency import (EfficiencyKind, EfficiencyModel, eff_value,
                                  solve_gamma_star)
from powergame.experiments import run_finite_vs_asymptotic, trial_rng
from powergame.game import solve_equilibrium, verify_nash
from powergame.system import (ChannelRealization, ReceiverKind, SystemParams,
                              generate_gains, generate_spreading)

MF = ReceiverKind.MATCHED_FILTER
DE = ReceiverKind.DECORRELATOR
MMSE = ReceiverKind.MMSE
ALL = (MF, DE, MMSE)

MODEL = EfficiencyModel(EfficiencyKind.EXP_APPROX, 100)
PARAMS = SystemParams(K=30, N=100, sigma2=5e-16, R=1e5, L=100, M=100, Pmax=1.0)
DISTANCE = 100.0
MEAN_H2 = (4.0 / np.pi) * (0.3 / DISTANCE ** 2) ** 2  # Rayleigh: E[h^2]


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, detail


def scenario(**overrides):
    base = dict(params=PARAMS, model=MODEL, kinds=ALL, alpha_grid=(0.1,),
                trials=500, master_seed=0, distance=DISTANCE, antennas=(1,),
                mode=SweepMode.NONCOOPERATIVE)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_criterion_1_target_sir_via_cli():
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "powergame", "gamma-star"],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    exact = float(proc.stdout.splitlines()[1].split()[1])
    db = float(proc.stdout.splitlines()[1].split()[3])
    ok = (proc.returncode == 0 and abs(exact - 6.48) <= 0.01
          and abs(db - 8.1) <= 0.05 and elapsed < 1.0)
    report(1, ok, f"gamma-star = {exact:.4f} ({db:.2f} dB), "
                  f"|delta| = {abs(exact - 6.48):.4f} <= 0.01, {elapsed:.2f}s < 1s")


def test_criterion_2_admission_peak():
    t0 = time.perf_counter()
    grid = tuple(round(0.01 * i, 10) for i in range(1, 116))
    rows = run_admission_curve(scenario(kinds=(MMSE,), alpha_grid=grid))
    elapsed = time.perf_counter() - t0
    peak = max(rows, key=lambda r: r.mean_total_utility_per_dof)
    crossing = next(r for r in rows if r.Gamma <= 0.5)
    ok = (abs(peak.alpha - 0.577) <= 0.005 and peak.alpha == crossing.alpha
          and elapsed < 30.0)
    report(2, ok, f"total-utility peak at alpha = {peak.alpha} "
                  f"(target 0.577 +- 0.005), Gamma = 1/2 crossing at "
                  f"{crossing.alpha}, {elapsed:.1f}s < 30s")


def test_criterion_3_sir_balancing_and_nash():
    t0 = time.perf_counter()
    gstar = solve_gamma_star(MODEL)
    worst_err, all_nash, discarded = 0.0, True, 0
    for kind in ALL:
        alpha = feasibility_bound(kind, gstar) / 2.0
        K = round(alpha * 100)
        for t in range(100):
            for attempt in range(50):
                rng = trial_rng(0, 100, ALL.index(kind), t, attempt)
                S = generate_spreading(100, K, rng)
                d = np.full(K, DISTANCE)
                H = generate_gains(d, 1, rng)
                realization = ChannelRealization(S=S, H=H, distances=d)
                result = solve_equilibrium(realization, kind, PARAMS, MODEL,
                                           gamma_star=gstar, max_iter=5000)
                if result.converged and not result.clamped_users:
                    break
                discarded += 1
            else:
                report(3, False, f"no feasible instance for {kind.value}")
            worst_err = max(worst_err, float(
                np.max(np.abs(result.sirs - gstar) / gstar)))
            all_nash = all_nash and verify_nash(result, realization, kind,
                                                PARAMS, MODEL)
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 1e-6 and all_nash and elapsed < 120.0
    report(3, ok, f"300 feasible equilibria ({discarded} infeasible draws "
                  f"redrawn): max relative SIR error = {worst_err:.2e} <= 1e-6, "
                  f"all Nash-verified = {all_nash}, {elapsed:.1f}s < 120s")


def test_criterion_4_receiver_ordering_and_closed_form():
    gstar = solve_gamma_star(MODEL)
    grid = tuple(round(0.05 * i, 10) for i in range(1, 24))
    rows = run_load_sweep(scenario(alpha_grid=grid))
    by_cell = {(r.alpha, r.kind): r for r in rows}
    ordering_ok = True
    for alpha in sorted({r.alpha for r in rows}):
        mmse = by_cell[(alpha, MMSE)].mean_utility
        if (alpha, DE) in by_cell:
            ordering_ok &= mmse >= by_cell[(alpha, DE)].mean_utility
        if (alpha, MF) in by_cell:
            ordering_ok &= mmse >= by_cell[(alpha, MF)].mean_utility
            ordering_ok &= (by_cell[(alpha, DE)].mean_utility
                            >= by_cell[(alpha, MF)].mean_utility)
    worst_z = 0.0
    for row in rows:
        expected = (PARAMS.L * PARAMS.R * eff_value(MODEL, gstar) * MEAN_H2
                    / (PARAMS.M * gstar * PARAMS.sigma2)
                    * gamma_factor(row.kind, row.alpha, gstar))
        se = row.std_utility / np.sqrt(row.trials_used)
        worst_z = max(worst_z, abs(row.mean_utility - expected) / se)
    ok = ordering_ok and worst_z <= 3.0
    report(4, ok, f"MMSE >= DE >= MF at all {len({r.alpha for r in rows})} "
                  f"loads = {ordering_ok}; worst closed-form deviation = "
                  f"{worst_z:.2f} standard errors <= 3")


def test_criterion_5_pareto_relations():
    t0 = time.perf_counter()
    gstar = solve_gamma_star(MODEL)
    de_gap = max(abs(solve_pareto_target(DE, a, MODEL) - gstar)
                 for a in (0.1, 0.5, 0.9, 0.99))
    dominance_ok, worst_gap = True, 0.0
    for kind in (MF, MMSE):
        bound = feasibility_bound(kind, gstar)
        for alpha in np.linspace(0.01, bound * 0.995, 25):
            g_opt = solve_pareto_target(kind, alpha, MODEL)
            coop = (utility_coef(PARAMS, MODEL, g_opt)
                    * gamma_factor(kind, alpha, g_opt) * MEAN_H2)
            selfish = (utility_coef(PARAMS, MODEL, gstar)
                       * gamma_factor(kind, alpha, gstar) * MEAN_H2)
            dominance_ok &= coop >= selfish * (1 - 1e-12)
    for alpha in np.linspace(0.05, 1.0, 20):
        g_opt = solve_pareto_target(MMSE, alpha, MODEL)
        worst_gap = max(worst_gap, abs(g_opt - gstar) / gstar)
    elapsed = time.perf_counter() - t0
    ok = de_gap <= 1e-9 and dominance_ok and worst_gap < 0.15 and elapsed < 60.0
    report(5, ok, f"DE cooperative target gap = {de_gap:.1e} <= 1e-9; "
                  f"Pareto dominance holds = {dominance_ok}; max MMSE target "
                  f"gap for alpha <= 1 is {worst_gap:.1%} < 15%; "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_6_finite_to_asymptotic():
    t0 = time.perf_counter()
    errs = {}
    for kind, alpha in ((MMSE, 0.5), (DE, 0.3), (MF, 0.07)):
        rows = run_finite_vs_asymptotic(scenario(
            kinds=(kind,), alpha_grid=(alpha,), trials=200, n_grid=(200,)))
        errs[kind.value] = rows[0].mean_rel_power_error
    elapsed = time.perf_counter() - t0
    ok = all(e < 0.05 for e in errs.values()) and elapsed < 300.0
    report(6, ok, "mean relative power error at N=200 over 200 trials: "
                  + ", ".join(f"{k} = {e:.3%}" for k, e in errs.items())
                  + f" (all < 5%), {elapsed:.1f}s < 300s")


def test_criterion_7_multiantenna_gains():
    t0 = time.perf_counter()
    gstar = solve_gamma_star(MODEL)
    # m antennas: the single-antenna Gamma at load alpha/m (MF, MMSE) or
    # alpha (DE)
    factor_gap = 0.0
    for kind in ALL:
        for alpha in (0.02, 0.05, 0.1):
            for m in (2, 4, 8):
                load = alpha if kind is DE else alpha / m
                factor_gap = max(factor_gap, abs(
                    gamma_factor(kind, alpha, gstar, m)
                    - gamma_factor(kind, load, gstar)))
    de_m_free = all(gamma_factor(DE, 0.4, gstar, m)
                    == gamma_factor(DE, 0.4, gstar) for m in (2, 4, 8))
    rows = run_load_sweep(scenario(antennas=(1, 2), alpha_grid=(0.1,)))
    u = {(r.kind, r.m): r.mean_utility for r in rows}
    de_ratio = u[(DE, 2)] / u[(DE, 1)]
    mf_ratio = u[(MF, 2)] / u[(MF, 1)]
    mmse_ratio = u[(MMSE, 2)] / u[(MMSE, 1)]
    elapsed = time.perf_counter() - t0
    ok = (factor_gap <= 1e-12 and de_m_free and abs(de_ratio - 2.0) <= 0.1
          and mf_ratio > 2.0 and mmse_ratio > 2.0 and elapsed < 60.0)
    report(7, ok, f"gap to single-antenna Gamma at the effective load = "
                  f"{factor_gap:.1e} <= 1e-12; "
                  f"DE factor antenna-free = {de_m_free}; utility ratios "
                  f"m=2/m=1: DE = {de_ratio:.3f} (2.0 +- 0.1), "
                  f"MF = {mf_ratio:.2f} > 2, MMSE = {mmse_ratio:.2f} > 2; "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_8_deterministic_csv(tmp_path):
    identical = True
    for name, args in {
        "sweep": ["sweep", "--trials", "40", "--alpha-range", "0.1:0.5:0.1",
                  "--seed", "9"],
        "admission": ["admission", "--trials", "40", "--seed", "9"],
        "equilibrium": ["equilibrium", "--set", "K=10", "--seed", "9"],
    }.items():
        outs = []
        for run in (1, 2):
            path = tmp_path / f"{name}{run}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "powergame", *args, "--output",
                 str(path)], capture_output=True)
            assert proc.returncode == 0
            outs.append(path.read_bytes())
        identical &= outs[0] == outs[1]
    report(8, identical, f"repeated runs byte-identical = {identical} "
                         "(sweep, admission, equilibrium)")
