import math

import numpy as np
import pytest

from powergame.asymptotic import feasibility_bound, gamma_factor
from powergame.efficiency import EfficiencyKind, EfficiencyModel, eff_value
from powergame import experiments
from powergame.exceptions import ConfigError, InfeasibleLoadError
from powergame.experiments import (ScenarioConfig, SweepMode,
                                   run_admission_curve, run_efficiency_curve,
                                   run_equilibria, run_finite_vs_asymptotic,
                                   run_load_sweep, run_target_sir_comparison,
                                   run_utility_power_curve, trial_rng)
from powergame.system import (COND_LIMIT, ReceiverKind, generate_gains,
                              utility)

from conftest import make_params

MF = ReceiverKind.MATCHED_FILTER
DE = ReceiverKind.DECORRELATOR
MMSE = ReceiverKind.MMSE
ALL = (MF, DE, MMSE)


def config(**overrides):
    base = dict(params=make_params(), model=EfficiencyModel(EfficiencyKind.EXP_APPROX, 100),
                kinds=ALL, alpha_grid=tuple(round(0.1 * i, 10) for i in range(1, 12)),
                trials=200, master_seed=0, distance=100.0, antennas=(1,),
                mode=SweepMode.NONCOOPERATIVE)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestTrialRng:
    def test_pure_function_of_seed_and_trial(self):
        a = trial_rng(7, 0, 3).random(4)
        b = trial_rng(7, 0, 3).random(4)
        c = trial_rng(7, 0, 4).random(4)
        d = trial_rng(8, 0, 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_streams_disjoint(self):
        a = trial_rng(7, 0, 3).random(4)
        b = trial_rng(7, 1, 3).random(4)
        assert not np.array_equal(a, b)


BLOCK = experiments._BLOCK
TRIALS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 255, 256, 257]


def _sweep_oracle(seed: int, trials: int, m: int):
    # antenna l's column: the gains generate_gains draws for `trials` users
    # at config()'s distance from trial_rng(seed, sweep stream, l)
    return np.column_stack([
        generate_gains([100.0] * trials, 1,
                       trial_rng(seed, experiments._STREAM_SWEEP, l))[0]
        for l in range(m)]) ** 2


def _admission_oracle(cfg):
    # whole-run (trials, N) squared gains: uniforms from stream index 1,
    # gains for the annulus distances from stream index 0
    shape = (cfg.trials, cfg.params.N)
    u = trial_rng(cfg.master_seed, experiments._STREAM_ADMISSION, 1).random(shape)
    d = experiments._annulus_distances(u, cfg.d_min, cfg.d_max)
    h = generate_gains(d.ravel(), 1,
                       trial_rng(cfg.master_seed, experiments._STREAM_ADMISSION, 0))
    return (h ** 2).reshape(shape)


class TestBatchedDraws:
    """The Monte Carlo tables' draws against whole-array oracles.

    Trial t is row t of each stream, so the draws of T trials are the first
    T rows of any longer run, whatever the block size. Equality is exact:
    a unit Rayleigh draw times the scale is numpy's own scale * sqrt(2 E),
    and blocked draws from a Generator equal one whole-array draw.
    """

    @pytest.mark.parametrize("m_max", [1, 8])
    @pytest.mark.parametrize("trials", TRIALS)
    def test_sweep_gains_equal_per_trial_draws(self, m_max, trials):
        cfg = config(trials=trials, master_seed=11, antennas=(m_max,))
        got = experiments._sweep_gains(cfg)
        assert got.shape == (trials, m_max)
        assert np.array_equal(got, _sweep_oracle(11, trials, m_max))

    @pytest.mark.parametrize("trials", TRIALS)
    def test_admission_pooled_gain_equals_per_trial_draws(self, trials):
        cfg = config(trials=trials, master_seed=5)
        squares = _admission_oracle(cfg)
        assert experiments._pooled_mean_h2(cfg) == \
            math.fsum(squares.ravel().tolist()) / squares.size

    @pytest.mark.parametrize("seed", [2 ** 32, 2 ** 130])
    @pytest.mark.parametrize("trials", [255, 256, 257])
    def test_large_seeds_equal_per_trial_draws(self, seed, trials):
        cfg = config(trials=trials, master_seed=seed, antennas=(2,))
        assert np.array_equal(experiments._sweep_gains(cfg),
                              _sweep_oracle(seed, trials, 2))

    @pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK + 1, 257])
    def test_first_trials_are_a_prefix(self, trials):
        short = config(trials=trials, master_seed=3, antennas=(1, 4))
        long = config(trials=2 * trials, master_seed=3, antennas=(1, 4))
        assert np.array_equal(experiments._sweep_gains(short),
                              experiments._sweep_gains(long)[:trials])
        # the first T rows of the 2T admission draws are the T-trial pool
        head = _admission_oracle(long)[:trials]
        assert experiments._pooled_mean_h2(short) == \
            math.fsum(head.ravel().tolist()) / head.size

    def test_sweep_and_antennas_share_the_single_antenna_rows(self):
        # the m = 1 column ignores the largest antenna count, so sweep
        # (antennas=(1,)) and the antennas table print the same m = 1 rows
        one = experiments._sweep_gains(config(trials=BLOCK + 1, antennas=(1,)))
        many = experiments._sweep_gains(config(trials=BLOCK + 1,
                                               antennas=(1, 8)))
        assert np.array_equal(one[:, 0], many[:, 0])
        grid = dict(trials=60, alpha_grid=(0.1, 0.3, 0.7))
        sweep = run_load_sweep(config(**grid))
        antennas = run_load_sweep(config(antennas=(1, 2, 4, 8), **grid))
        assert [r for r in antennas if r.m == 1] == sweep


def _no_draw(*args, **kwargs):
    raise AssertionError("a trial was drawn")


class TestFeasibilityGate:
    MF_ONLY = "alpha: no feasible load point; MF m=1: alpha < 0.15445"

    @pytest.mark.parametrize("run,overrides,message", [
        (run_load_sweep, dict(kinds=(MF,), alpha_grid=(0.2,)), MF_ONLY),
        # every tabulated (receiver, m) cell is named, in loop order
        (run_load_sweep, dict(kinds=(MF, DE), antennas=(1, 2),
                              alpha_grid=(1.5,)),
         "alpha: no feasible load point; MF m=1: alpha < 0.15445; MF m=2: "
         "alpha < 0.308899; DE m=1: alpha < 1; DE m=2: alpha < 1"),
        (run_load_sweep, dict(kinds=(MF,), alpha_grid=(0.2,),
                              mode=SweepMode.PARETO), MF_ONLY),
        (run_target_sir_comparison, dict(kinds=(MF,), alpha_grid=(0.2,)),
         MF_ONLY),
        (run_admission_curve, dict(kinds=(MF,), alpha_grid=(0.5, 1.0)),
         MF_ONLY),
        # 0.1544 is below the bound, but K/N is 4/25 = 8/50 = 0.16
        (run_finite_vs_asymptotic, dict(kinds=(MF,), alpha_grid=(0.1544,),
                                        n_grid=(25, 50)), MF_ONLY),
    ], ids=["sweep", "sweep-every-cell", "pareto", "sir-compare", "admission",
            "finite"])
    def test_all_infeasible_raises_before_any_draw(self, run, overrides,
                                                   message, monkeypatch):
        monkeypatch.setattr(experiments, "trial_rng", _no_draw)
        with pytest.raises(InfeasibleLoadError) as err:
            run(config(**overrides))
        assert err.value.key == "alpha"
        assert str(err.value) == message

    def test_cells_keep_loop_order_and_gamma(self, gamma_star):
        cells = experiments._feasible_cells((MF, MMSE), (1, 2), (0.1, 0.2),
                                            gamma_star)
        assert [(k, m, a) for k, m, a, _ in cells] == [
            (MF, 1, 0.1), (MF, 2, 0.1), (MF, 2, 0.2),
            (MMSE, 1, 0.1), (MMSE, 1, 0.2), (MMSE, 2, 0.1), (MMSE, 2, 0.2)]
        assert cells[0][3] == gamma_factor(MF, 0.1, gamma_star)


class TestTableShape:
    """Each driver rejects a config its table cannot hold, before any draw,
    with the config key to change."""

    @pytest.mark.parametrize("run,overrides,key,message", [
        # one realization has one antenna count; a list must not be cut to
        # its first entry
        (run_equilibria, dict(antennas=(1, 2)), "antennas",
         "this subcommand solves one antenna count, got 1,2"),
        (run_utility_power_curve, dict(antennas=(1, 2)), "antennas",
         "this subcommand solves one antenna count, got 1,2"),
        (run_load_sweep, dict(antennas=(2, 4), mode=SweepMode.PARETO),
         "antennas", "mode=pareto tabulates m=1 only, got antennas=2,4"),
        # the table has no alpha column
        (run_finite_vs_asymptotic, dict(alpha_grid=(0.1, 0.5)), "alpha_range",
         "this subcommand tabulates one load, got 2 loads; set alpha"),
        # a table with no column for a key takes one value of it
        (run_admission_curve, dict(), "receiver",
         "this subcommand solves one receiver, got MF,DE,MMSE"),
        (run_admission_curve, dict(kinds=(MMSE,), antennas=(1, 2)),
         "antennas", "this subcommand solves one antenna count, got 1,2"),
        (run_utility_power_curve, dict(kinds=(MF, MMSE)), "receiver",
         "this subcommand solves one receiver, got MF,MMSE"),
        (run_load_sweep, dict(antennas=(1, 2), mode=SweepMode.PARETO),
         "antennas", "mode=pareto tabulates m=1 only, got antennas=1,2"),
        # single-antenna tables take antennas=(1,) and nothing else
        (run_target_sir_comparison, dict(antennas=(2,)), "antennas",
         "this subcommand tabulates m=1 only, got antennas=2"),
        (run_finite_vs_asymptotic, dict(alpha_grid=(0.1,), antennas=(2,)),
         "antennas", "this subcommand tabulates m=1 only, got antennas=2"),
    ], ids=["equilibria", "curve", "pareto", "finite", "admission-receiver",
            "admission-antennas", "curve-receiver", "pareto-list",
            "sir-compare-antennas", "finite-antennas"])
    def test_config_error_names_key(self, run, overrides, key, message,
                                    monkeypatch):
        monkeypatch.setattr(experiments, "trial_rng", _no_draw)
        with pytest.raises(ConfigError) as err:
            run(config(**overrides))
        assert err.value.key == key
        assert str(err.value) == f"{key}: {message}"

    def test_single_realization_uses_the_antenna_count(self):
        # the realization is drawn with config.antennas, not SystemParams.m
        one = config(kinds=(MMSE,), params=make_params(K=5), trials=1)
        two = config(kinds=(MMSE,), params=make_params(K=5), trials=1,
                     antennas=(2,))
        rows_one, _ = run_equilibria(one)
        rows_two, converged = run_equilibria(two)
        assert converged and len(rows_two) == 5
        assert all(b.power < a.power for a, b in zip(rows_one, rows_two))

    def test_equilibrium_utility_is_each_rows_utility(self):
        # the utility column is the bits per joule of the row's own power
        # and SIR, for every receiver
        cfg = config(params=make_params(K=5), trials=1)
        rows, converged = run_equilibria(cfg)
        assert converged and len(rows) == 15
        assert all(r.utility == utility(r.power, r.sir, cfg.params, cfg.model)
                   for r in rows)


class TestLoadSweep:
    def test_deterministic(self):
        assert run_load_sweep(config()) == run_load_sweep(config())

    def test_seed_changes_results(self):
        a = run_load_sweep(config())
        b = run_load_sweep(config(master_seed=1))
        assert a != b

    def test_receiver_ordering_every_cell(self, gamma_star):
        rows = run_load_sweep(config())
        by_cell = {(r.alpha, r.kind): r.mean_utility for r in rows}
        for alpha in {r.alpha for r in rows}:
            if (alpha, DE) in by_cell:
                assert by_cell[(alpha, MMSE)] >= by_cell[(alpha, DE)]
            if (alpha, MF) in by_cell:
                assert by_cell[(alpha, MMSE)] >= by_cell[(alpha, MF)]
                assert by_cell[(alpha, DE)] >= by_cell[(alpha, MF)]

    def test_infeasible_cells_absent(self, gamma_star):
        rows = run_load_sweep(config())
        mf_bound = feasibility_bound(MF, gamma_star)
        assert all(r.alpha < mf_bound for r in rows if r.kind is MF)
        assert {r.alpha for r in rows if r.kind is MMSE} > \
            {r.alpha for r in rows if r.kind is MF}
        assert all(r.alpha < 1.0 for r in rows if r.kind is DE)

    def test_mean_matches_closed_form_recomputation(self, model, gamma_star):
        cfg = config(trials=50, alpha_grid=(0.2,), kinds=(MMSE,))
        row = run_load_sweep(cfg)[0]
        # recompute from the same stream: trial t is its row t
        h2 = _sweep_oracle(0, 50, 1)[:, 0]
        p = cfg.params
        factor = gamma_factor(MMSE, 0.2, gamma_star)
        coef = (p.L * p.R * eff_value(model, gamma_star)
                / (p.M * gamma_star * p.sigma2) * factor)
        # utility coef * h^2 and power gamma* sigma2 / (Gamma h^2), per trial
        assert row.mean_utility == pytest.approx(coef * np.mean(h2), rel=1e-12)
        assert row.std_utility == pytest.approx(coef * np.std(h2, ddof=1),
                                                rel=1e-12)
        assert row.mean_power == pytest.approx(
            np.mean(gamma_star * p.sigma2 / (factor * h2)), rel=1e-12)
        assert row.trials_used == 50 and row.trials_discarded == 0

    def test_pareto_mode_both_emits_pairs(self):
        rows = run_load_sweep(config(mode=SweepMode.BOTH, trials=60,
                                     alpha_grid=(0.1, 0.5)))
        modes = {(r.alpha, r.kind): set() for r in rows}
        for r in rows:
            modes[(r.alpha, r.kind)].add(r.mode)
        for cell, seen in modes.items():
            assert seen == {SweepMode.NONCOOPERATIVE, SweepMode.PARETO}

    def test_decorrelator_pareto_equals_noncooperative(self):
        rows = run_load_sweep(config(mode=SweepMode.BOTH, trials=60,
                                     kinds=(DE,), alpha_grid=(0.3, 0.8)))
        nc = {r.alpha: r for r in rows if r.mode is SweepMode.NONCOOPERATIVE}
        pa = {r.alpha: r for r in rows if r.mode is SweepMode.PARETO}
        for alpha in nc:
            assert nc[alpha].mean_utility == pa[alpha].mean_utility
            assert nc[alpha].mean_power == pa[alpha].mean_power
            assert nc[alpha].target_sir == pa[alpha].target_sir

    def test_pareto_dominates_noncooperative(self):
        rows = run_load_sweep(config(mode=SweepMode.BOTH, trials=60,
                                     kinds=(MF, MMSE),
                                     alpha_grid=(0.05, 0.1, 0.5, 0.9)))
        nc = {(r.alpha, r.kind): r.mean_utility for r in rows
              if r.mode is SweepMode.NONCOOPERATIVE}
        pa = {(r.alpha, r.kind): r.mean_utility for r in rows
              if r.mode is SweepMode.PARETO}
        for cell in nc:
            assert pa[cell] >= nc[cell] * (1 - 1e-12)

    def test_pareto_restricted_to_single_antenna(self):
        rows = run_load_sweep(config(mode=SweepMode.BOTH, trials=30,
                                     antennas=(1, 2), alpha_grid=(0.1,)))
        assert all(r.m == 1 for r in rows if r.mode is SweepMode.PARETO)
        assert any(r.m == 2 for r in rows)

    def test_pareto_without_single_antenna_rejected(self):
        with pytest.raises(ValueError, match="mode=pareto tabulates m=1 only"):
            run_load_sweep(config(mode=SweepMode.PARETO, antennas=(2,)))

    def test_antenna_ratio_decomposition(self, gamma_star):
        # power pooling alone doubles DE utility; MF and MMSE gain more
        rows = run_load_sweep(config(trials=500, antennas=(1, 2),
                                     alpha_grid=(0.1,)))
        u = {(r.kind, r.m): r.mean_utility for r in rows}
        de_ratio = u[(DE, 2)] / u[(DE, 1)]
        assert de_ratio == pytest.approx(2.0, abs=0.1)
        assert u[(MF, 2)] / u[(MF, 1)] > 2.0
        assert u[(MMSE, 2)] / u[(MMSE, 1)] > 2.0

    def test_rows_sorted(self):
        rows = run_load_sweep(config(trials=20, antennas=(1, 2)))
        keys = [(r.alpha, r.kind.value, r.m, r.mode.value) for r in rows]
        assert keys == sorted(keys)


class TestTargetSirComparison:
    def test_decorrelator_column_equal(self):
        rows = run_target_sir_comparison(config(kinds=(DE,)))
        assert all(r.gamma_pareto == r.gamma_noncoop for r in rows)

    def test_mmse_gap_small_and_shrinking(self):
        grid = tuple(round(0.1 * i, 10) for i in range(1, 11))  # up to 1.0
        rows = run_target_sir_comparison(config(kinds=(MMSE,), alpha_grid=grid))
        gaps = [(r.alpha, abs(r.gamma_pareto - r.gamma_noncoop) / r.gamma_noncoop)
                for r in rows]
        assert all(g < 0.15 for _, g in gaps)
        assert gaps[0][1] < gaps[-1][1]

    def test_matched_filter_limit_at_zero_load(self, gamma_star):
        rows = run_target_sir_comparison(
            config(kinds=(MF,), alpha_grid=(1e-6, 0.05, 0.1)))
        assert rows[0].gamma_pareto == pytest.approx(gamma_star, rel=1e-4)
        assert rows[-1].gamma_pareto < gamma_star


@pytest.fixture(scope="module")
def admission_rows():
    grid = tuple(round(0.01 * i, 10) for i in range(1, 116))
    return run_admission_curve(config(kinds=(MMSE,), alpha_grid=grid,
                                      trials=500))


class TestAdmissionCurve:
    def test_peak_at_gamma_half_crossing(self, admission_rows):
        peak = max(admission_rows, key=lambda r: r.mean_total_utility_per_dof)
        crossing = next(r for r in admission_rows if r.Gamma <= 0.5)
        assert peak.alpha == crossing.alpha

    def test_peak_near_analytic_optimum(self, admission_rows, gamma_star):
        peak = max(admission_rows, key=lambda r: r.mean_total_utility_per_dof)
        assert abs(peak.alpha - (0.5 + 1 / (2 * gamma_star))) <= 0.005

    def test_total_utility_vanishes_at_light_load(self, admission_rows):
        peak = max(r.mean_total_utility_per_dof for r in admission_rows)
        assert admission_rows[0].mean_total_utility_per_dof < 0.05 * peak

    def test_gamma_column_matches_closed_form(self, admission_rows, gamma_star):
        for r in admission_rows[:20]:
            assert r.Gamma == pytest.approx(
                gamma_factor(MMSE, r.alpha, gamma_star), rel=1e-12)

    def test_deterministic(self):
        cfg = config(kinds=(MMSE,), alpha_grid=(0.2, 0.5), trials=40)
        assert run_admission_curve(cfg) == run_admission_curve(cfg)

    def test_antennas_pool_their_gains(self, gamma_star):
        # m antennas sum m squared gains, so the total utility gains the
        # factor m on top of the load penalty ratio Gamma_m / Gamma_1
        alpha = 0.5
        one, = run_admission_curve(config(kinds=(MMSE,), alpha_grid=(alpha,),
                                          trials=40))
        two, = run_admission_curve(config(kinds=(MMSE,), alpha_grid=(alpha,),
                                          trials=40, antennas=(2,)))
        ratio = (2 * gamma_factor(MMSE, alpha, gamma_star, 2)
                 / gamma_factor(MMSE, alpha, gamma_star))
        assert two.mean_total_utility_per_dof / one.mean_total_utility_per_dof \
            == pytest.approx(ratio, rel=1e-12)
        assert two.Gamma == gamma_factor(MMSE, alpha, gamma_star, 2)


class TestUtilityPowerCurveRun:
    def test_peak_and_shape(self, gamma_star):
        cfg = config(kinds=(MMSE,), params=make_params(K=20), trials=1)
        rows, converged = run_utility_power_curve(cfg)
        assert converged
        values = [r.utility for r in rows]
        i = int(np.argmax(values))
        assert 0 < i < len(rows) - 1
        # the grid is centered on the equilibrium power, where SIR = target
        assert rows[i].power == pytest.approx(rows[len(rows) // 2].power, rel=1e-9)
        diffs = np.sign(np.diff(values))
        assert np.sum((diffs[:-1] > 0) & (diffs[1:] < 0)) == 1

    def test_grid_stops_at_pmax(self):
        cfg = config(kinds=(MMSE,), params=make_params(K=20), trials=1)
        rows, _ = run_utility_power_curve(cfg)
        assert len(rows) == 65
        centre = rows[32].power
        # on this draw every user's equilibrium power is below 13x user 0's,
        # so a cap there clamps no one and cuts the grid, which runs to 16x
        # in steps of 2**(1/8), after its point 2**(29/8) = 12.3x
        cap = 13 * centre
        capped = config(kinds=(MMSE,), params=make_params(K=20, Pmax=cap),
                        trials=1)
        rows, converged = run_utility_power_curve(capped)
        powers = [r.power for r in rows]
        assert converged
        assert powers[32] == pytest.approx(centre, rel=1e-6)
        assert len(rows) == 62 and max(powers) <= cap
        assert all(a < b for a, b in zip(powers, powers[1:]))


class TestEfficiencyCurve:
    def test_tabulates_model(self, model):
        rows = run_efficiency_curve(model, np.linspace(0.0, 20.0, 201))
        assert rows[0].gamma == 0.0 and rows[0].f == 0.0
        assert rows[-1].f > 0.999
        values = [r.f for r in rows]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_sigmoid_inflection(self, model):
        rows = run_efficiency_curve(model, np.linspace(0.0, 20.0, 801))
        second = np.diff([r.f for r in rows], 2)
        signs = np.sign(second[np.abs(second) > 1e-12])
        flips = np.sum(signs[:-1] != signs[1:])
        assert flips == 1  # convex then concave

    def test_rejects_decreasing_grid(self, model):
        with pytest.raises(ValueError):
            run_efficiency_curve(model, [0.0, 1.0, 0.5])


class TestFiniteVsAsymptotic:
    def test_error_shrinks_with_system_size(self):
        cfg = config(kinds=(MMSE,), alpha_grid=(0.5,), trials=60,
                     n_grid=(25, 100))
        rows = run_finite_vs_asymptotic(cfg)
        errs = {r.N: r.mean_rel_power_error for r in rows}
        assert errs[100] < errs[25]

    def test_decorrelator_conditioning_effect(self):
        cfg = config(kinds=(DE,), alpha_grid=(0.3,), trials=60, n_grid=(100,))
        rows = run_finite_vs_asymptotic(cfg)
        assert rows[0].mean_rel_power_error < 0.10

    def test_singular_spreading_is_redrawn(self):
        # 3 users on 4 chips: about one draw in three has a singular S'S;
        # every other draw is physical here, so those are all the redraws
        cfg = config(kinds=(DE,), alpha_grid=(0.75,), trials=20, n_grid=(4,))
        singular = 0
        for t in range(cfg.trials):
            for attempt in range(100):
                S = experiments._draw_realization(
                    cfg, 4, 3, 1, experiments._STREAM_FINITE, 0, 4, t,
                    attempt).S
                if np.linalg.cond(S.T @ S) <= COND_LIMIT:
                    break
                singular += 1
        assert singular > 0
        assert run_finite_vs_asymptotic(cfg)[0].redrawn == singular

    def test_deterministic(self):
        cfg = config(kinds=(DE,), alpha_grid=(0.3,), trials=10, n_grid=(32,))
        assert run_finite_vs_asymptotic(cfg) == run_finite_vs_asymptotic(cfg)

    @pytest.mark.parametrize("grid", [(), (0.1, 0.5)])
    def test_requires_exactly_one_load(self, grid):
        with pytest.raises(ValueError, match=f"one load, got {len(grid)}"):
            run_finite_vs_asymptotic(config(alpha_grid=grid, trials=2))


class TestAggregation:
    def test_mean_is_order_independent(self):
        from powergame.experiments import _mean
        rng = np.random.default_rng(0)
        values = (rng.random(1000) * 1e10).tolist()
        shuffled = values.copy()
        rng.shuffle(shuffled)
        assert _mean(values) == _mean(shuffled)

    def test_std_is_order_independent(self):
        from powergame.experiments import _mean, _std
        rng = np.random.default_rng(1)
        values = (rng.random(1000) * 1e10).tolist()
        shuffled = values.copy()
        rng.shuffle(shuffled)
        m = _mean(values)
        assert _std(values, m) == _std(shuffled, m)


class TestConfigValidation:
    def test_alpha_grid_must_increase(self):
        with pytest.raises(ValueError):
            config(alpha_grid=(0.2, 0.1))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            config(trials=0)

    def test_annulus_radii_ordered(self):
        with pytest.raises(ValueError):
            config(d_min=50.0, d_max=10.0)

    @pytest.mark.parametrize("overrides", [
        dict(kinds=()), dict(antennas=()), dict(n_grid=()), dict(n_grid=(0,)),
        dict(n_grid=(25, -1)),
    ], ids=["kinds", "antennas", "n_grid", "n_grid-zero", "n_grid-negative"])
    def test_empty_or_nonpositive_lists_rejected(self, overrides):
        with pytest.raises(ValueError, match="must not be empty|positive"):
            config(**overrides)


class TestAntennaScaling:
    def test_mmse_utility_and_capacity_grow_with_antennas(self):
        grid = tuple(round(0.25 * i, 10) for i in range(1, 33))  # up to 8.0
        rows = run_load_sweep(config(kinds=(MMSE,), trials=100,
                                     antennas=(1, 2, 4, 8), alpha_grid=grid))
        by_m = {}
        for r in rows:
            by_m.setdefault(r.m, {})[r.alpha] = r.mean_utility
        for m1, m2 in ((1, 2), (2, 4), (4, 8)):
            shared = sorted(set(by_m[m1]) & set(by_m[m2]))
            assert shared
            assert all(by_m[m2][a] > by_m[m1][a] for a in shared)
            # the feasible load region also widens with every doubling
            assert max(by_m[m2]) > max(by_m[m1])

    def test_decorrelator_capacity_fixed(self):
        rows = run_load_sweep(config(kinds=(DE,), trials=20, antennas=(1, 4),
                                     alpha_grid=(0.5, 0.99, 1.0, 1.5)))
        assert {r.alpha for r in rows} == {0.5, 0.99}  # alpha < 1 at any m
