import math

import numpy as np
import pytest

from powergame.asymptotic import (balanced_received_power, feasibility_bound,
                                  gamma_factor, mmse_pareto_gap,
                                  mmse_sir_fixed_point_large, optimal_load,
                                  solve_pareto_target, utility_coef)
from powergame.efficiency import eff_value
from powergame.exceptions import InfeasibleLoadError
from powergame.system import ReceiverKind, utility

from conftest import make_params

MF = ReceiverKind.MATCHED_FILTER
DE = ReceiverKind.DECORRELATOR
MMSE = ReceiverKind.MMSE
KINDS = [MF, DE, MMSE]
SIGMA2 = 5e-16


def closed_form_utility(kind, alpha, params, model, gamma, h2):
    """Large-system utility of a user with squared gain h2 at target gamma."""
    return utility_coef(params, model, gamma) * gamma_factor(kind, alpha, gamma) * h2


def pareto_closed_form_utility(kind, alpha, params, model, h2):
    """The same closed form at the cooperative (Pareto) target."""
    g_opt = solve_pareto_target(kind, alpha, model)
    return closed_form_utility(kind, alpha, params, model, g_opt, h2)


class TestFeasibilityBound:
    def test_reference_values(self):
        assert feasibility_bound(MF, 6.48) == pytest.approx(1 / 6.48, rel=1e-12)
        assert feasibility_bound(MF, 6.48) == pytest.approx(0.1543, abs=1e-4)
        assert feasibility_bound(DE, 0.37) == 1.0
        assert feasibility_bound(DE, 42.0) == 1.0
        assert feasibility_bound(MMSE, 6.48) == pytest.approx(1.1543, abs=1e-4)

    def test_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            feasibility_bound(MF, 0.0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_requires_at_least_one_antenna(self, gamma_star, m):
        for kind in KINDS:
            with pytest.raises(ValueError):
                feasibility_bound(kind, gamma_star, m)
            with pytest.raises(ValueError):
                gamma_factor(kind, 0.01, gamma_star, m)
            with pytest.raises(ValueError):
                optimal_load(kind, gamma_star, m)


class TestEquilibriumPower:
    # per-user transmit power q / h^2 at the balanced received power q
    def test_zero_load_single_user_limit(self, gamma_star):
        for kind in KINDS:
            p = balanced_received_power(kind, 0.0, gamma_star, SIGMA2) / 1e-9
            assert p == pytest.approx(gamma_star * SIGMA2 / 1e-9, rel=1e-12)

    def test_decorrelator_half_load_doubles_power(self, gamma_star):
        base = gamma_star * SIGMA2 / 1e-9
        assert balanced_received_power(DE, 0.5, gamma_star, SIGMA2) / 1e-9 == \
            pytest.approx(2 * base, rel=1e-12)

    def test_matched_filter_infeasible_load(self):
        with pytest.raises(InfeasibleLoadError) as err:
            balanced_received_power(MF, 0.2, 6.48, SIGMA2)
        assert "0.154" in str(err.value)


class TestGammaFactor:
    def test_unloaded_system_has_no_penalty(self, gamma_star):
        for kind in KINDS:
            assert gamma_factor(kind, 0.0, gamma_star) == 1.0

    def test_reference_values(self):
        assert gamma_factor(DE, 0.5, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert gamma_factor(MMSE, 1.0, 6.48) == pytest.approx(1 - 6.48 / 7.48, rel=1e-12)
        assert gamma_factor(MMSE, 1.0, 6.48) == pytest.approx(0.1337, abs=1e-4)

    def test_ordering_depends_on_target(self):
        # the decorrelator beats the matched filter iff the target exceeds 1
        for alpha in (0.1, 0.5, 0.9):
            assert gamma_factor(DE, alpha, 2.0) > gamma_factor(MF, alpha, 2.0) \
                if alpha < 0.5 else True
        assert gamma_factor(DE, 0.4, 2.0) > gamma_factor(MF, 0.4, 2.0)
        assert gamma_factor(DE, 0.4, 0.5) < gamma_factor(MF, 0.4, 0.5)

    def test_infeasible_raises(self, gamma_star):
        with pytest.raises(InfeasibleLoadError):
            gamma_factor(DE, 1.0, gamma_star)


class TestUtilityLarge:
    def test_mmse_dominates_everywhere(self, params, model, gamma_star):
        for alpha in np.arange(0.02, 1.0, 0.05):
            u = {kind: closed_form_utility(kind, alpha, params, model,
                                           gamma_star, 1e-9)
                 for kind in KINDS if alpha < feasibility_bound(kind, gamma_star)}
            assert u[MMSE] >= u[DE]
            if MF in u:
                assert u[MMSE] >= u[MF]
                assert u[DE] >= u[MF]  # target SIR is above 0 dB here

    def test_matches_power_based_evaluation(self, params, model, gamma_star):
        # the closed form equals system.utility at the balanced power q / h^2
        for kind, alpha in ((MF, 0.1), (DE, 0.6), (MMSE, 1.0)):
            p = balanced_received_power(kind, alpha, gamma_star, SIGMA2) / 1e-9
            direct = closed_form_utility(kind, alpha, params, model,
                                         gamma_star, 1e-9)
            assert direct == pytest.approx(
                utility(p, gamma_star, params, model), rel=1e-12)


class TestMmseFixedPoint:
    def test_no_interference(self):
        rec = np.array([3e-9, 0.0, 0.0])
        got = mmse_sir_fixed_point_large(rec, 0, SIGMA2, 100)
        assert got == pytest.approx(3e-9 / SIGMA2, rel=1e-9)

    def test_balanced_power_consistency(self, gamma_star):
        # K = alpha N + 1 users at the closed-form received power q: the
        # fixed point lands exactly on the balanced target
        alpha, N = 0.6, 1000
        q = balanced_received_power(MMSE, alpha, gamma_star, SIGMA2)
        rec = np.full(int(alpha * N) + 1, q)
        got = mmse_sir_fixed_point_large(rec, 0, SIGMA2, N)
        assert got == pytest.approx(gamma_star, rel=1e-9)
        # residual of the defining equation
        interference = np.sum(rec[1:] * q / (q + rec[1:] * got)) / N
        assert got * (SIGMA2 + interference) == pytest.approx(q, rel=1e-10)

    def test_increasing_in_own_power(self):
        rec = np.full(60, 2e-9)
        lo = mmse_sir_fixed_point_large(rec, 0, SIGMA2, 100)
        rec2 = rec.copy()
        rec2[0] *= 2.0
        hi = mmse_sir_fixed_point_large(rec2, 0, SIGMA2, 100)
        assert hi > lo

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            mmse_sir_fixed_point_large(np.array([1e-9, -1e-9]), 0, SIGMA2, 10)


class TestBalancedReceivedPower:
    def test_zero_load(self, gamma_star):
        for kind in KINDS:
            assert balanced_received_power(kind, 0.0, gamma_star, SIGMA2) == \
                pytest.approx(gamma_star * SIGMA2, rel=1e-12)

    def test_decorrelator_half_load(self, gamma_star):
        assert balanced_received_power(DE, 0.5, gamma_star, SIGMA2) == \
            pytest.approx(2 * gamma_star * SIGMA2, rel=1e-12)

    def test_matched_filter_beyond_bound(self):
        with pytest.raises(InfeasibleLoadError):
            balanced_received_power(MF, 1 / 6.48, 6.48, SIGMA2)


class TestParetoTarget:
    def test_decorrelator_equals_noncooperative(self, model, gamma_star):
        for alpha in (0.1, 0.5, 0.9):
            assert solve_pareto_target(DE, alpha, model) == gamma_star

    def test_matched_filter_low_load_limit(self, model, gamma_star):
        got = solve_pareto_target(MF, 1e-8, model)
        assert got == pytest.approx(gamma_star, abs=1e-4)

    def test_mmse_high_load_sits_below_target(self, model, gamma_star):
        got = solve_pareto_target(MMSE, 0.9, model)
        assert got < gamma_star
        assert (gamma_star - got) / gamma_star < 0.15

    @pytest.mark.parametrize("kind,alpha", [(MF, 0.05), (MF, 0.12),
                                            (MMSE, 0.3), (MMSE, 0.9)])
    def test_root_maximizes_ratio_oracle(self, kind, alpha, model):
        # independent check: dense-grid argmax of f(gamma)/q(gamma)
        got = solve_pareto_target(kind, alpha, model)
        upper = 0.999 / alpha if kind is MF else 30.0
        grid = np.linspace(1e-3, min(upper, 30.0), 200001)
        vals = np.array([eff_value(model, g) /
                         balanced_received_power(kind, alpha, g, 1.0)
                         for g in grid])
        assert abs(got - grid[np.argmax(vals)]) < 2 * (grid[1] - grid[0])


class TestMmseParetoGap:
    def test_no_load_no_gap(self):
        for g in (0.5, 6.48, 20.0):
            assert mmse_pareto_gap(g, 0.0) == 1.0

    def test_reference_value(self):
        got = mmse_pareto_gap(6.48, 0.5)
        expected = 1 - 3.24 / (7.48 ** 2 - 0.5 * 6.48 ** 2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.9073, abs=1e-4)

    def test_decreasing_in_load(self):
        gaps = [mmse_pareto_gap(6.48, a) for a in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_vanishing_denominator_rejected(self):
        # (1+g)^2 = alpha g^2 at g = 1/(sqrt(alpha)-1)
        alpha = 4.0
        g = 1.0 / (math.sqrt(alpha) - 1.0)
        with pytest.raises(ValueError):
            mmse_pareto_gap(g, alpha)


class TestParetoUtility:
    def test_decorrelator_identical_to_equilibrium(self, params, model, gamma_star):
        for alpha in (0.2, 0.7):
            assert pareto_closed_form_utility(DE, alpha, params, model, 1e-9) == \
                pytest.approx(closed_form_utility(DE, alpha, params, model,
                                                  gamma_star, 1e-9), rel=1e-12)

    def test_weak_dominance(self, params, model, gamma_star):
        for kind in KINDS:
            bound = feasibility_bound(kind, gamma_star)
            for alpha in np.linspace(0.01, bound * 0.99, 15):
                coop = pareto_closed_form_utility(kind, alpha, params, model,
                                                  1e-9)
                selfish = closed_form_utility(kind, alpha, params, model,
                                              gamma_star, 1e-9)
                assert coop >= selfish * (1 - 1e-12)

    def test_matched_filter_gap_grows_with_load(self, params, model, gamma_star):
        gaps = []
        for alpha in (0.02, 0.08, 0.14):
            coop = pareto_closed_form_utility(MF, alpha, params, model, 1e-9)
            selfish = closed_form_utility(MF, alpha, params, model,
                                          gamma_star, 1e-9)
            gaps.append(coop / selfish)
        assert gaps[0] < gaps[1] < gaps[2]

    def test_mmse_gain_is_small(self, params, model, gamma_star):
        coop = pareto_closed_form_utility(MMSE, 0.9, params, model, 1e-9)
        selfish = closed_form_utility(MMSE, 0.9, params, model, gamma_star,
                                      1e-9)
        assert 1.0 <= coop / selfish < 1.05


class TestOptimalLoad:
    def test_decorrelator_always_half(self, gamma_star):
        for m in (1, 2, 8):
            assert optimal_load(DE, gamma_star, m) == 0.5
        assert optimal_load(DE, 0.3) == 0.5

    def test_reference_values(self):
        assert optimal_load(MMSE, 6.48, 1) == pytest.approx(0.5772, abs=1e-4)
        assert optimal_load(MF, 6.48, 1) == pytest.approx(0.0772, abs=1e-4)

    def test_scales_with_antennas(self):
        assert optimal_load(MF, 6.48, 3) == pytest.approx(3 / (2 * 6.48), rel=1e-12)
        assert optimal_load(MMSE, 6.48, 2) == pytest.approx(2 * (0.5 + 1 / 12.96), rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_maximizes_load_gamma_product(self, kind, gamma_star):
        # grid scan of alpha * Gamma(alpha) peaks at the closed-form optimum
        bound = feasibility_bound(kind, gamma_star)
        grid = np.linspace(bound * 1e-3, bound * (1 - 1e-9), 20001)
        vals = grid * np.array([gamma_factor(kind, a, gamma_star) for a in grid])
        best = grid[np.argmax(vals)]
        assert abs(best - optimal_load(kind, gamma_star, 1)) <= grid[1] - grid[0]

    def test_mmse_admits_as_many_as_both_others(self, gamma_star):
        # equality at one antenna, strict advantage with more
        lhs = optimal_load(MMSE, gamma_star, 1)
        rhs = optimal_load(MF, gamma_star, 1) + optimal_load(DE, gamma_star, 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert optimal_load(MMSE, gamma_star, 2) > \
            optimal_load(MF, gamma_star, 2) + optimal_load(DE, gamma_star, 2)


class TestFiniteConsistencySmoke:
    def test_mean_power_ratio_near_one(self, model, gamma_star):
        # small-scale cross-check of the closed forms against finite solves;
        # the full N = 200 validation runs in the acceptance suite
        from powergame.game import solve_equilibrium

        from conftest import draw_realization
        params = make_params(K=16, N=64)
        ratios = []
        for t in range(40):
            realization = draw_realization(np.random.default_rng((30, t)), 64, 16)
            res = solve_equilibrium(realization, MMSE, params, model,
                                    gamma_star=gamma_star)
            assert res.converged
            q = balanced_received_power(MMSE, 0.25, gamma_star, SIGMA2)
            p_asym = np.array([q / (h * h) for h in realization.H[0]])
            ratios.append(float(np.mean(res.powers / p_asym)))
        assert abs(np.mean(ratios) - 1.0) < 0.05


class TestOperatingPoint:
    # the closed form at a target other than gamma*, and at an infeasible load
    def test_cooperative_target(self, params, model):
        g_opt = solve_pareto_target(MMSE, 0.9, model)
        p = balanced_received_power(MMSE, 0.9, g_opt, SIGMA2) / 1e-9
        assert closed_form_utility(MMSE, 0.9, params, model, g_opt, 1e-9) == \
            pytest.approx(utility(p, g_opt, params, model), rel=1e-12)

    def test_infeasible_load_raises(self, params, model, gamma_star):
        with pytest.raises(InfeasibleLoadError):
            closed_form_utility(DE, 1.2, params, model, gamma_star, 1e-9)
