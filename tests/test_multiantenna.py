import numpy as np
import pytest

from powergame.asymptotic import feasibility_bound, gamma_factor, utility_coef
from powergame.exceptions import InfeasibleLoadError, SingularSpreadingError
from powergame.game import solve_channel, solve_equilibrium
from powergame.multiantenna import solve_equilibrium_ma
from powergame.system import (ChannelRealization, ReceiverKind,
                              effective_gram, generate_gains,
                              generate_spreading)

from conftest import make_params

MF = ReceiverKind.MATCHED_FILTER
DE = ReceiverKind.DECORRELATOR
MMSE = ReceiverKind.MMSE
KINDS = [MF, DE, MMSE]
SIGMA2 = 5e-16


def draw_system(rng, N, K, m, distance=100.0):
    S = generate_spreading(N, K, rng)
    H = generate_gains(np.full(K, distance), m, rng)
    return S, H


class TestEffectiveSignatures:
    """effective_gram: the Gram of the m antennas' effective signatures."""

    def test_single_antenna_reduction(self):
        # m = 1 is the single-antenna game itself, bit for bit
        rng = np.random.default_rng(0)
        S, H = draw_system(rng, 32, 5, 1)
        for kind in KINDS:
            gram, h2 = effective_gram(kind, S, H)
            assert np.array_equal(gram, S.T @ S)
            assert np.array_equal(h2, H[0] ** 2)

    def test_column_norms_equal_pooled_gain(self):
        rng = np.random.default_rng(1)
        S, H = draw_system(rng, 32, 6, 3)
        for kind in (MF, MMSE):
            gram, h2 = effective_gram(kind, S, H)
            assert np.array_equal(h2, np.ones(6))
            assert np.allclose(gram.diagonal(), (H ** 2).sum(axis=0),
                               rtol=1e-12)

    def test_unit_gains_pool_linearly(self):
        S = generate_spreading(16, 2, np.random.default_rng(2))
        gram, h2 = effective_gram(DE, S, np.ones((2, 2)))
        assert np.array_equal(gram, S.T @ S)
        assert np.array_equal(h2, [2.0, 2.0])
        gram, _ = effective_gram(MF, S, np.ones((2, 2)))
        assert np.array_equal(gram, 2.0 * (S.T @ S))

    def test_block_structure(self):
        # the stacked Gram is the sum of the antennas' block Grams:
        # sbar_j'sbar_k = sum_l h_lj h_lk s_j's_k
        rng = np.random.default_rng(3)
        S, H = draw_system(rng, 8, 3, 2)
        for kind in (MF, MMSE):
            gram, _ = effective_gram(kind, S, H)
            assert gram.shape == (3, 3)
            blocks = sum((S * h).T @ (S * h) for h in H)
            assert np.allclose(gram, blocks, rtol=1e-14, atol=1e-14)


class TestEquilibriumMa:
    def test_is_the_base_solver(self):
        assert solve_equilibrium_ma is solve_channel

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_antenna_reduces_to_base_solver(self, kind, model):
        params = make_params(K=12, N=64)
        rng = np.random.default_rng(4)
        S, H = draw_system(rng, 64, 12, 1)
        realization = ChannelRealization(S=S, H=H,
                                         distances=np.full(12, 100.0))
        base = solve_equilibrium(realization, kind, params, model)
        stacked = solve_equilibrium_ma(S, H, kind, params, model)
        assert np.array_equal(stacked.powers, base.powers)
        assert np.array_equal(stacked.sirs, base.sirs)
        assert stacked.iterations == base.iterations

    def test_single_user_power_pooling(self, model, gamma_star):
        params = make_params(K=1)
        rng = np.random.default_rng(5)
        S, H = draw_system(rng, 64, 1, 2)
        res = solve_equilibrium_ma(S, H, MMSE, params, model)
        assert res.converged
        assert res.powers[0] == pytest.approx(
            gamma_star * SIGMA2 / float(np.sum(H ** 2)), rel=1e-9)

    def test_two_antenna_mmse_balances(self, model, gamma_star):
        params = make_params(K=30, N=100, m=2)
        rng = np.random.default_rng(6)
        S, H = draw_system(rng, 100, 30, 2)
        res = solve_equilibrium_ma(S, H, MMSE, params, model)
        assert res.converged and not res.clamped_users
        assert np.max(np.abs(res.sirs - gamma_star) / gamma_star) <= 1e-6

    def test_decorrelator_mrc_closed_form(self, model, gamma_star):
        # zero-forcing per antenna then MRC: p_k = g* s2 [(S'S)^-1]_kk / hbar2_k
        params = make_params(K=20, N=64, m=2)
        rng = np.random.default_rng(7)
        S, H = draw_system(rng, 64, 20, 2)
        res = solve_equilibrium_ma(S, H, DE, params, model)
        noise_amp = np.diag(np.linalg.inv(S.T @ S))
        expected = gamma_star * SIGMA2 * noise_amp / (H ** 2).sum(axis=0)
        assert res.converged
        assert np.allclose(res.powers, expected, rtol=1e-9)

    def test_decorrelator_plays_on_pooled_gain(self, model):
        # the engine sees hbar2 itself, not a rounded sqrt(hbar2) ** 2
        params = make_params(K=20, N=64, m=2)
        rng = np.random.default_rng(7)
        S, H = draw_system(rng, 64, 20, 2)
        res = solve_equilibrium_ma(S, H, DE, params, model)
        hbar2 = (H ** 2).sum(axis=0)
        noise = SIGMA2 * np.diag(np.linalg.inv(S.T @ S))
        assert np.array_equal(res.sirs, res.powers * hbar2 / noise)

    def test_decorrelator_needs_k_le_n_per_antenna(self, model):
        params = make_params(K=20, N=16, m=2)
        rng = np.random.default_rng(8)
        S, H = draw_system(rng, 16, 20, 2)  # K > N even though K < mN
        with pytest.raises(SingularSpreadingError,
                           match="decorrelator needs K <= N, got K=20, N=16"):
            solve_equilibrium_ma(S, H, DE, params, model)

    def test_matched_filter_mrc_single_user(self, model, gamma_star):
        params = make_params(K=1)
        rng = np.random.default_rng(9)
        S, H = draw_system(rng, 32, 1, 4)
        res = solve_equilibrium_ma(S, H, MF, params, model)
        assert res.powers[0] == pytest.approx(
            gamma_star * SIGMA2 / float(np.sum(H ** 2)), rel=1e-9)

    def test_mmse_matches_pooled_prediction_at_scale(self, model, gamma_star):
        # finite stacked equilibria vs the pooled-load closed form, using
        # zero-mean fading coefficients (random sign on the Rayleigh
        # magnitude); all-positive amplitudes would break the antenna-domain
        # isotropy the pooled limit relies on
        alpha, m, N, trials = 0.5, 2, 200, 200
        K = round(alpha * N)
        params = make_params(K=K, N=N, m=m)
        ratios = []
        for t in range(trials):
            rng = np.random.default_rng((40, t))
            S, H = draw_system(rng, N, K, m)
            signs = rng.integers(0, 2, size=H.shape) * 2 - 1
            res = solve_equilibrium_ma(S, H * signs, MMSE, params, model,
                                       gamma_star=gamma_star)
            assert res.converged
            hbar2 = (H ** 2).sum(axis=0)
            implied = gamma_star * SIGMA2 / (
                hbar2 * gamma_factor(MMSE, K / N, gamma_star, m))
            ratios.append(float(np.mean(res.powers / implied)))
        assert abs(np.mean(ratios) - 1.0) < 0.05


class TestGammaFactorMa:
    def test_single_antenna_equals_base(self, gamma_star):
        # one antenna is the single-antenna closed form, bit for bit
        for alpha in (0.02, 0.1):
            expected = {MF: 1.0 - alpha * gamma_star, DE: 1.0 - alpha,
                        MMSE: 1.0 - alpha * gamma_star / (1.0 + gamma_star)}
            for kind in KINDS:
                assert gamma_factor(kind, alpha, gamma_star, 1) == \
                    expected[kind]

    def test_decorrelator_ignores_antennas(self, gamma_star):
        for m in (1, 2, 8):
            assert gamma_factor(DE, 0.4, gamma_star, m) == \
                pytest.approx(0.6, rel=1e-12)

    def test_matched_filter_two_antennas(self):
        got = gamma_factor(MF, 0.2, 6.48, 2)
        assert got == pytest.approx(1 - 0.1 * 6.48, rel=1e-12)

    def test_capacity_region_scales_with_antennas(self, gamma_star):
        # alpha = 0.2 breaks the single-antenna MF bound but not the 2-antenna one
        with pytest.raises(InfeasibleLoadError):
            gamma_factor(MF, 0.2, gamma_star, 1)
        assert 0 < gamma_factor(MF, 0.2, gamma_star, 2) < 1
        bound = feasibility_bound(MMSE, gamma_star)
        with pytest.raises(InfeasibleLoadError):
            gamma_factor(MMSE, bound * 1.5, gamma_star, 1)
        assert gamma_factor(MMSE, bound * 1.5, gamma_star, 2) > 0

    def test_feasibility_test_gates_gamma_factor(self, gamma_star):
        # gamma_factor raises exactly when the effective load reaches the
        # single-antenna bound; at the limit's float neighbours that differs
        # from alpha >= feasibility_bound(kind, gamma_star, m) for MF, m = 5
        split = []
        for kind in KINDS:
            bound = feasibility_bound(kind, gamma_star)
            for m in (1, 2, 3, 5, 8):
                limit = feasibility_bound(kind, gamma_star, m)
                assert gamma_factor(kind, limit * (1 - 1e-9), gamma_star, m) > 0
                with pytest.raises(InfeasibleLoadError):
                    gamma_factor(kind, limit * (1 + 1e-9), gamma_star, m)
                for alpha in (np.nextafter(limit, 0.0), limit,
                              np.nextafter(limit, 2 * limit)):
                    load = alpha if kind is DE else alpha / m
                    if load < bound:
                        assert gamma_factor(kind, alpha, gamma_star, m) > 0
                    else:
                        with pytest.raises(InfeasibleLoadError):
                            gamma_factor(kind, alpha, gamma_star, m)
                        if alpha < limit:
                            split.append((kind, m))
            assert feasibility_bound(kind, gamma_star, 1) == bound
        assert split == [(MF, 5)]

    def test_monotone_in_antennas(self, gamma_star):
        for kind in (MF, MMSE):
            vals = [gamma_factor(kind, 0.1, gamma_star, m) for m in (1, 2, 4, 8)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestUtilityMa:
    # m-antenna utility: the one closed form with Gammabar and pooled hbar2
    @staticmethod
    def utility_ma(kind, alpha, m, params, model, gamma_star, hbar2):
        return (utility_coef(params, model, gamma_star)
                * gamma_factor(kind, alpha, gamma_star, m) * hbar2)

    def test_single_antenna_equals_base(self, params, model, gamma_star):
        for kind in KINDS:
            single = (utility_coef(params, model, gamma_star)
                      * gamma_factor(kind, 0.1, gamma_star) * 1e-9)
            assert self.utility_ma(kind, 0.1, 1, params, model, gamma_star,
                                   1e-9) == pytest.approx(single, rel=1e-12)

    def test_antenna_gain_decomposition(self, params, model, gamma_star):
        # doubling antennas at fixed alpha doubles the pooled power; DE gains
        # exactly that, MF and MMSE also gain Gamma(alpha/2) / Gamma(alpha)
        alpha, h2 = 0.1, 1e-9
        for kind in KINDS:
            u1 = self.utility_ma(kind, alpha, 1, params, model, gamma_star, h2)
            u2 = self.utility_ma(kind, alpha, 2, params, model, gamma_star,
                                 2 * h2)
            ratio = u2 / u1
            if kind is DE:
                assert ratio == pytest.approx(2.0, rel=1e-12)
            else:
                reduction = (gamma_factor(kind, alpha / 2, gamma_star)
                             / gamma_factor(kind, alpha, gamma_star))
                assert reduction > 1.0
                assert ratio == pytest.approx(2.0 * reduction, rel=1e-12)
