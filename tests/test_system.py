import numpy as np
import pytest

from powergame.exceptions import SingularSpreadingError, SolverError
from powergame.game import solve_channel
from powergame.system import (_LINALG_ERRSTATE, COND_LIMIT, LEAF_ROWS,
                              ChannelRealization, ReceiverKind, _inverse,
                              _singular, _zf_columns, decorrelator_sirs,
                              generate_gains, generate_spreading,
                              make_sir_engine, matched_filter_sirs,
                              output_sir, rayleigh_scale, receiver_filter,
                              sir_per_watt, utility)

from conftest import draw_realization, make_params, stacked_system

MF = ReceiverKind.MATCHED_FILTER
DE = ReceiverKind.DECORRELATOR
MMSE = ReceiverKind.MMSE

# (N, K, antennas) past LEAF_ROWS users, where _inverse eliminates by blocks
PAST_LEAF = {MF: [], DE: [(200, 100, 1)],
             MMSE: [(200, 100, 1), (100, 110, 1), (200, 100, 2)]}


def past_leaf_draws(kind, seed):
    """Seeded (S, heff, p) draws of PAST_LEAF[kind]; stacked antenna
    signatures play on unit gains (stacked_system)."""
    rng = np.random.default_rng(seed)
    for N, K, m in PAST_LEAF[kind]:
        S = generate_spreading(N, K, rng)
        H = generate_gains(np.full(K, 100.0), m, rng)
        S, h2 = stacked_system(kind, S, H)
        yield S, np.sqrt(h2), rng.uniform(1e-7, 1e-5, K)


class TestSpreading:
    def test_deterministic_given_stream(self):
        a = generate_spreading(16, 4, np.random.default_rng(11))
        b = generate_spreading(16, 4, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_entries_and_unit_columns(self):
        S = generate_spreading(100, 7, np.random.default_rng(0))
        assert np.all(np.isin(np.abs(S), [1.0 / 10.0]))
        assert np.allclose(np.einsum("nk,nk->k", S, S), 1.0, rtol=0, atol=1e-14)

    def test_crosscorrelations_zero_mean(self):
        # Monte Carlo: off-diagonal crosscorrelations average out
        rng = np.random.default_rng(1)
        total, n = 0.0, 10_000
        for _ in range(n):
            S = generate_spreading(64, 2, rng)
            total += S[:, 0] @ S[:, 1]
        assert abs(total / n) < 0.01

    @pytest.mark.parametrize("N,K", [(1, 1), (3, 7), (100, 58), (200, 60),
                                     (200, 100)])
    def test_layout_is_one_integer_draw_mapped_to_signs(self, N, K):
        # the chips of a fresh PCG64 stream are the bytes of one
        # integers(0, 2, (N, K)) call, 0 -> -1/sqrt(N) and 1 -> +1/sqrt(N),
        # and the next 64-bit draw matches; odd N K included
        rng, twin = np.random.default_rng(12), np.random.default_rng(12)
        S = generate_spreading(N, K, rng)
        reference = (twin.integers(0, 2, size=(N, K)) * 2 - 1) / np.sqrt(N)
        assert S.shape == reference.shape and S.dtype == reference.dtype
        assert S.tobytes() == reference.tobytes()
        assert rng.random() == twin.random()

    # odd N K leave the last raw word's high half unused
    RAW_SHAPES = [(1, 1), (3, 7), (101, 3), (4, 5), (200, 60)]

    @pytest.mark.parametrize("N,K", RAW_SHAPES)
    def test_chips_are_bit_31_of_raw_word_halves(self, N, K):
        # the stream contract itself, which numpy keeps across releases:
        # chip i is bit 31 of the i-th 32-bit half of the raw words, low
        # half first, read here with Python integers
        rng, twin = np.random.default_rng(14), np.random.default_rng(14)
        S = generate_spreading(N, K, rng)
        words = twin.bit_generator.random_raw((N * K + 1) // 2).tolist()
        halves = [half for w in words for half in (w & 0xFFFFFFFF, w >> 32)]
        chips = [half >> 31 for half in halves[:N * K]]
        assert S.tobytes() == (np.array([-1.0, 1.0])[chips].reshape(N, K)
                               / np.sqrt(N)).tobytes()

    @pytest.mark.parametrize("N,K", RAW_SHAPES)
    def test_later_64_bit_draws_match_a_twin(self, N, K):
        # the gains and anything else drawn after the chips take 64-bit
        # words, which integers(0, 2) and the raw draw leave at the same
        # place; only a 32-bit half that integers keeps for odd N K differs
        rng, twin = np.random.default_rng(15), np.random.default_rng(15)
        generate_spreading(N, K, rng)
        twin.integers(0, 2, size=(N, K))
        assert (rng.rayleigh(size=(2, K)).tobytes()
                == twin.rayleigh(size=(2, K)).tobytes())
        assert rng.random() == twin.random()
        assert not rng.bit_generator.state["has_uint32"]
        assert twin.bit_generator.state["has_uint32"] == (N * K) % 2

    def test_mt19937_is_refused(self):
        # its raw words carry 32 bits, so every second chip would be -1
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError, match="MT19937"):
            generate_spreading(4, 2, rng)

    @pytest.mark.parametrize("N,K", [(0, 2), (4, 0), (-1, 2)])
    def test_empty_shape_is_refused(self, N, K):
        with pytest.raises(ValueError, match="N and K must be positive"):
            generate_spreading(N, K, np.random.default_rng(0))


class TestGains:
    def test_amplitude_mean_follows_distance_law(self):
        rng = np.random.default_rng(2)
        h = generate_gains(np.full(100_000, 100.0), 1, rng)
        assert h.mean() == pytest.approx(0.3 / 100.0 ** 2, rel=0.02)

    def test_antennas_independent(self):
        rng = np.random.default_rng(4)
        h = generate_gains(np.full(100_000, 50.0), 2, rng)
        corr = np.corrcoef(h[0], h[1])[0, 1]
        assert abs(corr) < 0.02

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("distances", [[100.0] * 5,
                                           [10.0, 100.0, 37.5, 1e3, 250.0]],
                                 ids=["equal", "mixed"])
    def test_layout_is_one_rayleigh_draw_per_scale(self, m, distances):
        # the stream contract: gains are one rayleigh(size=(m, K)) call of
        # unit scale times each user's scale, the same bytes and generator
        # state as numpy's draw at the broadcast scales
        rng, twin = np.random.default_rng(13), np.random.default_rng(13)
        H = generate_gains(distances, m, rng)
        reference = twin.rayleigh(scale=np.broadcast_to(
            rayleigh_scale(distances), (m, len(distances))))
        assert H.shape == reference.shape and H.dtype == reference.dtype
        assert H.tobytes() == reference.tobytes()
        assert rng.random() == twin.random()

    def test_all_positive(self):
        h = generate_gains([10.0, 100.0, 1000.0], 3, np.random.default_rng(5))
        assert np.all(h > 0)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            generate_gains([100.0, 0.0], 1, np.random.default_rng(0))


class TestReceiverFilter:
    def test_matched_filter_is_signature(self):
        S = generate_spreading(32, 5, np.random.default_rng(6))
        c = receiver_filter(MF, 2, S, np.ones(5), np.ones(5), 1e-3)
        assert np.array_equal(c, S[:, 2])

    def test_decorrelator_on_orthogonal_sequences(self):
        S = np.eye(8)[:, :4]  # orthonormal columns
        c = receiver_filter(DE, 1, S, np.ones(4), np.ones(4), 1e-3)
        assert np.allclose(c, S[:, 1], atol=1e-12)

    def test_decorrelator_zero_forces(self):
        S = generate_spreading(32, 10, np.random.default_rng(7))
        c = receiver_filter(DE, 3, S, np.ones(10), np.ones(10), 1e-3)
        cross = c @ S
        assert cross[3] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(np.delete(cross, 3))) < 1e-10

    def test_decorrelator_needs_k_le_n(self):
        # the per-user filter, the whole-vector kernel and the Nash check's
        # rates all refuse K > N before any Gram is inverted
        S = generate_spreading(8, 9, np.random.default_rng(8))
        h, p = np.ones(9), np.ones(9)
        for call in (lambda: receiver_filter(DE, 0, S, h, p, 1e-3),
                     lambda: decorrelator_sirs(S, h, p, 1e-3),
                     lambda: sir_per_watt(DE, S, np.ones((2, 9)), p, 1e-3)):
            with pytest.raises(SingularSpreadingError,
                               match=r"^decorrelator needs K <= N, got K=9, "
                                     r"N=8$"):
                call()

    def test_decorrelator_rejects_singular(self):
        S = generate_spreading(16, 3, np.random.default_rng(9))
        S[:, 2] = S[:, 0]  # duplicated sequence
        with pytest.raises(SingularSpreadingError):
            receiver_filter(DE, 0, S, np.ones(3), np.ones(3), 1e-3)

    def test_duplicate_columns_are_singular_not_a_linalg_error(self):
        # G = S'S is exactly singular here, so inv itself raises
        S = generate_spreading(16, 3, np.random.default_rng(9))
        S[:, 2] = S[:, 0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(S.T @ S)
        with pytest.raises(SingularSpreadingError) as err:
            _zf_columns(S.T @ S)
        assert not isinstance(err.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("pair, leaf_raises", [((0, 1), True),
                                                   ((0, 99), False)])
    def test_duplicate_columns_past_the_leaf_are_singular(self, pair,
                                                          leaf_raises):
        # K = 100 users: _inverse splits S'S at user 50. A duplicate pair in
        # one half makes that half exactly singular and its leaf inv raises;
        # a pair across the split leaves both halves regular, _inverse
        # returns, and the 1-norm rank guard rejects the draw
        S = generate_spreading(200, 100, np.random.default_rng(9))
        S[:, pair[1]] = S[:, pair[0]]
        if leaf_raises:
            with pytest.raises(np.linalg.LinAlgError):
                _inverse(S.T @ S)
        else:
            _inverse(S.T @ S)
        with pytest.raises(SingularSpreadingError) as err:
            _zf_columns(S.T @ S)
        assert not isinstance(err.value, np.linalg.LinAlgError)

    def test_rank_guard_agrees_with_the_two_norm_condition_number(self):
        # the guard reads the 1-norm condition number k1 off the inverse;
        # np.linalg.cond, the SVD's k2, is the oracle. Small N with K <= N
        # gives many exactly singular S'S, N = 100 and 200 the sizes the
        # experiments use
        cases = [(N, K, 30) for N in range(2, 13) for K in range(1, N + 1)]
        cases += [(N, round(load * N), 5) for N in (100, 200)
                  for load in (0.3, 0.5)]
        accepted, rejected = [], 0
        for N, K, draws in cases:
            for t in range(draws):
                S = generate_spreading(N, K, np.random.default_rng((50, N, K, t)))
                k2 = np.linalg.cond(S.T @ S)
                try:
                    _zf_columns(S.T @ S)
                except SingularSpreadingError:
                    assert k2 > COND_LIMIT, (N, K, t)
                    rejected += 1
                else:
                    assert k2 <= COND_LIMIT, (N, K, t)
                    accepted.append(k2)
        assert rejected > 200
        # the margin: the largest accepted k2 is 2.6e4, so k1 <= K k2 stays
        # far below COND_LIMIT, and every rejected draw has k2 above 7e15
        assert max(accepted) < 1e5

    def test_mmse_without_interference_is_scaled_matched_filter(self):
        S = generate_spreading(16, 3, np.random.default_rng(10))
        sigma2 = 0.25
        p = np.array([1.0, 0.0, 0.0])
        c = receiver_filter(MMSE, 0, S, np.ones(3), p, sigma2)
        assert np.allclose(c, S[:, 0] / sigma2, rtol=1e-12)

    def test_mmse_two_user_closed_form(self):
        # rank-one inversion identity against a direct dense inverse
        rng = np.random.default_rng(12)
        S = generate_spreading(64, 2, rng)
        h = np.array([1.3e-5, 2.1e-5])
        p = np.array([2e-6, 7e-6])
        sigma2 = 5e-16
        rho = S[:, 0] @ S[:, 1]
        got = output_sir(receiver_filter(MMSE, 0, S, h, p, sigma2),
                         0, S, h, p, sigma2)
        b = p[1] * h[1] ** 2
        expected = (p[0] * h[0] ** 2 / sigma2) * (1 - b * rho ** 2 / (sigma2 + b))
        assert got == pytest.approx(expected, rel=1e-10)
        A = b * np.outer(S[:, 1], S[:, 1]) + sigma2 * np.eye(64)
        oracle = p[0] * h[0] ** 2 * (S[:, 0] @ np.linalg.inv(A) @ S[:, 0])
        assert got == pytest.approx(oracle, rel=1e-10)


class TestInverse:
    @pytest.mark.parametrize("N, K", [(2 * K, K) for K in
                                      (1, 64, 65, 100, 129, 200)]
                             + [(100, 110)])
    def test_matches_inv_across_the_leaf(self, N, K):
        # S'S (when K <= N) and the MMSE matrix G D + sigma2 I, condition
        # numbers up to ~1e2; at or below LEAF_ROWS _inverse is inv itself
        rng = np.random.default_rng((26, N, K))
        S = generate_spreading(N, K, rng)
        G = S.T @ S
        h = generate_gains(np.full(K, 100.0), 1, rng)[0]
        M = G * (rng.uniform(1e-7, 1e-5, K) * h ** 2)
        M.flat[::K + 1] += 5e-16
        for A in ([G, M] if K <= N else [M]):
            ref = np.linalg.inv(A)
            if K <= LEAF_ROWS:
                assert np.array_equal(_inverse(A), ref)
            else:
                assert (np.abs(_inverse(A) - ref).max()
                        <= 4e-15 * np.abs(ref).max())


class TestOutputSir:
    def test_single_user(self):
        S = generate_spreading(16, 1, np.random.default_rng(13))
        got = output_sir(S[:, 0], 0, S, np.array([2e-5]), np.array([3e-6]), 5e-16)
        assert got == pytest.approx(3e-6 * 4e-10 / 5e-16, rel=1e-12)

    def test_two_user_matched_filter_form(self):
        rng = np.random.default_rng(14)
        S = generate_spreading(32, 2, rng)
        h = np.array([1e-5, 3e-5])
        p = np.array([4e-6, 6e-6])
        sigma2 = 5e-16
        rho = S[:, 0] @ S[:, 1]
        got = output_sir(S[:, 0], 0, S, h, p, sigma2)
        expected = p[0] * h[0] ** 2 / (sigma2 + p[1] * h[1] ** 2 * rho ** 2)
        assert got == pytest.approx(expected, rel=1e-12)
        # and the whole-vector matched-filter kernel reads the same form
        whole = matched_filter_sirs(S, h, p, sigma2)[0]
        assert whole == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(15)
        S = generate_spreading(32, 6, rng)
        h = generate_gains(np.full(6, 100.0), 1, rng)[0]
        p = np.full(6, 1e-6)
        c = receiver_filter(MMSE, 2, S, h, p, 5e-16)
        base = output_sir(c, 2, S, h, p, 5e-16)
        for lam in (1e-8, -3.0, 1e9):
            assert output_sir(lam * c, 2, S, h, p, 5e-16) == pytest.approx(base, rel=1e-12)

    def test_zero_filter_rejected(self):
        S = generate_spreading(8, 2, np.random.default_rng(16))
        with pytest.raises(ValueError):
            output_sir(np.zeros(8), 0, S, np.ones(2), np.ones(2), 1e-3)

    def test_decorrelator_interference_is_numerically_zero(self):
        rng = np.random.default_rng(17)
        S = generate_spreading(64, 20, rng)
        h = generate_gains(np.full(20, 100.0), 1, rng)[0]
        p = np.full(20, 1e-5)
        c = receiver_filter(DE, 4, S, h, p, 5e-16)
        cross = c @ S
        rec = p * h ** 2
        signal = rec[4] * cross[4] ** 2
        interference = np.sum(np.delete(rec * cross ** 2, 4))
        assert interference <= 1e-20 * signal

    @pytest.mark.parametrize("kind", [MF, DE, MMSE])
    def test_sir_linear_in_own_power(self, kind):
        rng = np.random.default_rng(18)
        S = generate_spreading(32, 8, rng)
        h = generate_gains(np.full(8, 100.0), 1, rng)[0]
        p = np.abs(rng.normal(2e-6, 1e-6, 8)) + 1e-8
        c = receiver_filter(kind, 5, S, h, p, 5e-16)
        g1 = output_sir(c, 5, S, h, p, 5e-16)
        p2 = p.copy()
        p2[5] *= 2.0
        g2 = output_sir(c, 5, S, h, p2, 5e-16)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-12)

    def test_mmse_dominates_other_linear_receivers(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            N = int(rng.integers(8, 33))
            K = int(rng.integers(2, N + 1))
            S = generate_spreading(N, K, rng)
            h = generate_gains(np.full(K, 100.0), 1, rng)[0]
            p = rng.uniform(1e-7, 1e-5, K)
            for k in range(K):
                best = output_sir(receiver_filter(MMSE, k, S, h, p, 5e-16),
                                  k, S, h, p, 5e-16)
                for kind in (MF, DE):
                    try:
                        other = output_sir(receiver_filter(kind, k, S, h, p, 5e-16),
                                           k, S, h, p, 5e-16)
                    except SingularSpreadingError:
                        continue
                    assert best >= other * (1 - 1e-12)


class TestUtility:
    def test_zero_efficiency_gives_zero(self, params, model):
        assert utility(1e-6, 0.0, params, model) == 0.0

    def test_inverse_power_homogeneity(self, params, model):
        u1 = utility(1e-6, 6.0, params, model)
        u2 = utility(2e-6, 6.0, params, model)
        assert u1 == pytest.approx(2.0 * u2, rel=1e-12)

    def test_reference_arithmetic(self, model):
        # (L/M) R f / p with f = 0.8: 1e5 * 0.8 / 1e-8
        params = make_params()
        # pick the gamma whose efficiency is closest to 0.8 on a fine grid
        from powergame.efficiency import eff_value
        grid = np.linspace(5.0, 7.0, 20001)
        g = grid[np.argmin([abs(eff_value(model, x) - 0.8) for x in grid])]
        f = eff_value(model, g)
        assert utility(1e-8, g, params, model) == pytest.approx(1e5 * f / 1e-8, rel=1e-12)
        assert utility(1e-8, g, params, model) == pytest.approx(8e12, rel=1e-3)

    def test_nonpositive_power_rejected(self, params, model):
        with pytest.raises(ValueError):
            utility(0.0, 1.0, params, model)


class TestSirEngines:
    @pytest.mark.parametrize("kind", [MF, DE, MMSE])
    def test_engines_match_filter_path(self, kind):
        rng = np.random.default_rng(20)
        shapes, draws = set(), []
        for _ in range(10):
            N = int(rng.integers(8, 33))
            K = int(rng.integers(2, N + 1))
            S = generate_spreading(N, K, rng)
            h = generate_gains(np.full(K, 100.0), 1, rng)[0]
            draws.append((S, h, rng.uniform(1e-7, 1e-5, K)))
        for S, h, p in draws + list(past_leaf_draws(kind, 22)):
            K = S.shape[1]
            try:
                fast = make_sir_engine(kind, S.T @ S, 5e-16)(p * h ** 2)[0]
            except SingularSpreadingError:
                continue
            ref = np.array([
                output_sir(receiver_filter(kind, k, S, h, p, 5e-16),
                           k, S, h, p, 5e-16)
                for k in range(K)])
            assert np.allclose(fast, ref, rtol=1e-9)
            shapes.add(S.shape)
        assert {(N * m, K) for N, K, m in PAST_LEAF[kind]} <= shapes

    @pytest.mark.parametrize("N,K", [(32, 12), (20, 22), (160, 80)])
    def test_mmse_user_at_zero_power_reads_sir_zero(self, N, K):
        # a user received at zero power has [M^-1]_kk = 1/sigma2, and
        # sigma2 * (1/sigma2) rounds to 1 - 2^-53 at this sigma2, so an SIR
        # read as (1 - d_k)/d_k, d_k = sigma2 [M^-1]_kk, would not be zero
        rng = np.random.default_rng((45, N, K))
        S = generate_spreading(N, K, rng)
        sigma2 = 2.2e-16
        rec = sigma2 * 10.0 ** rng.uniform(-3.0, 4.0, K)
        rec[::5] = 0.0
        sirs = make_sir_engine(MMSE, S.T @ S, sigma2)(rec)[0]
        assert np.all(sirs[::5] == 0.0)
        assert np.all(sirs[rec > 0] > 0.0)

    def test_singular_mmse_system_is_a_solver_error(self):
        # two identical signatures make G D singular, and a noise power
        # below the float spacing of the received powers cannot lift it
        S = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        h2, p = np.ones(3), np.full(3, 1e-6)
        with pytest.raises(SolverError, match="MMSE system of K=3 users is "
                           "singular at sigma2=1e-200"):
            make_sir_engine(MMSE, S.T @ S, 1e-200)(p * h2)
        with pytest.raises(SolverError, match="singular"):
            sir_per_watt(MMSE, S, np.ones((1, 3)), p, 1e-200)
        # a noise power on the scale of the received powers keeps it regular
        engine = make_sir_engine(MMSE, S.T @ S, 1e-6)
        assert np.all(np.isfinite(engine(p * h2)[0]))

    def test_invalid_operation_in_the_block_inverse_is_singular(
            self, monkeypatch):
        # 66 users, past LEAF_ROWS: no leaf is singular, but a product in
        # the block elimination overflows and an invalid operation follows,
        # which _inverse's error state reports as a singular matrix
        calls = []

        def recording(err, flag):
            calls.append(err)
            _singular(err, flag)

        monkeypatch.setitem(_LINALG_ERRSTATE, "call", recording)
        S = generate_spreading(100, 66, np.random.default_rng(1))
        with pytest.raises(SolverError, match="MMSE system of K=66 users is "
                           "singular at sigma2=1e-200; raise sigma2 or N"):
            sir_per_watt(MMSE, S, np.ones((1, 66)),
                         [1e-200] * 33 + [1e150] * 33, 1e-200)
        assert calls == ["invalid value"]


class TestFilterWeights:
    @pytest.mark.parametrize("kind", [MF, DE, MMSE])
    def test_rates_match_per_user_filters(self, kind):
        # sir_per_watt reads each filter off its K x K weights; at the
        # others' powers p its SIRs are p times those rates
        rng = np.random.default_rng(24)
        shapes, draws = set(), []
        for _ in range(10):
            N = int(rng.integers(8, 33))
            # MMSE also gets overloaded draws (K > N), where A_k stays regular
            K = int(rng.integers(2, (2 * N if kind is MMSE else N) + 1))
            S = generate_spreading(N, K, rng)
            h = generate_gains(np.full(K, 100.0), 1, rng)[0]
            draws.append((S, h, rng.uniform(1e-7, 1e-5, K)))
        for S, h, p in draws + list(past_leaf_draws(kind, 25)):
            N, K = S.shape
            try:
                rate = sir_per_watt(kind, S, h[None, :], p, 5e-16)
            except SingularSpreadingError:
                continue
            assert rate.shape == (K,)
            for k in range(K):
                ref = receiver_filter(kind, k, S, h, p, 5e-16)
                assert p[k] * rate[k] == pytest.approx(
                    output_sir(ref, k, S, h, p, 5e-16), rel=1e-9)
            shapes.add((N, K))
        past = {(N * m, K) for N, K, m in PAST_LEAF[kind]}
        assert past <= shapes and len(shapes - past) >= 5
        if kind is MMSE:
            assert any(K > N for N, K in shapes)


@pytest.fixture(scope="module")
def curve(model):
    params = make_params(K=10)
    rng = np.random.default_rng(21)
    realization = draw_realization(rng, 100, 10)
    others = np.full(10, 3e-6)
    grid = np.geomspace(1e-8, 1e-4, 120)
    # the user's SIR is its own power times a rate its filter fixes
    rate = sir_per_watt(MMSE, realization.S, realization.H, others,
                        params.sigma2)[0]
    rows = [(x, utility(x, x * rate, params, model)) for x in grid]
    return rows, realization, params


class TestUtilityPowerCurve:
    def test_quasiconcave_single_peak(self, curve):
        values = [u for _, u in curve[0]]
        diffs = np.sign(np.diff(values))
        # rises to one peak, then falls: sign pattern has one + to - switch
        switches = np.sum((diffs[:-1] > 0) & (diffs[1:] < 0))
        assert switches == 1
        assert values[0] < max(values) and values[-1] < max(values)

    def test_peak_sir_near_target(self, curve, model, gamma_star):
        rows, realization, params = curve
        powers = np.array([p for p, _ in rows])
        values = [u for _, u in rows]
        i = int(np.argmax(values))
        c = receiver_filter(MMSE, 0, realization.S, realization.H[0],
                            np.full(10, 3e-6), params.sigma2)
        probe = np.full(10, 3e-6)
        probe[0] = powers[i]
        g_peak = output_sir(c, 0, realization.S, realization.H[0], probe,
                            params.sigma2)
        step = powers[1] / powers[0]
        assert g_peak / gamma_star < step and gamma_star / g_peak < step

    def test_vanishes_at_low_power(self, curve):
        values = [u for _, u in curve[0]]
        assert values[0] < 1e-6 * max(values)


class TestRealizationValidation:
    def test_positive_gain_required(self):
        S = generate_spreading(8, 2, np.random.default_rng(22))
        with pytest.raises(ValueError):
            ChannelRealization(S=S, H=np.array([[1.0, 0.0]]),
                               distances=np.array([1.0, 1.0]))

    def test_user_count_consistency(self, model):
        S = generate_spreading(8, 2, np.random.default_rng(23))
        with pytest.raises(ValueError):
            ChannelRealization(S=S, H=np.ones((1, 3)), distances=np.ones(3))
        # and where the solver meets S and H, in effective_gram
        with pytest.raises(ValueError, match="S and H disagree on the number "
                           "of users"):
            solve_channel(S, np.ones((2, 3)), MMSE, make_params(K=2, N=8),
                          model)


class TestSystemParamsValidation:
    @pytest.mark.parametrize("key,value", [
        ("sigma2", float("nan")), ("R", float("inf")), ("Pmax", float("inf")),
        ("Pmax", float("nan"))])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            make_params(**{key: value})
