"""Property tests: the whole-vector SIR engines and sir_per_watt against the
per-user oracle, filter scale invariance, the MMSE receiver's optimality,
the Newton equilibrium against the capped sweeps, byte-identical CLI reruns
and the CLI's exit-code contract.

receiver_filter + output_sir build each user's filter from an N x N (or
mN x mN) system and stay the independent reference; the engines, including
the K x K MMSE form, must reproduce them on arbitrary draws, overloaded
(K > N) ones included. The engines take effective_gram's Gram of m antennas;
the reference takes conftest.stacked_system's stacked signatures.
"""

import contextlib
import io
import re
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import (assume, example, given, reject, settings,
                        strategies as st)

from powergame import cli
from powergame.asymptotic import feasibility_bound
from powergame.efficiency import (EfficiencyKind, EfficiencyModel,
                                  solve_gamma_star)
from powergame.exceptions import (PowerGameError, SingularSpreadingError,
                                  SolverError)
from powergame.experiments import trial_rng
from powergame.game import (POWER_TOL, _balance, _newton_start, solve_channel,
                            solve_equilibrium)
from powergame.system import (ReceiverKind, SystemParams, effective_gram,
                              generate_gains, generate_spreading,
                              make_sir_engine, mmse_sirs, output_sir,
                              receiver_filter, sir_per_watt)

from conftest import (annulus_realization, draw_realization, exact_mmse_sirs,
                      make_params, settle_rtol, solve_from_engine,
                      stacked_system)

MF = ReceiverKind.MATCHED_FILTER
DE = ReceiverKind.DECORRELATOR
MMSE = ReceiverKind.MMSE
SIGMA2 = 5e-16
RTOL = 1e-9

# derandomized so that tier-1 runs the same examples every time
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def seeded_draw(N, K, seed, m=1):
    """(S, H, p): N x K chips, m x K gains and K powers from one seed."""
    rng = np.random.default_rng(seed)
    S = generate_spreading(N, K, rng)
    # distances 30..300 m spread the received powers over ~4 decades
    H = generate_gains(rng.uniform(30.0, 300.0, K), m, rng)
    p = 10.0 ** rng.uniform(-8.0, -4.0, K)
    return S, H, p


@st.composite
def draws(draw, m=1, max_load=2.0):
    """A seeded_draw with N <= 24 and K <= max_load N."""
    N = draw(st.integers(2, 24))
    K = draw(st.integers(1, int(max_load * N)))
    return seeded_draw(N, K, draw(st.integers(0, 2 ** 32 - 1)), m)


def oracle_sirs(kind, S, heff, p, sigma2=SIGMA2):
    K = S.shape[1]
    return np.array([
        output_sir(receiver_filter(kind, k, S, heff, p, sigma2),
                   k, S, heff, p, sigma2)
        for k in range(K)])


class TestMmseKernel:
    @PROPERTY
    @given(draws())
    def test_engine_and_kernel_match_oracle(self, draw):
        S, H, p = draw
        ref = oracle_sirs(MMSE, S, H[0], p)
        engine = make_sir_engine(MMSE, effective_gram(MMSE, S, H)[0], SIGMA2)
        np.testing.assert_allclose(engine(p * H[0] ** 2)[0], ref, rtol=RTOL)
        np.testing.assert_allclose(mmse_sirs(S, H[0], p, SIGMA2), ref,
                                   rtol=RTOL)

    @PROPERTY
    @given(draws(m=2), st.sampled_from([MF, MMSE]))
    def test_stacked_two_antennas_match_oracle(self, draw, kind):
        # stacked columns have squared norm hbar2, not 1, which exercises
        # the matched filter's own-norm term s_k's_k
        S, H, p = draw
        gram, h2 = effective_gram(kind, S, H)
        Sbar, unit = stacked_system(kind, S, H)
        np.testing.assert_allclose(
            make_sir_engine(kind, gram, SIGMA2)(p * h2)[0],
            oracle_sirs(kind, Sbar, np.sqrt(unit), p), rtol=RTOL)


# Today's MMSE map against the exact oracle: a user's relative SIR error
# over eps cond_1(M) (1 + gamma_k), M = G D + sigma2 I, peaked at 13 over
# 4000 seeded draws of mmse_oracle_draws' shape, on weak users of overloaded
# draws; 1 - r_k cancels at high SIR, hence the (1 + gamma_k)
MMSE_ORACLE_FACTOR = 64


@st.composite
def mmse_oracle_draws(draw):
    """(gram, rec) of a seeded_draw with K <= 12 users on N >= K chips or
    on fewer, some of them at zero power."""
    K = draw(st.integers(1, 12))
    N = draw(st.integers(K, 24) | st.integers(1, max(1, K - 1)))
    S, H, p = seeded_draw(N, K, draw(st.integers(0, 2 ** 32 - 1)))
    p[draw(st.lists(st.booleans(), min_size=K, max_size=K))] = 0.0
    return effective_gram(MMSE, S, H)[0], p * H[0] ** 2


class TestMmseExactOracle:
    @PROPERTY
    @given(mmse_oracle_draws())
    def test_map_within_its_bound_of_the_exact_sirs(self, draw):
        gram, rec = draw
        sirs = make_sir_engine(MMSE, gram, SIGMA2)(rec)[0]
        M = gram * rec
        M.flat[::len(rec) + 1] += SIGMA2
        scale = MMSE_ORACLE_FACTOR * np.finfo(float).eps * np.linalg.cond(M, 1)
        exact = exact_mmse_sirs(gram, rec, SIGMA2)
        for sir, true, silent in zip(sirs.tolist(), exact, rec == 0.0):
            if silent:  # no power, no SIR, in floats too
                assert true == 0 and sir == 0.0
                continue
            error = float(abs(Fraction(sir) - true) / true)
            assert error <= scale * (1.0 + float(true))


class TestEffectiveGram:
    @PROPERTY
    @given(st.integers(2, 4).flatmap(lambda m: draws(m=m)),
           st.sampled_from([MF, MMSE]))
    def test_hadamard_form_is_the_stacked_gram(self, draw, kind):
        # (S'S) o (H'H) against the stacked mN x K signatures' own Gram.
        # An entry that cancels toward 0 keeps no relative digits in either
        # form, so each is held to 1e-14 of its Cauchy-Schwarz bound
        # sqrt(G_jj G_kk), which is the entry itself on the diagonal
        S, H, _ = draw
        gram, h2 = effective_gram(kind, S, H)
        Sbar, unit = stacked_system(kind, S, H)
        stacked = Sbar.T @ Sbar
        assert np.array_equal(h2, unit)
        bound = np.sqrt(np.outer(stacked.diagonal(), stacked.diagonal()))
        assert np.all(abs(gram - stacked) <= 1e-14 * bound)

    @PROPERTY
    @given(st.one_of(
        st.tuples(draws(max_load=1.0), st.sampled_from(list(ReceiverKind))),
        st.tuples(st.integers(2, 4).flatmap(
            lambda m: draws(m=m, max_load=1.0)), st.just(DE))))
    def test_one_antenna_and_decorrelator_keep_the_plain_gram(self, case):
        (S, H, _), kind = case
        gram, h2 = effective_gram(kind, S, H)
        assert np.array_equal(gram, S.T @ S)
        assert np.array_equal(h2, (H ** 2).sum(axis=0))


class TestEngineEquivalences:
    @PROPERTY
    @given(draws(), st.sampled_from([MF, MMSE]))
    def test_one_antenna_stack_equals_single_antenna(self, draw, kind):
        # a stack of one antenna, built here because effective_gram keeps
        # (S'S, h^2) at m = 1; its columns have squared norm h^2, not 1
        S, H, p = draw
        Sbar = H[0] * S
        stacked = make_sir_engine(kind, Sbar.T @ Sbar, SIGMA2)(p)[0]
        gram, h2 = effective_gram(kind, S, H)
        np.testing.assert_allclose(
            stacked, make_sir_engine(kind, gram, SIGMA2)(p * h2)[0],
            rtol=RTOL)

    @PROPERTY
    @given(draws(), st.sampled_from([MF, MMSE]), st.randoms())
    # past LEAF_ROWS users, where a permutation moves users across the
    # split of _inverse's block elimination
    @example(seeded_draw(200, 100, 27), MMSE, Random(27))
    @example(seeded_draw(200, 100, 27), DE, Random(27))
    def test_user_permutation(self, draw, kind, random):
        S, H, p = draw
        perm = np.array(random.sample(range(S.shape[1]), S.shape[1]))
        h2 = H[0] ** 2
        sirs = make_sir_engine(kind, S.T @ S, SIGMA2)(p * h2)[0]
        permuted = make_sir_engine(kind, S[:, perm].T @ S[:, perm], SIGMA2)(
            p[perm] * h2[perm])[0]
        np.testing.assert_allclose(permuted, sirs[perm], rtol=RTOL)


class TestFilterScaleInvariance:
    @PROPERTY
    @given(draws(), st.sampled_from(list(ReceiverKind)), st.data(),
           st.floats(-6.0, 6.0), st.booleans())
    def test_output_sir_ignores_filter_scale(self, draw, kind, data, log_mag,
                                             negative):
        S, H, p = draw
        k = data.draw(st.integers(0, S.shape[1] - 1))
        try:
            c = receiver_filter(kind, k, S, H[0], p, SIGMA2)
        except SingularSpreadingError:
            reject()
        lam = (-1.0 if negative else 1.0) * 10.0 ** log_mag
        np.testing.assert_allclose(output_sir(lam * c, k, S, H[0], p, SIGMA2),
                                   output_sir(c, k, S, H[0], p, SIGMA2),
                                   rtol=1e-12)


@st.composite
def frozen_powers(draw, kinds=tuple(ReceiverKind)):
    """(kind, S, H, p, sigma2): a receiver, a draw with m = 1 or 2 antennas
    of up to K = 2N users (K <= N for the decorrelator) and a noise power."""
    kind = draw(st.sampled_from(kinds))
    S, H, p = draw(draws(m=draw(st.integers(1, 2)),
                         max_load=1.0 if kind is DE else 2.0))
    return kind, S, H, p, 10.0 ** draw(st.floats(-18.0, -13.0))


class TestSirPerWatt:
    """sir_per_watt against the per-user oracle, and the paper's headline
    claim on it: with the others' powers frozen, no linear filter gives a
    user more SIR per watt than MMSE (Verdu, Multiuser Detection, 1998)."""

    @PROPERTY
    @given(frozen_powers())
    def test_power_times_rate_is_the_oracle_sir(self, system):
        kind, S, H, p, sigma2 = system
        try:
            rate = sir_per_watt(kind, S, H, p, sigma2)
        except (SingularSpreadingError, SolverError):
            reject()
        Sbar, h2 = stacked_system(kind, S, H)
        rtol = 1e-12
        if kind is DE:
            # the decorrelator's SIR is 1 / [(S'S)^-1]_kk, which two ways of
            # inverting S'S agree on only to eps times its condition number
            rtol = max(rtol, np.finfo(float).eps * np.linalg.cond(S.T @ S))
        np.testing.assert_allclose(
            p * rate, oracle_sirs(kind, Sbar, np.sqrt(h2), p, sigma2),
            rtol=rtol)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(frozen_powers(kinds=(MMSE,)), st.integers(0, 2 ** 32 - 1),
           st.floats(-4.0, 1.0))
    def test_mmse_maximizes_sir_per_watt(self, system, seed, log_step):
        _, S, H, p, sigma2 = system
        try:
            best = sir_per_watt(MMSE, S, H, p, sigma2)
        except SolverError:
            reject()
        rivals = [sir_per_watt(MF, S, H, p, sigma2)]
        if S.shape[0] >= S.shape[1]:
            try:
                rivals.append(sir_per_watt(DE, S, H, p, sigma2))
            except SingularSpreadingError:
                pass
        # random filters on the chips of every antenna: the per-user MMSE
        # filters moved by a random step of 1e-4 to 10 times their own length
        Sbar, h2 = stacked_system(MMSE, S, H)
        C = np.column_stack([receiver_filter(MMSE, k, Sbar, np.sqrt(h2), p,
                                             sigma2)
                             for k in range(S.shape[1])])
        step = np.random.default_rng(seed).standard_normal(C.shape)
        C = C + 10.0 ** log_step * step * (np.linalg.norm(C, axis=0)
                                           / np.linalg.norm(step, axis=0))
        rivals.append([output_sir(C[:, k], k, Sbar, np.sqrt(h2), p, sigma2)
                       / p[k] for k in range(S.shape[1])])
        for rival in rivals:
            assert np.all(best >= np.asarray(rival) * (1.0 - 1e-12))


MODEL = EfficiencyModel(EfficiencyKind.EXP_APPROX, 100)
GAMMA_STAR = solve_gamma_star(MODEL)
# the largest load each receiver's draws take: the matched filter's
# feasibility bound, the decorrelator's K <= N, and twice MMSE's bound of
# 1.15, so that infeasible MMSE draws are drawn too
MAX_LOAD = {ReceiverKind.MATCHED_FILTER: feasibility_bound(
    ReceiverKind.MATCHED_FILTER, GAMMA_STAR), ReceiverKind.DECORRELATOR: 1.0,
    ReceiverKind.MMSE: 2.0}


@st.composite
def systems(draw):
    """(kind, S, H): a receiver and an N x K, m x K draw for it."""
    kind = draw(st.sampled_from(list(ReceiverKind)))
    m = draw(st.integers(1, 2))
    N = draw(st.integers(2, 64))
    K = draw(st.integers(1, max(1, int(MAX_LOAD[kind] * N))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (kind, generate_spreading(N, K, rng),
            generate_gains(rng.uniform(30.0, 300.0, K), m, rng))


@st.composite
def overloaded_mmse(draw):
    """(S, H): an MMSE draw with more users than chips, N < K <= 1.15 N."""
    N = draw(st.integers(7, 40))
    K = draw(st.integers(N + 1, int(1.15 * N)))
    m = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (generate_spreading(N, K, rng),
            generate_gains(rng.uniform(30.0, 300.0, K), m, rng))


# a Pmax at which the annulus draws below hold users at Pmax: 75% of MF and
# 94% of MMSE draws at 1e-2 W, 12% and 22% at 1 W
CAPPED_PMAX = 1e-2


@st.composite
def annulus_systems(draw):
    """(kind, S, H): an MF or MMSE draw below the receiver's load limit, its
    users over the annulus 10 to 1000 m (d^2 uniform), so that the received
    powers spread over ~8 decades and the far or faded users meet Pmax."""
    kind = draw(st.sampled_from([MF, MMSE]))
    m = draw(st.integers(1, 2))
    N = draw(st.integers(8, 64))
    K = draw(st.integers(2, max(2, int(feasibility_bound(kind, GAMMA_STAR)
                                       * N))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (kind, generate_spreading(N, K, rng),
            generate_gains(np.sqrt(rng.uniform(1e2, 1e6, K)), m, rng))


class TestNewtonBalance:
    @staticmethod
    def assert_equals_sweeps(kind, S, H, max_iter, Pmax=1.0):
        """solve_channel against the capped sweeps alone from equal powers,
        both stopped once a best response moves no power by POWER_TOL."""
        N, K = S.shape
        params = SystemParams(K=K, N=N, sigma2=SIGMA2, R=1e5, L=100, M=100,
                              Pmax=Pmax)
        try:
            gram, h2 = effective_gram(kind, S, H)
            engine = make_sir_engine(kind, gram, SIGMA2)
        except SingularSpreadingError:
            reject()
        sweeps = solve_from_engine(lambda p: engine(p * h2)[0], K, params,
                                   GAMMA_STAR, max_iter=max_iter)
        result = solve_channel(S, H, kind, params, MODEL, max_iter=max_iter,
                               gamma_star=GAMMA_STAR)
        assert result.clamped_users == sweeps.clamped_users
        if not result.clamped_users:
            assert result.converged
            # one more best response leaves the powers where they are
            response = (result.powers * GAMMA_STAR
                        / engine(result.powers * h2)[0])
            assert (np.max(np.abs(response / result.powers - 1.0))
                    < 1.001 * POWER_TOL)
        if not sweeps.converged:
            return  # sweeps too slow to settle within max_iter
        np.testing.assert_allclose(
            result.powers, sweeps.powers,
            rtol=settle_rtol(engine, result, h2, GAMMA_STAR))
        return result, sweeps

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(systems())
    def test_newton_equals_capped_sweeps(self, system):
        self.assert_equals_sweeps(*system, max_iter=5000)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(annulus_systems())
    def test_capped_newton_equals_capped_sweeps(self, system):
        # draws that end with users at Pmax, where every pass steps on the
        # capped map: the same clamped set as the sweeps, and where they
        # settle, the same powers to the settle bound and converged flag
        kind, S, H = system
        N, K = S.shape
        params = SystemParams(K=K, N=N, sigma2=SIGMA2, R=1e5, L=100, M=100,
                              Pmax=CAPPED_PMAX)
        assume(solve_channel(S, H, kind, params, MODEL, max_iter=5000,
                             gamma_star=GAMMA_STAR).clamped_users)
        settled = self.assert_equals_sweeps(kind, S, H, 5000, CAPPED_PMAX)
        if settled:
            result, sweeps = settled
            assert result.converged == sweeps.converged

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(overloaded_mmse())
    def test_overloaded_mmse_equals_capped_sweeps(self, system):
        # below MMSE's load limit 1 + 1/gamma* (~1.15) but with K > N, where
        # early Newton steps can leave (0, Pmax)
        self.assert_equals_sweeps(MMSE, *system, max_iter=20000)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(systems(), st.sampled_from([5e-16, 1e-200, 1e-300, 1e-320,
                                       1e298]),
           st.sampled_from([1.0, 1e-15, 1e-300, 1e300]),
           st.sampled_from([1, 3, 500]))
    def test_no_error_escapes_a_newton_step(self, system, sigma2, Pmax,
                                            max_iter):
        # the CLI solves under errstate(raise); neither the start nor a pass
        # may raise a floating-point error: a step that breaks down is not
        # taken, and a best response that overflows is capped at Pmax. MMSE
        # draws reach twice the load limit 1 + 1/gamma*, where the
        # large-system start does not exist
        kind, S, H = system
        N, K = S.shape
        params = SystemParams(K=K, N=N, sigma2=sigma2, R=1e5, L=100, M=100,
                              Pmax=Pmax)
        try:
            gram, h2 = effective_gram(kind, S, H)
            engine = make_sir_engine(kind, gram, sigma2)
        except PowerGameError:
            reject()
        try:
            with np.errstate(all="raise"):
                start = _newton_start(kind, S, H, gram, h2, params,
                                      GAMMA_STAR)
                result = _balance(engine, start, h2, params, GAMMA_STAR,
                                  max_iter, kind)
        except PowerGameError:
            return  # a zero SIR or a singular MMSE system, named
        assert np.all((result.powers > 0) & (result.powers <= Pmax))
        assert 0 <= result.iterations <= max_iter
        # and solve_channel takes that start and those passes, under the
        # errstate the CLI sets
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            again = solve_channel(S, H, kind, params, MODEL, max_iter,
                                  GAMMA_STAR)
        assert np.array_equal(again.powers, result.powers)
        assert again.iterations == result.iterations


# (receiver, N, K) of the scale-covariance solves: MF, DE and MMSE below
# their load limits, MMSE with more users than chips, and MMSE past
# LEAF_ROWS users, where its directions are Neumann series
SCALED_SOLVES = [(MF, 100, 12), (DE, 100, 50), (MMSE, 100, 58),
                 (MMSE, 20, 22), (MMSE, 200, 100)]


class TestScaleCovariance:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.sampled_from(SCALED_SOLVES), st.integers(0, 2 ** 16 - 1),
           st.sampled_from([-20, 20]))
    def test_powers_scale_with_noise_and_cap(self, case, t, exponent):
        # the solver holds no absolute power or noise level: sigma2 and Pmax
        # both scaled by a power of two scale every power by exactly that,
        # and leave the SIRs, the passes and the clamped set as they were
        kind, N, K = case
        realization = draw_realization(trial_rng(0, 11, N, K, t), N, K)
        scale = 2.0 ** exponent
        params = make_params(K=K, N=N)
        base, scaled = (
            solve_equilibrium(realization, kind, p, MODEL,
                              gamma_star=GAMMA_STAR)
            for p in (params, params._replace(sigma2=params.sigma2 * scale,
                                              Pmax=params.Pmax * scale)))
        assert np.array_equal(scaled.powers, base.powers * scale)
        assert np.array_equal(scaled.sirs, base.sirs)
        assert ((scaled.iterations, scaled.converged, scaled.clamped_users)
                == (base.iterations, base.converged, base.clamped_users))


class TestFeasibilityImpliesConvergence:
    @pytest.mark.parametrize("Pmax", [1.0, 1e8, 1e12, 1e16])
    @pytest.mark.parametrize("N,K", [(100, 8), (100, 12)])
    def test_feasible_matched_filter_draws_converge(self, N, K, Pmax):
        # an MF draw with rho(g* B) < 1 has the uncapped balance
        # (Id - g* B)^-1 g* sigma2 / G_kk; where that lies below Pmax h2 it
        # is the equilibrium (Yates 1995), so the solve converges to it
        # with no user at Pmax, however far above it Pmax lies. 196 of the
        # 200 draws at K = 8 qualify and 170 at K = 12, at every Pmax
        params = make_params(K=K, N=N, Pmax=Pmax)
        feasible = 0
        for u in range(200):
            realization = draw_realization(trial_rng(0, 13, N, K, u), N, K)
            gram, h2 = effective_gram(MF, realization.S, realization.H)
            engine = make_sir_engine(MF, gram, params.sigma2)
            step = GAMMA_STAR * engine(h2)[1]()
            if max(abs(np.linalg.eigvals(step))) >= 1.0:
                continue
            balance = np.linalg.solve(np.eye(K) - step, GAMMA_STAR
                                      * params.sigma2 / gram.diagonal())
            if not np.all(balance < Pmax * h2):
                continue
            feasible += 1
            result = solve_equilibrium(realization, MF, params, MODEL,
                                       gamma_star=GAMMA_STAR)
            assert result.converged and not result.clamped_users, u
            np.testing.assert_allclose(
                result.powers, balance / h2,
                rtol=settle_rtol(engine, result, h2, GAMMA_STAR))
        assert feasible >= 150

    @pytest.mark.parametrize("N,K", [(100, 8), (100, 16), (200, 30)])
    def test_annulus_matched_filter_draws_settle_fast(self, N, K):
        # users over the annulus 10 to 1000 m, the far ones at Pmax: from
        # the noise-only start every matched-filter step, cut at Pmax where
        # it passes it, lies at or above the capped balance, so each of
        # 300 draws settles within a few steps (at most 3, 7 and 8 passes).
        # ~0.4 s in all
        params = make_params(K=K, N=N)
        for t in range(300):
            realization = annulus_realization(trial_rng(0, 11, N, K, t), N, K)
            result = solve_equilibrium(realization, MF, params, MODEL,
                                       gamma_star=GAMMA_STAR)
            assert result.converged and result.iterations <= 10, t


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class TestRerunDeterminism:
    @PROPERTY
    @given(st.sampled_from(["sweep", "admission"]),
           st.integers(0, 2 ** 64 - 1), st.integers(1, 80),
           st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    def test_same_config_gives_same_bytes(self, sub, seed, trials, antennas):
        if sub == "admission":
            antennas = antennas[:1]  # no antenna column: one count only
        argv = [sub, "--seed", str(seed), "--trials", str(trials),
                "--antennas", ",".join(map(str, antennas)),
                "--set", "N=20"]
        code, first = _cli_stdout(argv)
        assert code == 0 and first.count("\n") > 1
        assert _cli_stdout(argv) == (code, first)


# ordinary and extreme values for some --set keys and every shortcut flag,
# plus malformed text of which an example takes at most one; trials stays
# at most 5 so that every example is cheap
SET_VALUES = {
    "K": ["1", "2", "30", "150"],
    "N": ["1", "3", "100", "300"],
    "L": ["1", "100", "200"],
    "M": ["1", "2", "6", "7", "5000"],
    "sigma2": ["5e-16", "1e-200", "1e-300", "1e-320", "1e300"],
    "R": ["1e5", "1e-300", "1e308"],
    "Pmax": ["1", "1e-15", "1e-300", "1e300"],
    "distance": ["100", "1e-3", "1e-200", "1e200"],
    "d_min": ["10", "999", "1e-200"],
    "d_max": ["1000", "11", "1e300"],
    "eff": ["exp", "bpsk"],
    "mode": ["noncoop", "pareto", "both"],
    "n_grid": ["25", "13,50", "2"],
    "max_iter": ["1", "50", "500"],
    "alpha": ["0.07", "1e-9", "0.5", "1.1", "5"],
}
FLAGS = {
    "--seed": ["0", "7", "18446744073709551615"],
    "--receiver": ["MF", "DE", "MMSE", "all"],
    "--antennas": ["1", "2", "1,2", "1,2,4"],
    "--alpha-range": ["0.05:0.3:0.05", "0.1:0.1:0.1", "0.5:1.2:0.35"],
}
MALFORMED = [
    ("--set", "K=x"), ("--set", "N=-2"), ("--set", "sigma2=0"),
    ("--set", "sigma2=nan"), ("--set", "distance=inf"), ("--set", "d_max=5"),
    ("--set", "eff=qam"), ("--set", "mode=coop"), ("--set", "n_grid=25,25"),
    ("--set", "max_iter=0"), ("--set", "alpha=-1"), ("--set", "bogus=1"),
    ("--set", "novalue"), ("--seed", "-1"), ("--seed", "abc"), ("--seed", ""),
    ("--trials", "0"), ("--trials", "abc"), ("--receiver", "XX"),
    ("--antennas", "1,1"), ("--antennas", "0"), ("--antennas", "a"),
    ("--alpha-range", "0.3:0.1:0.1"), ("--alpha-range", "1:2"),
    ("--antennas", "-1,2"), ("--alpha-range", "-0.5:0.5:0.1"),
    # argv argparse itself rejects: a stray word, a flag without its value,
    # an unknown flag
    ("bogus",), ("--seed",), ("--nope", "1"),
]


@st.composite
def invocations(draw):
    argv = [draw(st.sampled_from(sorted(cli.SUBCOMMANDS))), "--trials",
            draw(st.sampled_from(["1", "2", "5"]))]
    for key in draw(st.lists(st.sampled_from(sorted(SET_VALUES)), min_size=1,
                             max_size=4, unique=True)):
        argv += ["--set", f"{key}={draw(st.sampled_from(SET_VALUES[key]))}"]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=3,
                              unique=True)):
        argv += [flag, draw(st.sampled_from(FLAGS[flag]))]
    if draw(st.integers(0, 3)) == 3:
        argv += draw(st.sampled_from(MALFORMED))
    return argv


class TestCliContract:
    """Every invocation ends in a documented exit code: one stderr line and
    no stdout for an error, a finite table otherwise. In process only."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(invocations())
    # a singular K x K MMSE system, and malformed command lines, which
    # once ended in a traceback and in argparse's usage block
    @example(["equilibrium", "--set", "N=3", "--set", "sigma2=1e-200"])
    @example(["sweep", "--trials", "abc"])
    @example(["bogus"])
    @example(["sweep", "--seed"])
    @example(["sweep", "--nope", "1"])
    def test_exit_code_and_output(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3, 4)
        if code in (1, 2, 3):
            assert out == ""
            assert err.endswith("\n") and len(err.splitlines()) == 1
        else:
            assert len(out.splitlines()) >= 2  # a header and a row
            assert not re.search(r"\b(nan|inf)\b", out)
