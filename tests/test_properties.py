"""Property tests: the whole-vector SIR engines and sir_per_watt against the
per-user oracle, filter scale invariance, the MMSE receiver's optimality,
the Newton equilibrium against the capped sweeps, byte-identical CLI reruns
and the CLI's exit-code contract.

receiver_filter + output_sir build each user's filter from an N x N (or
mN x mN) system and stay the independent reference; the engines, including
the K x K MMSE form, must reproduce them on arbitrary draws, overloaded
(K > N) ones included.
"""

import contextlib
import io
import re
from random import Random

import numpy as np
from hypothesis import example, given, reject, settings, strategies as st

from powergame import cli
from powergame.asymptotic import feasibility_bound
from powergame.efficiency import (EfficiencyKind, EfficiencyModel,
                                  solve_gamma_star)
from powergame.exceptions import (PowerGameError, SingularSpreadingError,
                                  SolverError)
from powergame.game import (POWER_TOL, _newton_balance, _newton_start,
                            solve_channel, solve_from_engine)
from powergame.system import (ReceiverKind, SystemParams, effective_system,
                              generate_gains, generate_spreading,
                              make_sir_engine, mmse_sirs, output_sir,
                              receiver_filter, sir_per_watt)

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
        engine = make_sir_engine(MMSE, S, SIGMA2)
        np.testing.assert_allclose(engine(p * H[0] ** 2)[0], ref, rtol=RTOL)
        np.testing.assert_allclose(mmse_sirs(S, H[0], p, SIGMA2), ref,
                                   rtol=RTOL)

    @PROPERTY
    @given(draws(m=2), st.sampled_from([MF, MMSE]))
    def test_stacked_two_antennas_match_oracle(self, draw, kind):
        # stacked columns have squared norm hbar2, not 1, which exercises
        # the matched filter's own-norm term s_k's_k
        S, H, p = draw
        Sbar, h2 = effective_system(kind, S, H)
        np.testing.assert_allclose(
            make_sir_engine(kind, Sbar, SIGMA2)(p * h2)[0],
            oracle_sirs(kind, Sbar, np.sqrt(h2), p), rtol=RTOL)


class TestEngineEquivalences:
    @PROPERTY
    @given(draws(), st.sampled_from([MF, MMSE]))
    def test_one_antenna_stack_equals_single_antenna(self, draw, kind):
        # a stack of one antenna, built here because effective_system keeps
        # (S, h^2) at m = 1; its columns have squared norm h^2, not 1
        S, H, p = draw
        Sbar = H[0] * S
        stacked = make_sir_engine(kind, Sbar, SIGMA2)(p)[0]
        np.testing.assert_allclose(
            stacked, make_sir_engine(kind, S, SIGMA2)(p * H[0] ** 2)[0],
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
        sirs = make_sir_engine(kind, S, SIGMA2)(p * h2)[0]
        permuted = make_sir_engine(kind, S[:, perm], SIGMA2)(
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
        Sbar, h2 = effective_system(kind, S, H)
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
        Sbar, h2 = effective_system(MMSE, S, H)
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


class TestNewtonBalance:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(systems())
    def test_newton_equals_capped_sweeps(self, system):
        kind, S, H = system
        N, K = S.shape
        params = SystemParams(K=K, N=N, sigma2=SIGMA2, R=1e5, L=100, M=100,
                              Pmax=1.0)
        Sbar, h2 = effective_system(kind, S, H)
        try:
            engine = make_sir_engine(kind, Sbar, SIGMA2)
        except SingularSpreadingError:
            reject()
        sweeps = solve_from_engine(lambda p: engine(p * h2)[0], K, params,
                                   GAMMA_STAR, max_iter=5000)
        result = solve_channel(S, H, kind, params, MODEL, max_iter=5000,
                               gamma_star=GAMMA_STAR)
        if sweeps.clamped_users:
            # a user at Pmax: the fallback runs the very same sweeps
            assert result.iterations == sweeps.iterations
            assert np.array_equal(result.powers, sweeps.powers)
            return
        assert result.converged and not result.clamped_users
        # one more best response leaves the Newton powers where they are
        response = result.powers * GAMMA_STAR / engine(result.powers * h2)[0]
        assert np.max(np.abs(response / result.powers - 1.0)) < 1.001 * POWER_TOL
        if not sweeps.converged:
            return  # sweeps too slow to settle within 5000
        # both stop once a best response moves no power by POWER_TOL, which
        # leaves each within POWER_TOL / (1 - rho) of the fixed point, rho
        # being the spectral radius of the balance's Jacobian there
        _, jacobian = engine(result.powers * h2)
        rho = 0.0 if jacobian is None else float(
            np.max(np.abs(np.linalg.eigvals(GAMMA_STAR * jacobian()))))
        np.testing.assert_allclose(
            result.powers, sweeps.powers,
            rtol=max(1e-8, 2.0 * POWER_TOL / (1.0 - rho)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(systems(), st.sampled_from([5e-16, 1e-200, 1e-300, 1e-320]),
           st.sampled_from([1.0, 1e-15, 1e-300, 1e300]),
           st.sampled_from([1, 3, 500]))
    def test_no_error_escapes_a_newton_step(self, system, sigma2, Pmax,
                                            max_iter):
        # the CLI solves under errstate(raise); neither the start nor a step
        # that breaks down may raise: the sweeps take over instead. MMSE
        # draws reach twice the load limit 1 + 1/gamma*, where the
        # large-system start does not exist
        kind, S, H = system
        N, K = S.shape
        params = SystemParams(K=K, N=N, sigma2=sigma2, R=1e5, L=100, M=100,
                              Pmax=Pmax)
        Sbar, h2 = effective_system(kind, S, H)
        try:
            engine = make_sir_engine(kind, Sbar, sigma2)
        except PowerGameError:
            reject()
        with np.errstate(all="raise"):
            start = _newton_start(kind, S, H, Sbar, h2, params, GAMMA_STAR)
            newton = _newton_balance(engine, start, h2, Pmax, GAMMA_STAR,
                                     max_iter)
        assert start.shape == (K,)
        if newton is None:
            return  # the sweeps' own arithmetic is not under test here
        powers, sirs, steps, _ = newton
        assert np.all((powers > 0) & (powers <= Pmax))
        assert 0 <= steps <= max_iter
        # and solve_channel takes that start and those steps, under the
        # errstate the CLI sets
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = solve_channel(S, H, kind, params, MODEL, max_iter,
                                   GAMMA_STAR)
        assert np.array_equal(result.powers, powers)
        assert result.iterations == steps


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
