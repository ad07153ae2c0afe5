"""Property tests: the whole-vector SIR engines against the per-user oracle,
filter scale invariance and byte-identical CLI reruns.

receiver_filter + output_sir build each user's filter from an N x N (or
mN x mN) system and stay the independent reference; the engines, including
the K x K MMSE form, must reproduce them on arbitrary draws, overloaded
(K > N) ones included.
"""

import contextlib
import io

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from powergame import cli
from powergame.exceptions import SingularSpreadingError
from powergame.system import (ReceiverKind, effective_system, generate_gains,
                              generate_spreading, make_sir_engine, mmse_sirs,
                              output_sir, receiver_filter)

MF = ReceiverKind.MATCHED_FILTER
MMSE = ReceiverKind.MMSE
SIGMA2 = 5e-16
RTOL = 1e-9

# derandomized so that tier-1 runs the same examples every time
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def draws(draw, m=1, max_load=2.0):
    """(S, H, p): N x K chips, m x K gains and K powers from one seed."""
    N = draw(st.integers(2, 24))
    K = draw(st.integers(1, int(max_load * N)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    S = generate_spreading(N, K, rng)
    # distances 30..300 m spread the received powers over ~4 decades
    H = generate_gains(rng.uniform(30.0, 300.0, K), m, rng)
    p = 10.0 ** rng.uniform(-8.0, -4.0, K)
    return S, H, p


def oracle_sirs(kind, S, heff, p):
    K = S.shape[1]
    return np.array([
        output_sir(receiver_filter(kind, k, S, heff, p, SIGMA2),
                   k, S, heff, p, SIGMA2)
        for k in range(K)])


class TestMmseKernel:
    @PROPERTY
    @given(draws())
    def test_engine_and_kernel_match_oracle(self, draw):
        S, H, p = draw
        ref = oracle_sirs(MMSE, S, H[0], p)
        engine = make_sir_engine(MMSE, S, H[0] ** 2, SIGMA2)
        np.testing.assert_allclose(engine(p), ref, rtol=RTOL)
        np.testing.assert_allclose(mmse_sirs(S, H[0], p, SIGMA2), ref,
                                   rtol=RTOL)

    @PROPERTY
    @given(draws(m=2), st.sampled_from([MF, MMSE]))
    def test_stacked_two_antennas_match_oracle(self, draw, kind):
        # stacked columns have squared norm hbar2, not 1, which exercises
        # the matched filter's own-norm term s_k's_k
        S, H, p = draw
        Sbar, h2 = effective_system(kind, S, H)
        np.testing.assert_allclose(make_sir_engine(kind, Sbar, h2, SIGMA2)(p),
                                   oracle_sirs(kind, Sbar, np.sqrt(h2), p),
                                   rtol=RTOL)


class TestEngineEquivalences:
    @PROPERTY
    @given(draws(), st.sampled_from([MF, MMSE]))
    def test_one_antenna_stack_equals_single_antenna(self, draw, kind):
        # a stack of one antenna, built here because effective_system keeps
        # (S, h^2) at m = 1; its columns have squared norm h^2, not 1
        S, H, p = draw
        Sbar = H[0] * S
        stacked = make_sir_engine(kind, Sbar, np.ones(S.shape[1]), SIGMA2)(p)
        np.testing.assert_allclose(
            stacked, make_sir_engine(kind, S, H[0] ** 2, SIGMA2)(p), rtol=RTOL)

    @PROPERTY
    @given(draws(), st.sampled_from([MF, MMSE]), st.randoms())
    def test_user_permutation(self, draw, kind, random):
        S, H, p = draw
        perm = np.array(random.sample(range(S.shape[1]), S.shape[1]))
        h2 = H[0] ** 2
        sirs = make_sir_engine(kind, S, h2, SIGMA2)(p)
        permuted = make_sir_engine(kind, S[:, perm], h2[perm], SIGMA2)(p[perm])
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


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class TestRerunDeterminism:
    @PROPERTY
    @given(st.sampled_from(["sweep", "admission"]),
           st.integers(0, 2 ** 64 - 1), st.integers(1, 80),
           st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
           st.sampled_from(["amplitude", "mean_square"]))
    def test_same_config_gives_same_bytes(self, sub, seed, trials, antennas,
                                          semantics):
        argv = [sub, "--seed", str(seed), "--trials", str(trials),
                "--antennas", ",".join(map(str, antennas)),
                "--set", f"gain_mean_semantics={semantics}",
                "--set", "N=20"]
        code, first = _cli_stdout(argv)
        assert code == 0 and first.count("\n") > 1
        assert _cli_stdout(argv) == (code, first)
