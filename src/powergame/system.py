"""Finite-dimension uplink model: spreading, gains, linear receivers, SIR.

The received chip vector is r = sum_k sqrt(p_k) h_k b_k s_k + w with unit-norm
random spreading sequences s_k (entries +-1/sqrt(N)) and white noise of power
sigma2 per chip. A linear receiver c for user k sees

    gamma_k = p_k h_k^2 (c's_k)^2 / (sigma2 c'c + sum_{j!=k} p_j h_j^2 (c's_j)^2)

which is what everything below computes. No symbol-level noise is ever drawn;
all results are deterministic functions of (S, h, p, sigma2).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

import numpy as np

from .config import ReceiverKind, SystemParams
from .efficiency import EfficiencyModel, eff_value
from .exceptions import Record, SingularSpreadingError, SolverError

COND_LIMIT = 1e12  # 1-norm condition number above which S'S is declared singular
LEAF_ROWS = 64  # _inverse calls LAPACK's inv at or below this many rows


class ChannelRealization(Record, namedtuple("ChannelRealization",
                                            "S H distances")):
    """One draw, an immutable named tuple of float arrays: N x K spreading
    S (unit-norm columns), m x K gains H, each positive and finite, and K
    distances in m. Its own __new__, which _make and _replace run too,
    converts and checks in one call, as the drivers build one per trial."""

    __slots__ = ()

    def __new__(cls, S, H, distances):
        S = np.asarray(S, dtype=float)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        if S.shape[1] != H.shape[1]:
            raise ValueError("S and H disagree on the number of users")
        if not 0.0 < H.min() <= H.max() < math.inf:  # NaN fails both
            raise ValueError("all channel gains must be positive and finite")
        return tuple.__new__(cls, (S, H, np.asarray(distances, dtype=float)))


def generate_spreading(N: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an N x K matrix of i.i.d. +-1/sqrt(N) chips (unit-norm columns).

    Chip i, in C order, is bit 31 of the i-th little-endian 32-bit half of
    rng.bit_generator.random_raw(ceil(N K / 2)): 0 -> -1/sqrt(N) and
    1 -> +1/sqrt(N), written straight into the float's sign bit. A bit
    generator's raw stream is fixed across numpy releases, where Generator
    methods' streams may change (NEP 19). For PCG64, which hands out the low
    half of a word first, these are exactly the bytes of
    rng.integers(0, 2, (N, K)) from a generator holding no buffered 32-bit
    half: Lemire's method never rejects at range 2. Every later 64-bit draw
    (rayleigh, random) matches too. For odd N K, integers would keep the
    last word's high half buffered for the next 32-bit draw and random_raw
    does not; no draw in powergame takes 32 bits after the chips. MT19937,
    whose raw words carry 32 bits, is refused.
    """
    if N < 1 or K < 1:
        raise ValueError("N and K must be positive")
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("generate_spreading needs 64-bit raw words; "
                         "MT19937 yields 32")
    n = N * K
    words = rng.bit_generator.random_raw((n + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")[:n]
    halves &= 0x80000000
    bits = halves.astype(np.uint64)
    bits <<= 32
    # the sign bit set for chip 0: -1/sqrt(N)'s bits with it flipped for 1
    bits ^= np.float64(-1.0 / np.sqrt(N)).view(np.uint64)
    return bits.view(np.float64).reshape(N, K)


def rayleigh_scale(distances) -> np.ndarray:
    """Rayleigh scale per user from distance d: the amplitude mean E[h]
    equals 0.3/d^2 (Rayleigh mean = scale * sqrt(pi/2))."""
    d = np.asarray(distances, dtype=float)
    if not 0.0 < d.min() <= d.max() < math.inf:  # NaN fails both
        raise ValueError("distances must be positive and finite")
    return 0.3 / d ** 2 * math.sqrt(2.0 / math.pi)


def generate_gains(distances, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an m x K matrix of i.i.d. Rayleigh channel amplitude gains whose
    per-user scale follows ``rayleigh_scale``: one unit-scale draw times the
    scales, numpy's draw at those scales (scale * sqrt(2 E)) bit for bit."""
    scale = rayleigh_scale(distances)
    return scale * rng.rayleigh(size=(m, scale.size))


def effective_gram(kind: ReceiverKind, S, H) -> tuple[np.ndarray, np.ndarray]:
    """The single-antenna game that m receive antennas play: (gram, h2).

    User k's chips on the m antennas stack into sbar_k = [h_1k s_k', ...,
    h_mk s_k']', seen by every receiver only through sbar_j'sbar_k =
    (s_j's_k) sum_l h_lj h_lk: MF (despread plus maximal ratio combining)
    and MMSE play on (S'S) o (H'H) with unit gains (Hanly and Tse, IEEE
    Trans. IT 2001). The decorrelator knows nothing of the interferers'
    gains: it zero-forces per antenna on S and combines with MRC weights,
    i.e. plays on (S'S, hbar2), hbar2_k = sum_l h_lk^2, and needs K <= N.
    """
    S = np.asarray(S, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    (N, K), m = S.shape, H.shape[0]
    if H.shape[1] != K:
        raise ValueError("S and H disagree on the number of users")
    if kind is ReceiverKind.DECORRELATOR and K > N:
        raise SingularSpreadingError(f"decorrelator needs K <= N, got K={K}, N={N}")
    # the Hadamard form at one antenna would move every float by an ulp
    if m == 1 or kind is ReceiverKind.DECORRELATOR:
        return S.T @ S, (H ** 2).sum(axis=0)
    return (S.T @ S) * (H.T @ H), np.ones(K)


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# numpy.linalg's own error state: overflow gives inf, an invalid operation
# means the matrix is singular, and the caller's np.errstate does not apply
_LINALG_ERRSTATE = dict(over="ignore", divide="ignore", under="ignore",
                       invalid="call", call=_singular)


def _inverse(M: np.ndarray) -> np.ndarray:
    """M^-1 of a square M: LAPACK's inv up to LEAF_ROWS rows, block
    elimination above, where BLAS matrix products beat one inv (at K = 100
    ~240 against ~380 us on one OpenBLAS thread).

    With M = [[A, B], [C, D]] split at half its rows, X = A^-1 B,
    Y = C A^-1 and the Schur complement Z = D - C X,
    M^-1 = [[A^-1 + X Z^-1 Y, -X Z^-1], [-Z^-1 Y, Z^-1]]: two half-size
    inverses by recursion and six half-size products. No pivoting crosses
    the split, which is stable for S'S (symmetric positive definite) and for
    G D + sigma2 I (SPD times a positive diagonal; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 13). Floats can differ from
    inv's in the last digits. LinAlgError comes from a singular leaf block
    or an invalid operation; a singular M with regular halves can instead
    return huge entries, which _zf_columns's condition-number guard rejects.
    """
    n = M.shape[0]
    if n <= LEAF_ROWS:
        return np.linalg.inv(M)
    h = n // 2
    with np.errstate(**_LINALG_ERRSTATE):
        A_inv = _inverse(M[:h, :h])
        X = A_inv @ M[:h, h:]
        Y = M[h:, :h] @ A_inv
        Z_inv = _inverse(M[h:, h:] - M[h:, :h] @ X)
        out = np.empty_like(M)
        out[h:, h:] = Z_inv
        np.negative(X @ Z_inv, out=out[:h, h:])
        np.negative(Z_inv @ Y, out=out[h:, :h])
        np.subtract(A_inv, out[:h, h:] @ Y, out=out[:h, :h])
    return out


def _zf_columns(gram: np.ndarray) -> np.ndarray:
    """Inverse crosscorrelation matrix gram^-1, gram = S'S, with a rank guard.

    The guard reads the 1-norm condition number |G|_1 |G^-1|_1 off the
    inverse it returns, with no SVD. G is symmetric, so its 2-norm
    condition number k2 obeys k2 <= k1 <= K k2: the guard rejects every
    draw a k2 guard at COND_LIMIT would, and an exactly singular or NaN G.
    """
    singular = "spreading crosscorrelation matrix is singular"
    try:
        inverse = _inverse(gram)
    except np.linalg.LinAlgError:
        raise SingularSpreadingError(singular) from None
    with np.errstate(all="ignore"):  # an overflow gives inf, rejected below
        cond = abs(gram).sum(axis=0).max() * abs(inverse).sum(axis=0).max()
    if not cond <= COND_LIMIT:  # also rejects NaN
        raise SingularSpreadingError(singular)
    return inverse


def receiver_filter(kind: ReceiverKind, k: int, S: np.ndarray, heff: np.ndarray,
                    p: np.ndarray, sigma2: float) -> np.ndarray:
    """Coefficient vector of user k's receiver.

    Matched filter: c = s_k. Decorrelator: k-th column of S (S'S)^-1, which
    zero-forces all interferers. MMSE: A_k^-1 s_k with
    A_k = sum_{j!=k} p_j h_j^2 s_j s_j' + sigma2 I; the scalar prefactor of
    the textbook expression is dropped because the output SIR is invariant
    under scaling of c.
    """
    if kind is ReceiverKind.MATCHED_FILTER:
        return S[:, k].copy()
    if kind is ReceiverKind.DECORRELATOR:
        return S @ _zf_columns(effective_gram(kind, S, heff)[0])[:, k]
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative for the MMSE filter")
    w = p * np.asarray(heff, dtype=float) ** 2
    w[k] = 0.0  # A_k excludes the user's own signature, so c is free of p_k
    A = (S * w) @ S.T + sigma2 * np.eye(S.shape[0])
    return np.linalg.solve(A, S[:, k])


def output_sir(c: np.ndarray, k: int, S: np.ndarray, heff: np.ndarray,
               p: np.ndarray, sigma2: float) -> float:
    """Output SIR of user k for an arbitrary filter c (scale invariant)."""
    c = np.asarray(c, dtype=float)
    if not np.any(c):
        raise ValueError("filter vector must be nonzero")
    cross = c @ S
    rec = np.asarray(p, dtype=float) * np.asarray(heff, dtype=float) ** 2
    interference = rec * cross ** 2
    signal = interference[k]
    # zero user k's term rather than subtract it from the total: when it
    # dominates, the difference cancels and loses the filter-scale invariance
    interference[k] = 0.0
    denom = sigma2 * (c @ c) + interference.sum()
    return float(signal / denom)


def utility(p_k: float, gamma_k: float, params: SystemParams,
            model: EfficiencyModel) -> float:
    """Energy efficiency u = (L/M) R f(gamma) / p in bits per joule."""
    if p_k <= 0:
        raise ValueError(f"transmit power must be positive, got {p_k}")
    return (params.L / params.M) * params.R * eff_value(model, gamma_k) / p_k


# ---------------------------------------------------------------------------
# Whole-vector evaluation: every user at once from K x K inverses (_inverse),
# never an N x N solve, so equilibrium solves and Nash checks stay fast at
# N ~ a few hundred; sir_per_watt reads each filter off its K x K weights,
# and receiver_filter + output_sir stay the per-user reference.
# ---------------------------------------------------------------------------

def _mmse_inverse(gram: np.ndarray, rec: np.ndarray,
                  sigma2: float) -> np.ndarray:
    """(G D + sigma2 I)^-1, G = S'S and D = diag(rec), by _inverse, whose
    floats can differ from a LAPACK solve's in the last digits. With K > N,
    G is rank deficient, and a noise power far below the received powers
    leaves it singular to working precision: SolverError."""
    M = gram * rec  # scales column j by rec_j
    M.flat[::M.shape[0] + 1] += sigma2
    try:
        return _inverse(M)
    except np.linalg.LinAlgError:
        raise SolverError(f"the MMSE system of K={len(rec)} users is "
                          f"singular at sigma2={sigma2:g}; raise sigma2 "
                          "or N") from None


def make_sir_engine(kind: ReceiverKind, gram: np.ndarray,
                    sigma2: float) -> Callable[[np.ndarray], tuple]:
    """Return the balance map of one realization (effective_gram's Gram
    G = S'S, sigma2): received powers rec = p h^2 -> (SIRs, dI/drec),
    I(rec) = rec / SIRs being the
    interference-plus-noise each filter sees (noise and cross terms scaled by
    the filter's own gain) and dI/drec a zero-argument callable that builds
    the K x K Jacobian on demand, or None for the decorrelator, whose I is
    constant. The equilibrium balances rec = gamma* I(rec).

    The power-independent pieces are built once, here, and every call then
    costs one K-vector update (MF, DE) or one K x K inverse (MMSE):

    * matched filter: gamma_k = rec_k (s_k's_k)^2 /
      (sigma2 s_k's_k + sum_{j!=k} rec_j (s_k's_j)^2), from the squared
      crosscorrelations and the own norms s_k's_k, G's diagonal (~1 for
      unit-norm columns, hbar2 for m antennas); I is affine, and its Jacobian
      is the constant matrix (s_k's_j)^2 / (s_k's_k)^2 off the diagonal;
    * decorrelator: gamma_k = rec_k / (sigma2 [(S'S)^-1]_kk);
    * MMSE: rank-one downdate. With A = S D S' + sigma2 I, D = diag(rec)
      (all users included), s_k' A_k^-1 s_k = q_k / (1 - rec_k q_k) where
      q_k = s_k' A^-1 s_k. The push-through identity
      A^-1 S = S (D G + sigma2 I)^-1 gives P = S' A^-1 S =
      M^-1 G, M = G D + sigma2 I, and G D = M - sigma2 I turns it into
      P = (I - sigma2 M^-1) D^-1: one K x K inverse, no N x N solve and no
      K x K x K product. q_k is row k of M^-1 dotted with G's, so rec_k q_k
      is 0 exactly at rec_k = 0. I_k = 1 / (s_k' A_k^-1 s_k), and by
      Sherman-Morrison its Jacobian is (P_kj / q_k)^2 off the diagonal
      (Ulukus and Yates, Wireless Networks 1998).
    """
    if kind is ReceiverKind.MATCHED_FILTER:
        gram_sq = gram ** 2
        np.fill_diagonal(gram_sq, 0.0)
        own = gram.diagonal()
        own_sq, own_noise = own ** 2, sigma2 * own
        jacobian = gram_sq / own_sq[:, None]

        def balance(rec):
            return rec * own_sq / (own_noise + gram_sq @ rec), lambda: jacobian
    elif kind is ReceiverKind.DECORRELATOR:
        noise = sigma2 * np.diag(_zf_columns(gram))

        def balance(rec):
            return rec / noise, None
    else:
        def balance(rec):
            inverse = _mmse_inverse(gram, rec, sigma2)
            # rec_k q_k = gamma/(1+gamma), always in [0, 1); G is symmetric
            ratio = rec * np.einsum("kj,kj->k", inverse, gram)

            def jacobian():  # no factor underflows, where sigma2 / q_k can
                J = inverse * (rec / ratio)[:, None]
                J *= sigma2 / rec
                J *= J
                J.flat[::len(rec) + 1] = 0.0
                return J
            return ratio / (1.0 - ratio), jacobian
    return balance


def _sirs(kind: ReceiverKind, S, heff, p, sigma2) -> np.ndarray:
    gram, h2 = effective_gram(kind, S, heff)  # heff: one antenna's gains
    return make_sir_engine(kind, gram, sigma2)(np.asarray(p, float) * h2)[0]


def matched_filter_sirs(S, heff, p, sigma2) -> np.ndarray:
    """SIRs of all users under per-user matched filtering."""
    return _sirs(ReceiverKind.MATCHED_FILTER, S, heff, p, sigma2)


def decorrelator_sirs(S, heff, p, sigma2) -> np.ndarray:
    """SIRs under zero-forcing: gamma_k = p_k h_k^2 / (sigma2 [(S'S)^-1]_kk)."""
    return _sirs(ReceiverKind.DECORRELATOR, S, heff, p, sigma2)


def mmse_sirs(S, heff, p, sigma2) -> np.ndarray:
    """SIRs of all users under per-user MMSE filtering (one K x K inverse)."""
    return _sirs(ReceiverKind.MMSE, S, heff, p, sigma2)


def sir_per_watt(kind: ReceiverKind, S, H, powers, sigma2) -> np.ndarray:
    """Each user's output SIR per watt of its own power, the others' frozen.

    No filter depends on user k's own power, so at the others' given powers
    its SIR is p_k times entry k of this K-vector for any p_k, and the MMSE
    filter maximizes that entry over all linear filters. Any antenna count:
    S (N x K) and H (m x K) play on effective_gram's (G, h2). Filter k is
    S t_k, t_k being row k of the K x K weights T: I (MF), G^-1 (DE) or
    (G D + sigma2 I)^-1 with D = diag(p h2) (MMSE; by push-through and
    Sherman-Morrison a positive multiple of receiver_filter's A_k^-1 s_k).
    So c_k's_j = (T G)_kj and c_k'c_k = sum_j (T G)_kj T_kj.
    This never calls make_sir_engine, so the Nash check does not take the
    solver's word for the SIRs.
    """
    gram, h2 = effective_gram(kind, S, H)
    powers = np.asarray(powers, dtype=float)
    if kind is ReceiverKind.MATCHED_FILTER:
        weights = np.eye(len(h2))
    elif kind is ReceiverKind.DECORRELATOR:
        weights = _zf_columns(gram)
    elif np.any(powers < 0):
        raise ValueError("powers must be nonnegative for the MMSE filter")
    else:
        weights = _mmse_inverse(gram, powers * h2, sigma2)
    cross = gram if kind is ReceiverKind.MATCHED_FILTER else weights @ gram
    noise = sigma2 * np.einsum("kj,kj->k", cross, weights)
    X = cross ** 2  # X[k, j] = (c_k' s_j)^2
    own = np.diag(X).copy()
    np.fill_diagonal(X, 0.0)
    return h2 * own / (noise + X @ (powers * h2))
