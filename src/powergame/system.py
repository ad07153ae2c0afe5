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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import ReceiverKind, SystemParams
from .efficiency import EfficiencyModel, eff_value
from .exceptions import SingularSpreadingError, SolverError

COND_LIMIT = 1e12  # 1-norm condition number above which S'S is declared singular
LEAF_ROWS = 64  # _inverse calls LAPACK's inv at or below this many rows


@dataclass
class ChannelRealization:
    """One draw of spreading sequences and channel amplitude gains."""

    S: np.ndarray          # N x K, unit-norm columns
    H: np.ndarray          # m x K, amplitude gains
    distances: np.ndarray  # K, meters

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.distances = np.asarray(self.distances, dtype=float)
        if self.S.shape[1] != self.H.shape[1]:
            raise ValueError("S and H disagree on the number of users")
        if (self.H <= 0).any():
            raise ValueError("all channel gains must be strictly positive")


def generate_spreading(N: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an N x K matrix of i.i.d. +-1/sqrt(N) chips (unit-norm columns)
    as one integers(0, 2, (N, K)) call, 0 -> -1/sqrt(N), 1 -> +1/sqrt(N)."""
    if N < 1 or K < 1:
        raise ValueError("N and K must be positive")
    signs = np.array([-1.0, 1.0]) / np.sqrt(N)
    return signs[rng.integers(0, 2, size=(N, K))]


def rayleigh_scale(distances) -> np.ndarray:
    """Rayleigh scale per user from distance d: the amplitude mean E[h]
    equals 0.3/d^2 (Rayleigh mean = scale * sqrt(pi/2))."""
    d = np.asarray(distances, dtype=float)
    if (d <= 0).any():
        raise ValueError("distances must be strictly positive")
    return 0.3 / d ** 2 * math.sqrt(2.0 / math.pi)


def generate_gains(distances, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an m x K matrix of i.i.d. Rayleigh channel amplitude gains whose
    per-user scale follows ``rayleigh_scale``: one unit-scale draw times the
    scales, numpy's draw at those scales (scale * sqrt(2 E)) bit for bit."""
    scale = rayleigh_scale(distances)
    return scale * rng.rayleigh(size=(m, scale.size))


def effective_system(kind: ReceiverKind, S, H) -> tuple[np.ndarray, np.ndarray]:
    """The single-antenna game that m receive antennas play: (signatures, h2).

    The m antennas' chips stack into one length-mN vector carrying user k on
    sbar_k = [h_k1 s_k', ..., h_km s_k']', of squared norm
    hbar2_k = sum_l h_kl^2. The matched filter (despread plus maximal ratio
    combining) and MMSE play on these signatures with unit gains. The
    decorrelator knows nothing of the interferers' gains: it zero-forces per
    antenna on S and combines with MRC weights, i.e. plays on (S, hbar2).
    """
    S = np.asarray(S, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if S.shape[1] != H.shape[1]:
        raise ValueError("S and H disagree on the number of users")
    m, (N, K) = H.shape[0], S.shape
    # stacking one antenna would move every single-antenna float by an ulp
    if m == 1 or kind is ReceiverKind.DECORRELATOR:
        return S, (H ** 2).sum(axis=0)
    return (H[:, None, :] * S[None]).reshape(m * N, K), np.ones(K)


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


def _zf_columns(S: np.ndarray) -> np.ndarray:
    """Inverse crosscorrelation matrix (S'S)^-1 with a rank guard.

    The guard reads the 1-norm condition number |G|_1 |G^-1|_1 off the
    inverse it returns, with no SVD. G = S'S is symmetric, so its 2-norm
    condition number k2 obeys k2 <= k1 <= K k2: the guard rejects every
    draw a k2 guard at COND_LIMIT would, and an exactly singular or NaN G.
    """
    N, K = S.shape
    if K > N:
        raise SingularSpreadingError(f"decorrelator needs K <= N, got K={K}, N={N}")
    singular = "spreading crosscorrelation matrix is singular"
    G = S.T @ S
    try:
        inverse = _inverse(G)
    except np.linalg.LinAlgError:
        raise SingularSpreadingError(singular) from None
    with np.errstate(all="ignore"):  # an overflow gives inf, rejected below
        cond = abs(G).sum(axis=0).max() * abs(inverse).sum(axis=0).max()
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
        return S @ _zf_columns(S)[:, k]
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


def make_sir_engine(kind: ReceiverKind, S: np.ndarray,
                    sigma2: float) -> Callable[[np.ndarray], tuple]:
    """Return the balance map of one realization (S, sigma2): received powers
    rec = p h^2 -> (SIRs, dI/drec), I(rec) = rec / SIRs being the
    interference-plus-noise each filter sees (noise and cross terms scaled by
    the filter's own gain) and dI/drec a zero-argument callable that builds
    the K x K Jacobian on demand, or None for the decorrelator, whose I is
    constant. The equilibrium balances rec = gamma* I(rec).

    The power-independent pieces are built once, here, and every call then
    costs one K-vector update (MF, DE) or one K x K inverse (MMSE):

    * matched filter: gamma_k = rec_k (s_k's_k)^2 /
      (sigma2 s_k's_k + sum_{j!=k} rec_j (s_k's_j)^2), from the squared
      crosscorrelations and the own norms s_k's_k (1 for unit-norm columns,
      hbar2 for stacked antenna signatures); I is affine, and its Jacobian
      is the constant matrix (s_k's_j)^2 / (s_k's_k)^2 off the diagonal;
    * decorrelator: gamma_k = rec_k / (sigma2 [(S'S)^-1]_kk);
    * MMSE: rank-one downdate. With A = S D S' + sigma2 I, D = diag(rec)
      (all users included), s_k' A_k^-1 s_k = q_k / (1 - rec_k q_k) where
      q_k = s_k' A^-1 s_k. The push-through identity
      A^-1 S = S (D G + sigma2 I)^-1 with G = S'S gives P = S' A^-1 S =
      M^-1 G, M = G D + sigma2 I, and G D = M - sigma2 I turns it into
      P = (I - sigma2 M^-1) D^-1: one K x K inverse, no N x N solve and no
      K x K x K product. q_k is row k of M^-1 dotted with G's, so rec_k q_k
      is 0 exactly at rec_k = 0. I_k = 1 / (s_k' A_k^-1 s_k), and by
      Sherman-Morrison its Jacobian is (P_kj / q_k)^2 off the diagonal
      (Ulukus and Yates, Wireless Networks 1998).
    """
    if kind is ReceiverKind.MATCHED_FILTER:
        gram_sq = (S.T @ S) ** 2
        np.fill_diagonal(gram_sq, 0.0)
        own = np.einsum("nk,nk->k", S, S)
        own_sq, own_noise = own ** 2, sigma2 * own
        jacobian = gram_sq / own_sq[:, None]

        def balance(rec):
            return rec * own_sq / (own_noise + gram_sq @ rec), lambda: jacobian
    elif kind is ReceiverKind.DECORRELATOR:
        noise = sigma2 * np.diag(_zf_columns(S))

        def balance(rec):
            return rec / noise, None
    else:
        gram = S.T @ S

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


def matched_filter_sirs(S, heff, p, sigma2) -> np.ndarray:
    """SIRs of all users under per-user matched filtering."""
    return make_sir_engine(ReceiverKind.MATCHED_FILTER, S, sigma2)(
        np.asarray(p, float) * np.square(heff))[0]


def decorrelator_sirs(S, heff, p, sigma2) -> np.ndarray:
    """SIRs under zero-forcing: gamma_k = p_k h_k^2 / (sigma2 [(S'S)^-1]_kk)."""
    return make_sir_engine(ReceiverKind.DECORRELATOR, S, sigma2)(
        np.asarray(p, float) * np.square(heff))[0]


def mmse_sirs(S, heff, p, sigma2) -> np.ndarray:
    """SIRs of all users under per-user MMSE filtering (one K x K inverse)."""
    return make_sir_engine(ReceiverKind.MMSE, S, sigma2)(
        np.asarray(p, float) * np.square(heff))[0]


def sir_per_watt(kind: ReceiverKind, S, H, powers, sigma2) -> np.ndarray:
    """Each user's output SIR per watt of its own power, the others' frozen.

    No filter depends on user k's own power, so at the others' given powers
    its SIR is p_k times entry k of this K-vector for any p_k, and the MMSE
    filter maximizes that entry over all linear filters. Any antenna count:
    S (N x K) and H (m x K) play on effective_system. Filter k is S t_k,
    t_k being row k of the K x K weights T: I (MF), (S'S)^-1 (DE) or
    (G D + sigma2 I)^-1 with D = diag(p h2) (MMSE; by push-through and
    Sherman-Morrison a positive multiple of receiver_filter's A_k^-1 s_k).
    With G = S'S, c_k's_j = (T G)_kj and c_k'c_k = sum_j (T G)_kj T_kj.
    This never calls make_sir_engine, so the Nash check does not take the
    solver's word for the SIRs.
    """
    S, h2 = effective_system(kind, S, H)
    powers = np.asarray(powers, dtype=float)
    gram = S.T @ S
    if kind is ReceiverKind.MATCHED_FILTER:
        weights = np.eye(len(h2))
    elif kind is ReceiverKind.DECORRELATOR:
        weights = _zf_columns(S)
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
