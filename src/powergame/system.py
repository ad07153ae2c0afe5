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
from enum import Enum
from typing import Callable

import numpy as np

from .efficiency import EfficiencyModel, eff_value
from .exceptions import SingularSpreadingError

COND_LIMIT = 1e12  # condition estimate above which S'S is declared singular


class ReceiverKind(Enum):
    MATCHED_FILTER = "MF"
    DECORRELATOR = "DE"
    MMSE = "MMSE"


@dataclass(frozen=True)
class SystemParams:
    """Static system parameters.

    K      number of users
    N      processing gain (spreading sequence length)
    sigma2 noise power, W
    R      transmission rate, bits/s
    L      information bits per packet
    M      total bits per packet (L <= M)
    Pmax   transmit power cap, W
    m      receive antennas
    """

    K: int
    N: int
    sigma2: float
    R: float
    L: int
    M: int
    Pmax: float
    m: int = 1

    def __post_init__(self):
        if self.K < 1 or self.N < 1 or self.m < 1:
            raise ValueError("K, N and m must be positive integers")
        if self.L < 1 or self.M < 1 or self.L > self.M:
            raise ValueError(f"need 1 <= L <= M, got L={self.L}, M={self.M}")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.sigma2, self.R, self.Pmax)):
            raise ValueError("sigma2, R and Pmax must be positive and finite")


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
        if np.any(self.H <= 0):
            raise ValueError("all channel gains must be strictly positive")


def generate_spreading(N: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an N x K matrix of i.i.d. +-1/sqrt(N) chips (unit-norm columns)."""
    if N < 1 or K < 1:
        raise ValueError("N and K must be positive")
    chips = rng.integers(0, 2, size=(N, K)) * 2 - 1
    return chips / np.sqrt(N)


def rayleigh_scale(distances, mean_semantics: str = "amplitude") -> np.ndarray:
    """Rayleigh scale per user from distance d through the 0.3/d^2 law.

    With ``mean_semantics="amplitude"`` the amplitude mean E[h] equals
    0.3/d^2 (Rayleigh mean = scale * sqrt(pi/2)); with ``"mean_square"`` the
    power mean E[h^2] equals 0.3/d^2 instead (E[h^2] = 2 scale^2).
    """
    d = np.asarray(distances, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distances must be strictly positive")
    mean = 0.3 / d ** 2
    if mean_semantics == "amplitude":
        return mean * np.sqrt(2.0 / np.pi)
    if mean_semantics == "mean_square":
        return np.sqrt(mean / 2.0)
    raise ValueError(f"unknown mean_semantics {mean_semantics!r}")


def generate_gains(distances, m: int, rng: np.random.Generator,
                   mean_semantics: str = "amplitude") -> np.ndarray:
    """Draw an m x K matrix of i.i.d. Rayleigh channel amplitude gains whose
    per-user scale follows ``rayleigh_scale``."""
    scale = rayleigh_scale(distances, mean_semantics)
    return rng.rayleigh(scale=np.broadcast_to(scale, (m, scale.size)))


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


def _zf_columns(S: np.ndarray) -> np.ndarray:
    """Inverse crosscorrelation matrix (S'S)^-1 with a rank guard."""
    N, K = S.shape
    if K > N:
        raise SingularSpreadingError(f"decorrelator needs K <= N, got K={K}, N={N}")
    G = S.T @ S
    if np.linalg.cond(G) > COND_LIMIT:
        raise SingularSpreadingError("spreading crosscorrelation matrix is singular")
    return np.linalg.inv(G)


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
# Whole-vector evaluation. make_sir_engine is the one place each receiver's
# SIR is computed for all users at once; it returns the same numbers as
# receiver_filter + output_sir for every user. receiver_filters returns every
# user's filter. Both share the expensive factorizations so equilibrium
# sweeps and Nash checks stay fast at N ~ a few hundred.
# ---------------------------------------------------------------------------

def _mmse_system(gram: np.ndarray, rec: np.ndarray, sigma2: float) -> np.ndarray:
    """The K x K matrix G D + sigma2 I, with G = S'S and D = diag(rec)."""
    M = gram * rec  # scales column j by rec_j
    M.flat[::M.shape[0] + 1] += sigma2
    return M


def make_sir_engine(kind: ReceiverKind, S: np.ndarray, h2: np.ndarray,
                    sigma2: float) -> Callable[[np.ndarray], np.ndarray]:
    """Return a powers -> SIRs function for one realization (S, h2, sigma2),
    h2 being the squared channel gains.

    The power-independent pieces are built once, here, and every call then
    costs one K-vector update (MF, DE) or one K x K solve (MMSE). With
    rec = p h^2:

    * matched filter: gamma_k = rec_k (s_k's_k)^2 /
      (sigma2 s_k's_k + sum_{j!=k} rec_j (s_k's_j)^2), from the squared
      crosscorrelations and the own norms s_k's_k (1 for unit-norm columns,
      hbar2 for stacked antenna signatures);
    * decorrelator: gamma_k = rec_k / (sigma2 [(S'S)^-1]_kk);
    * MMSE: rank-one downdate. With A = S D S' + sigma2 I, D = diag(rec)
      (all users included), s_k' A_k^-1 s_k = q_k / (1 - rec_k q_k) where
      q_k = s_k' A^-1 s_k. The push-through identity
      A^-1 S = S (D G + sigma2 I)^-1 with G = S'S gives
      S' A^-1 S = (G D + sigma2 I)^-1 G, so every q_k comes from one K x K
      solve instead of an N x N one.
    """
    if kind is ReceiverKind.MATCHED_FILTER:
        gram_sq = (S.T @ S) ** 2
        np.fill_diagonal(gram_sq, 0.0)
        own = np.einsum("nk,nk->k", S, S)
        own_sq, own_noise = own ** 2, sigma2 * own

        def sirs(p):
            rec = np.asarray(p, float) * h2
            return rec * own_sq / (own_noise + gram_sq @ rec)
        return sirs
    if kind is ReceiverKind.DECORRELATOR:
        noise = sigma2 * np.diag(_zf_columns(S))
        return lambda p: np.asarray(p, float) * h2 / noise
    gram = S.T @ S

    def sirs(p):
        rec = np.asarray(p, float) * h2
        q = np.diagonal(np.linalg.solve(_mmse_system(gram, rec, sigma2), gram))
        ratio = rec * q  # equals gamma/(1+gamma), always in [0, 1)
        return ratio / (1.0 - ratio)
    return sirs


def matched_filter_sirs(S, heff, p, sigma2) -> np.ndarray:
    """SIRs of all users under per-user matched filtering."""
    return make_sir_engine(ReceiverKind.MATCHED_FILTER, S, np.square(heff), sigma2)(p)


def decorrelator_sirs(S, heff, p, sigma2) -> np.ndarray:
    """SIRs under zero-forcing: gamma_k = p_k h_k^2 / (sigma2 [(S'S)^-1]_kk)."""
    return make_sir_engine(ReceiverKind.DECORRELATOR, S, np.square(heff), sigma2)(p)


def mmse_sirs(S, heff, p, sigma2) -> np.ndarray:
    """SIRs of all users under per-user MMSE filtering (one K x K solve)."""
    return make_sir_engine(ReceiverKind.MMSE, S, np.square(heff), sigma2)(p)


def receiver_filters(kind: ReceiverKind, S, h2, p, sigma2) -> np.ndarray:
    """Every user's receiver filter at once, as the columns of an N x K matrix.

    Column k is parallel to receiver_filter(kind, k, ...), which is all the
    output SIR depends on. Matched filter: S itself (not a copy).
    Decorrelator: S (S'S)^-1, one rank guard for all users. MMSE: A^-1 S with
    the full A = S D S' + sigma2 I, D = diag(p h2), computed as
    S (D G + sigma2 I)^-1 (push-through, G = S'S) from one K x K solve; by
    Sherman-Morrison A^-1 s_k = A_k^-1 s_k / (1 + p_k h_k^2 s_k' A_k^-1 s_k),
    a positive multiple of the per-user filter.
    """
    if kind is ReceiverKind.MATCHED_FILTER:
        return S
    if kind is ReceiverKind.DECORRELATOR:
        return S @ _zf_columns(S)
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative for the MMSE filter")
    rec = p * h2
    # (D G + sigma2 I)' = G D + sigma2 I since G is symmetric
    return np.linalg.solve(_mmse_system(S.T @ S, rec, sigma2), S.T).T


def utility_vs_power_curve(k: int, realization: ChannelRealization,
                           kind: ReceiverKind, other_powers, p_grid,
                           params: SystemParams, model: EfficiencyModel):
    """Utility of user k along a power grid with all other powers frozen.

    The filter is independent of the user's own power for all three receiver
    kinds (the MMSE matrix A_k excludes user k), so it is derived once from
    the frozen interference and reused across the grid. Any antenna count:
    the filter plays on effective_system, with sqrt(h2) exactly h at m = 1.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any(p_grid <= 0) or np.any(np.diff(p_grid) <= 0):
        raise ValueError("power grid must be strictly positive and increasing")
    S, h2 = effective_system(kind, realization.S, realization.H)
    heff = np.sqrt(h2)
    powers = np.asarray(other_powers, dtype=float).copy()
    c = receiver_filter(kind, k, S, heff, powers, params.sigma2)
    curve = []
    for p_k in p_grid:
        powers[k] = p_k
        g = output_sir(c, k, S, heff, powers, params.sigma2)
        curve.append((float(p_k), utility(float(p_k), g, params, model)))
    return curve
