import os
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from powergame.config import DEFAULT_MAX_ITER
from powergame.efficiency import EfficiencyKind, EfficiencyModel, solve_gamma_star
from powergame.exceptions import InfeasibleUserError
from powergame.game import (INITIAL_POWER_FRACTION, POWER_TOL,
                            EquilibriumResult, _result)
from powergame.system import (ChannelRealization, ReceiverKind, SystemParams,
                              generate_gains, generate_spreading,
                              sir_per_watt)

SRC = str(Path(__file__).resolve().parent.parent / "src")

BASE = dict(K=30, N=100, sigma2=5e-16, R=1e5, L=100, M=100, Pmax=1.0)


@pytest.fixture(scope="session", autouse=True)
def child_import_path():
    """Put this checkout's src first on the import path of child processes.

    pyproject's pythonpath covers the test process only; the CLI tests run
    `python -m powergame` as a child, which reads PYTHONPATH instead.
    """
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (SRC + os.pathsep + inherited if inherited
                                else SRC)
    yield
    if inherited is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = inherited


@pytest.fixture(scope="session")
def model():
    return EfficiencyModel(EfficiencyKind.EXP_APPROX, 100)


@pytest.fixture(scope="session")
def gamma_star(model):
    return solve_gamma_star(model)


@pytest.fixture(scope="session")
def params():
    return SystemParams(**BASE)


def make_params(**overrides):
    return SystemParams(**{**BASE, **overrides})


def draw_realization(rng, N, K, distance=100.0, m=1):
    S = generate_spreading(N, K, rng)
    distances = np.full(K, distance)
    H = generate_gains(distances, m, rng)
    return ChannelRealization(S=S, H=H, distances=distances)


def annulus_realization(rng, N, K):
    """N x K chips and one-antenna gains for users over the annulus 10 to
    1000 m, d^2 uniform: received powers ~8 decades apart, the far or faded
    users at Pmax."""
    S = generate_spreading(N, K, rng)
    distances = np.sqrt(rng.uniform(1e2, 1e6, K))
    return ChannelRealization(S=S, H=generate_gains(distances, 1, rng),
                              distances=distances)


def stacked_system(kind, S, H):
    """The game effective_gram describes, as signatures: the m antennas'
    chips stacked into mN x K columns sbar_k = [h_1k s_k; ...; h_mk s_k]
    with unit gains for the matched filter and MMSE at m >= 2, else
    (S, hbar2). Built antenna by antenna, it is the independent oracle for
    effective_gram's Hadamard form (S'S) o (H'H)."""
    H = np.atleast_2d(H)
    if len(H) == 1 or kind is ReceiverKind.DECORRELATOR:
        return S, (H ** 2).sum(axis=0)
    return np.vstack([S * h for h in H]), np.ones(S.shape[1])


# the sweeps alone, from equal powers and with no Newton step: the
# independent oracle that game._balance is compared against
def solve_from_engine(sirs_fn: Callable[[np.ndarray], np.ndarray], K: int,
                      params: SystemParams, gamma_star: float,
                      max_iter: int = DEFAULT_MAX_ITER) -> EquilibriumResult:
    """Run synchronous capped best-response sweeps until the powers settle.

    The sweeps settle when the largest relative power change of a sweep is
    below POWER_TOL; the result is converged as _result decides.
    """
    Pmax = params.Pmax
    p = np.full(K, INITIAL_POWER_FRACTION * Pmax)
    iterations = 0
    settled = False
    for iterations in range(1, max_iter + 1):
        g = sirs_fn(p)
        if np.any(g <= 0.0):
            raise InfeasibleUserError(int(np.argmax(g <= 0.0)))
        p_new = np.minimum(p * gamma_star / g, Pmax)
        delta = float(np.max(np.abs(p_new - p) / p))
        p = p_new
        if delta < POWER_TOL:
            settled = True
            break
    return _result(p, sirs_fn(p), iterations, settled, params, gamma_star)


def best_response_power(k: int, powers, realization: ChannelRealization,
                        kind: ReceiverKind, gamma_star: float, sigma2: float,
                        Pmax: float) -> float:
    """User k's best response to the others' powers, one user at a time: the
    power that puts it at gamma_star, gamma_star / sir_per_watt, clamped at
    Pmax. Exact because no filter depends on p_k, so its SIR is linear in
    p_k; hence the response does not depend on powers[k] either. Any
    antenna count.
    """
    rate = sir_per_watt(kind, realization.S, realization.H, powers, sigma2)[k]
    if not rate > 0.0:
        raise InfeasibleUserError(k)
    return float(min(gamma_star / rate, Pmax))


def settle_rtol(engine, result: EquilibriumResult, h2: np.ndarray,
                gamma_star: float) -> float:
    """How far result may lie from another solve of its draw that stopped by
    the same rule, once a best response moves no power by POWER_TOL: each
    lies within POWER_TOL / (1 - rho) of the fixed point, rho being the
    spectral radius there of gamma* times the balance map's Jacobian over
    the users below Pmax, so 2 POWER_TOL / (1 - rho), and at least 1e-8."""
    _, jacobian = engine(result.powers * h2)
    free = np.setdiff1d(np.arange(len(h2)), sorted(result.clamped_users))
    rho = 0.0 if jacobian is None or not free.size else float(np.max(np.abs(
        np.linalg.eigvals(gamma_star * jacobian()[np.ix_(free, free)]))))
    return max(1e-8, 2.0 * POWER_TOL / (1.0 - rho))


def exact_mmse_sirs(gram: np.ndarray, rec: np.ndarray,
                    sigma2: float) -> list:
    """The MMSE SIRs of make_sir_engine's map at received powers rec, as
    exact Fractions of its float inputs: gamma_k = r_k / (1 - r_k),
    r_k = rec_k [M^-1 G]_kk with M = G D + sigma2 I, D = diag(rec). Every
    input is a binary float, so Gauss-Jordan on [M | G] in Fractions makes
    no rounding error at all. Each leading block G_11 D_1 + sigma2 I of M
    shares its eigenvalues with D_1^1/2 G_11 D_1^1/2 + sigma2 I, all at
    least sigma2, so no pivot is zero. The independent oracle for the map's
    K x K float path."""
    G = [[Fraction(x) for x in row] for row in gram.tolist()]
    r = [Fraction(x) for x in rec.tolist()]
    K = len(r)
    rows = [[G[k][j] * r[j] + (Fraction(sigma2) if j == k else 0)
             for j in range(K)] + G[k] for k in range(K)]
    for c in range(K):
        pivot = 1 / rows[c][c]
        rows[c] = [x * pivot for x in rows[c]]
        for i in range(K):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    ratios = [r[k] * rows[k][K + k] for k in range(K)]
    return [x / (1 - x) for x in ratios]
