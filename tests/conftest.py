import os
from pathlib import Path

import numpy as np
import pytest

from powergame.efficiency import EfficiencyKind, EfficiencyModel, solve_gamma_star
from powergame.system import (ChannelRealization, SystemParams,
                              generate_gains, generate_spreading)

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
