"""Scalar root finding: geometric bracket scan plus plain bisection.

Bisection is preferred over Newton here because the functions we solve
(tangent conditions on S-shaped curves) have derivatives that vanish near
the origin, and each solve happens once per run, so robustness wins.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from .exceptions import SolverError

SCAN_POINTS = 400      # geometric grid points of a bracket scan
BISECT_MAX_ITER = 200  # halvings; 1e3 wide brackets reach 1e-9 in ~40


def scan_brackets(fn: Callable[[float], float], lo: float,
                  hi: float) -> List[Tuple[float, float]]:
    """Return all [a, b] sub-intervals of a geometric grid where fn goes <=0
    to >0, in ascending order, so the last holds the rightmost crossing."""
    xs = np.geomspace(lo, hi, SCAN_POINTS)
    vals = [fn(float(x)) for x in xs]
    brackets = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa <= 0.0 < fb:
            brackets.append((float(a), float(b)))
    return brackets


def bisect(fn: Callable[[float], float], lo: float, hi: float,
           tol: float = 1e-9) -> float:
    """Bisect fn on [lo, hi] assuming fn(lo) <= 0 < fn(hi); absolute tolerance on x."""
    if fn(lo) > 0.0 or fn(hi) <= 0.0:
        raise SolverError(f"no sign change on [{lo}, {hi}]")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)

