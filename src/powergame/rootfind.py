"""Scalar root finding: geometric bracket scan plus plain bisection.

Bisection is preferred over Newton here because the functions we solve
(tangent conditions on S-shaped curves) have derivatives that vanish near
the origin, and each solve happens once per run, so robustness wins.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from .exceptions import SolverError

SCAN_POINTS = 400      # geometric grid points of a bracket scan
BISECT_MAX_ITER = 200  # halvings; 1e3 wide brackets reach 1e-9 in ~40
BISECT_TOL = 1e-9      # bracket width, absolute on x, at which bisect stops


def scan_brackets(fn: Callable[[float], float], lo: float,
                  hi: float) -> List[Tuple[float, float]]:
    """Return all [a, b] sub-intervals of a geometric grid where fn goes <=0
    to >0, in ascending order, so the last holds the rightmost crossing.

    The grid is numpy's geomspace formula, 10 ** (log10(lo) + i step) with
    its ends set to lo and hi, taken with libm pow, so it is the same on
    every CPU whatever SIMD numpy's power would dispatch to."""
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (SCAN_POINTS - 1)
    xs = [10.0 ** (start + i * step) for i in range(SCAN_POINTS)]
    xs[0], xs[-1] = lo, hi
    vals = [fn(x) for x in xs]
    return [(a, b) for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:])
            if fa <= 0.0 < fb]


def bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisect fn on [lo, hi] assuming fn(lo) <= 0 < fn(hi), to BISECT_TOL."""
    if fn(lo) > 0.0 or fn(hi) <= 0.0:
        raise SolverError(f"no sign change on [{lo}, {hi}]")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < BISECT_TOL:
            break
    return 0.5 * (lo + hi)

