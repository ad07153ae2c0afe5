import math

import pytest

from powergame.efficiency import (EfficiencyKind, EfficiencyModel,
                                  solve_gamma_star)
from powergame.exceptions import NoTargetSirError, SolverError
from powergame.rootfind import BISECT_TOL, SCAN_POINTS, bisect, scan_brackets


def test_bisect_sqrt2():
    # the midpoint of a bracket narrower than BISECT_TOL
    root = bisect(lambda x: x * x - 2.0, 1.0, 2.0)
    assert abs(root - math.sqrt(2.0)) < BISECT_TOL / 2


def test_bisect_requires_sign_change():
    with pytest.raises(SolverError):
        bisect(lambda x: x * x + 1.0, 0.0, 1.0)


def test_scan_finds_single_bracket():
    brackets = scan_brackets(lambda x: x - 1.0, 1e-3, 1e3)
    assert len(brackets) == 1
    a, b = brackets[0]
    assert a <= 1.0 <= b


def test_rightmost_root_picks_last_crossing():
    # upward crossings at x = 1 and x = 100 come out in ascending order, so
    # the last bracket holds the rightmost root that solve_gamma_star refines
    fn = lambda x: (x - 1.0) * (x - 10.0) * (x - 100.0)
    brackets = scan_brackets(fn, 1e-2, 1e3)
    assert len(brackets) == 2
    assert brackets[0][1] <= brackets[1][0]
    assert brackets[0][0] <= 1.0 <= brackets[0][1]
    root = bisect(fn, *brackets[-1])
    assert abs(root - 100.0) < 1e-6


def test_rightmost_root_no_crossing():
    assert scan_brackets(lambda x: 1.0 + x, 1e-3, 1e3) == []
    # (1 - e^-g) is concave, so its residual never crosses upward
    with pytest.raises(NoTargetSirError):
        solve_gamma_star(EfficiencyModel(EfficiencyKind.EXP_APPROX, 1))


def test_scan_grid_is_geomspace_through_libm_pow():
    # numpy.geomspace's formula, 10 ** (log10(lo) + i step) with the ends
    # set to lo and hi, with each power taken by Python's float pow
    seen = []
    scan_brackets(lambda x: seen.append(x) or 1.0, 1e-6, 1e3)
    start, stop = math.log10(1e-6), math.log10(1e3)
    step = (stop - start) / (SCAN_POINTS - 1)
    assert len(seen) == SCAN_POINTS
    assert seen[0] == 1e-6 and seen[-1] == 1e3
    assert seen[1:-1] == [10.0 ** (start + i * step)
                          for i in range(1, SCAN_POINTS - 1)]
    assert all(type(x) is float for x in seen)
