import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from powergame import efficiency
from powergame.efficiency import (GAMMA_BRACKET, EfficiencyKind,
                                  EfficiencyModel, eff_derivative, eff_value,
                                  solve_gamma_star)
from powergame.exceptions import ConfigError, NoTargetSirError, SolverError

EXP = EfficiencyKind.EXP_APPROX
BPSK = EfficiencyKind.BPSK_AWGN


def exp_model(M=100):
    return EfficiencyModel(EXP, M)


def tangent_oracle_root(M, tol=1e-12):
    """Independent bisection on the reduced scalar equation e^g = 1 + M g.

    For f(g) = (1 - e^-g)^M the tangent condition f = g f' collapses to this
    after dividing out the common (1 - e^-g)^(M-1) factor.
    """
    lo, hi = 1e-6, 50.0
    fn = lambda g: math.exp(g) - 1.0 - M * g
    assert fn(lo) < 0 < fn(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestValue:
    def test_zero_is_exact_zero(self):
        assert eff_value(exp_model(100), 0.0) == 0.0
        assert eff_value(EfficiencyModel(BPSK, 100), 0.0) == 0.0

    def test_half_at_ln2(self):
        assert eff_value(exp_model(1), math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_high_precision_oracle(self):
        # 50-digit decimal evaluation of (1 - e^-6.48)^100
        getcontext().prec = 50
        expected = (1 - (-Decimal("6.48")).exp()) ** 100
        got = eff_value(exp_model(100), 6.48)
        assert 0.84 < got < 0.86
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_range_and_saturation(self):
        m = exp_model(100)
        assert eff_value(m, 20.0) > 0.999
        for g in (0.5, 5.0, 20.0, 30.0):
            assert 0.0 < eff_value(m, g) < 1.0
        # beyond g ~ 37 the base rounds to 1 in float64; never above 1 though
        assert eff_value(m, 500.0) <= 1.0

    @pytest.mark.parametrize("kind", [EXP, BPSK])
    def test_strict_monotonicity(self, kind):
        # strict below float64 saturation (~g = 34..37), non-strict beyond
        m = EfficiencyModel(kind, 100)
        grid = np.geomspace(1e-3, 30.0, 200)
        vals = [eff_value(m, g) for g in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        tail = [eff_value(m, g) for g in np.linspace(30.0, 100.0, 50)]
        assert all(a <= b for a, b in zip(tail, tail[1:]))

    @pytest.mark.parametrize("M", [7, 10, 100])
    def test_bpsk_tiny_sir_keeps_its_leading_term(self, M):
        # (1 - Q(sqrt(2 g)))^M - (1/2)^M cancels at tiny g; its leading
        # term is (1/2)^M 2 M sqrt(g / pi), as erf(x) ~ 2 x / sqrt(pi)
        m = EfficiencyModel(BPSK, M)
        grid = np.geomspace(1e-300, 1e-3, 600)
        vals = [eff_value(m, g) for g in grid]
        assert all(0.0 < f < 1.0 for f in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        for g, f in zip(grid, vals):
            if g <= 1e-30:
                assert f == pytest.approx(
                    0.5 ** M * 2 * M * math.sqrt(g / math.pi), rel=1e-12,
                    abs=0.0)

    def test_bpsk_tiny_sir_underflows_at_a_large_packet(self):
        # M log1p(erf(sqrt(g))) ~ 1000 at M = 30000, g = 9e-4 is past
        # expm1's range, but (1/2)^M and so the value underflow to 0
        assert eff_value(EfficiencyModel(BPSK, 30000), 9e-4) == 0.0

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            eff_value(exp_model(), -0.1)

    def test_bad_packet_size_rejected(self):
        with pytest.raises(ValueError):
            EfficiencyModel(EXP, 0)


class TestDerivative:
    def test_exp_at_zero(self):
        assert eff_derivative(exp_model(1), 0.0) == 1.0
        assert eff_derivative(exp_model(100), 0.0) == 0.0

    def test_bpsk_slope_diverges_at_zero(self):
        assert eff_derivative(EfficiencyModel(BPSK, 100), 0.0) == math.inf

    @pytest.mark.parametrize("kind", [EXP, BPSK])
    def test_matches_finite_differences(self, kind):
        # step 1e-6 where f is steep; wider step above g = 10 where the
        # tiny difference of near-1 values would drown in rounding noise
        m = EfficiencyModel(kind, 100)
        for g in np.arange(0.1, 20.01, 0.5):
            step = 1e-6 if g < 10.0 else 1e-4
            fd = (eff_value(m, g + step) - eff_value(m, g - step)) / (2 * step)
            assert eff_derivative(m, g) == pytest.approx(fd, rel=1e-4)

    def test_tight_agreement_near_target(self):
        m = exp_model(100)
        g, step = 6.48, 1e-6
        fd = (eff_value(m, g + step) - eff_value(m, g - step)) / (2 * step)
        assert eff_derivative(m, g) == pytest.approx(fd, rel=1e-5)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            eff_derivative(exp_model(), -1e-9)


class TestGammaStar:
    def test_reference_packet_size(self):
        # the M=100 target is 6.48 (8.1 dB) within the published rounding
        g = solve_gamma_star(exp_model(100))
        assert abs(g - 6.48) <= 0.01
        assert 10 * math.log10(g) == pytest.approx(8.1, abs=0.02)

    @pytest.mark.parametrize("M", [2, 10, 50, 100, 500])
    def test_matches_reduced_equation_oracle(self, M):
        got = solve_gamma_star(exp_model(M))
        assert got == pytest.approx(tangent_oracle_root(M), abs=1e-8)

    @pytest.mark.parametrize("kind,exact", [
        (EfficiencyKind.EXP_APPROX, "6.474600379437847"),
        (EfficiencyKind.BPSK_AWGN, "4.04002360067958"),
    ])
    def test_packet_size_100_to_the_bit(self, kind, exact):
        # every table's target; the scan grid takes libm pow on every CPU,
        # so these floats do not depend on numpy's SIMD dispatch
        assert repr(solve_gamma_star.__wrapped__(EfficiencyModel(kind, 100))) \
            == exact

    def test_m2_reference_value(self):
        assert solve_gamma_star(exp_model(2)) == pytest.approx(1.2564, abs=1e-4)

    def test_m1_has_no_tangent_point(self):
        # (1 - e^-g) is concave, so f > g f' everywhere and no root exists
        with pytest.raises(SolverError):
            solve_gamma_star(exp_model(1))

    @pytest.mark.parametrize("kind,smallest", [(EXP, 2), (BPSK, 7)])
    def test_no_target_sir_is_a_config_error_on_m(self, kind, smallest):
        # below the smallest packet size the efficiency is not S-shaped
        for M in range(1, smallest):
            with pytest.raises(NoTargetSirError) as err:
                solve_gamma_star(EfficiencyModel(kind, M))
            assert isinstance(err.value, ConfigError)
            assert isinstance(err.value, SolverError)
            assert err.value.key == "M"
            assert str(err.value).startswith(
                f"M: eff={kind.value} has no target SIR at M={M}: ")
        assert solve_gamma_star(EfficiencyModel(kind, smallest)) > 0

    def test_bpsk_root_maximizes_ratio(self):
        # independent oracle: dense-grid argmax of f(g)/g away from the origin
        m = EfficiencyModel(BPSK, 100)
        g = solve_gamma_star(m)
        grid = np.linspace(1.0, 30.0, 200001)
        vals = np.array([eff_value(m, x) for x in grid]) / grid
        assert abs(g - grid[np.argmax(vals)]) < 2e-4

    @pytest.mark.parametrize("M", [10, 50, 100, 500])
    def test_single_sign_change(self, M):
        # dense scan of f - g f': exactly one strict sign flip, minus to plus
        m = exp_model(M)
        xs = np.geomspace(*GAMMA_BRACKET, 2000)
        signs = []
        for x in xs:
            v = eff_value(m, x) - x * eff_derivative(m, x)
            s = 0 if v == 0.0 else (1 if v > 0 else -1)
            if s != 0 and (not signs or signs[-1] != s):
                signs.append(s)
        assert signs == [-1, 1]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_tangent_line_maximizes_utility_ratio(self, scale):
        # f(c p)/p peaks where c p hits the target SIR, for any slope c
        m = exp_model(100)
        g_star = solve_gamma_star(m)
        p_grid = np.geomspace(0.1, 100.0, 4001) * g_star / scale
        ratios = [eff_value(m, scale * p) / p for p in p_grid]
        p_best = p_grid[int(np.argmax(ratios))]
        assert scale * p_best == pytest.approx(g_star, rel=3e-3)


class TestGammaStarMemo:
    """solve_gamma_star is memoised on the model, so a caller asks for it
    instead of passing gamma* along."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """The scan_brackets calls made from here on, cache emptied first."""
        solve_gamma_star.cache_clear()
        calls, scan = [], efficiency.scan_brackets

        def counted(*args):
            calls.append(args)
            return scan(*args)
        monkeypatch.setattr(efficiency, "scan_brackets", counted)
        return calls

    def test_equal_model_does_not_rescan(self, scans, monkeypatch):
        first = solve_gamma_star(exp_model(100))

        def rescan(*args):
            raise AssertionError("rescanned")
        monkeypatch.setattr(efficiency, "scan_brackets", rescan)
        # a new object, equal to the first
        assert solve_gamma_star(exp_model(100)) == first
        assert len(scans) == 1

    def test_errors_are_not_cached(self, scans):
        for _ in range(3):
            with pytest.raises(NoTargetSirError):
                solve_gamma_star(exp_model(1))
        assert len(scans) == 3
