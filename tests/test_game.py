import numpy as np
import pytest

from powergame.asymptotic import feasibility_bound
from powergame.exceptions import InfeasibleUserError, SolverError
from powergame.experiments import trial_rng
from powergame.game import (NASH_REL_TOL, SIR_TOL, _balance, _result,
                            _series_direction, solve_channel,
                            solve_equilibrium, verify_nash)
from powergame.system import (LEAF_ROWS, ChannelRealization, ReceiverKind,
                              effective_gram, generate_gains,
                              generate_spreading, make_sir_engine, output_sir,
                              receiver_filter, sir_per_watt, utility)

from conftest import (best_response_power, draw_realization, make_params,
                      settle_rtol, solve_from_engine)

MF = ReceiverKind.MATCHED_FILTER
DE = ReceiverKind.DECORRELATOR
MMSE = ReceiverKind.MMSE
KINDS = [MF, DE, MMSE]


def feasible_instance(rng_factory, kind, params, model, gamma_star, N, K,
                      max_attempts=50, m=1):
    """Draw realizations until the equilibrium is reachable without clamping."""
    for attempt in range(max_attempts):
        realization = draw_realization(rng_factory(attempt), N, K, m=m)
        result = solve_equilibrium(realization, kind, params, model,
                                   gamma_star=gamma_star, max_iter=5000)
        if result.converged and not result.clamped_users:
            return realization, result
    raise AssertionError("no feasible draw found")


class TestBestResponse:
    def test_single_user_one_step(self, params, model, gamma_star):
        realization = draw_realization(np.random.default_rng(0), 64, 1)
        h2 = realization.H[0, 0] ** 2
        p = best_response_power(0, np.array([1e-3]), realization, MF,
                                gamma_star, params.sigma2, params.Pmax)
        assert p == pytest.approx(gamma_star * params.sigma2 / h2, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_orthogonal_sequences_decouple(self, kind, params, model, gamma_star):
        S = np.eye(16)[:, :5]
        H = generate_gains(np.full(5, 100.0), 1, np.random.default_rng(1))
        realization = ChannelRealization(S=S, H=H, distances=np.full(5, 100.0))
        powers = np.full(5, 1e-4)
        expected = gamma_star * params.sigma2 / H[0] ** 2
        stepped = np.array([
            best_response_power(k, powers, realization, kind, gamma_star,
                                params.sigma2, params.Pmax)
            for k in range(5)])
        assert np.allclose(stepped, expected, rtol=1e-10)
        # and it is a fixed point: responding again changes nothing
        again = np.array([
            best_response_power(k, stepped, realization, kind, gamma_star,
                                params.sigma2, params.Pmax)
            for k in range(5)])
        assert np.allclose(again, stepped, rtol=1e-12)

    def test_at_target_power_is_stationary(self, params, model, gamma_star):
        realization, result = feasible_instance(
            lambda a: np.random.default_rng((2, a)), MMSE,
            make_params(K=10), model, gamma_star, 64, 10)
        k = 3
        p = best_response_power(k, result.powers, realization, MMSE,
                                gamma_star, params.sigma2, params.Pmax)
        assert p == pytest.approx(result.powers[k], rel=1e-6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_response_ignores_own_power(self, kind, params, gamma_star):
        # no filter depends on p_k, so neither does the response, even at 0
        realization = draw_realization(np.random.default_rng(6), 64, 8, m=2)
        powers = np.full(8, 1e-6)
        ref = best_response_power(2, powers, realization, kind, gamma_star,
                                  params.sigma2, params.Pmax)
        for own in (0.0, 1e-9, 1e-3):
            powers[2] = own
            assert best_response_power(
                2, powers, realization, kind, gamma_star, params.sigma2,
                params.Pmax) == pytest.approx(ref, rel=1e-12)

    def test_zero_gain_is_infeasible(self, params, model, gamma_star):
        S = generate_spreading(16, 2, np.random.default_rng(3))
        realization = ChannelRealization(
            S=S, H=np.array([[1e-5, 1e-5]]), distances=np.full(2, 100.0))
        realization.H[0, 0] = 0.0  # deep fade after the draw
        with pytest.raises(InfeasibleUserError):
            best_response_power(0, np.full(2, 1e-6), realization, MF,
                                gamma_star, params.sigma2, params.Pmax)

    def test_zero_sir_raises_infeasible_in_sweep(self, params, model, gamma_star):
        # a map without a Jacobian: every pass is a capped best response
        with pytest.raises(InfeasibleUserError):
            _balance(lambda rec: (np.zeros_like(rec), None), np.full(3, 1e-2),
                     np.ones(3), params, gamma_star, 500, False)


class TestSolveEquilibrium:
    def test_single_user_two_sweeps(self, params, model, gamma_star):
        realization = draw_realization(np.random.default_rng(4), 64, 1)
        result = solve_equilibrium(realization, MF, make_params(K=1), model)
        h2 = realization.H[0, 0] ** 2
        assert result.converged
        assert result.iterations <= 2
        assert result.powers[0] == pytest.approx(gamma_star * params.sigma2 / h2,
                                                 rel=1e-9)

    def test_mmse_balances_all_sirs(self, model, gamma_star):
        params = make_params(K=30)
        realization = draw_realization(np.random.default_rng(5), 100, 30)
        result = solve_equilibrium(realization, MMSE, params, model)
        assert result.converged and not result.clamped_users
        assert np.max(np.abs(result.sirs - gamma_star) / gamma_star) <= 1e-6

    def test_matched_filter_equilibrium_matches_linear_oracle(self, model, gamma_star):
        # at fixed target the MF power balance is linear: (I - g* B) q = g* s2
        params = make_params(K=8)
        realization, result = feasible_instance(
            lambda a: np.random.default_rng((6, a)), MF, params, model,
            gamma_star, 100, 8)
        G2 = (realization.S.T @ realization.S) ** 2
        np.fill_diagonal(G2, 0.0)
        rec = np.linalg.solve(np.eye(8) - gamma_star * G2,
                              np.full(8, gamma_star * params.sigma2))
        oracle = rec / realization.H[0] ** 2
        assert np.allclose(result.powers, oracle, rtol=1e-8)

    def test_overloaded_matched_filter_clamps(self, model):
        # K = 30 at N = 100 sits far above the MF load limit
        params = make_params(K=30)
        realization = draw_realization(np.random.default_rng(7), 100, 30)
        result = solve_equilibrium(realization, MF, params, model)
        assert result.clamped_users
        assert np.all(result.powers[sorted(result.clamped_users)] == params.Pmax)
        from powergame.efficiency import solve_gamma_star
        gs = solve_gamma_star(model)
        assert np.max(np.abs(result.sirs - gs) / gs) > 1e-3  # not balanced

    def test_all_clamped_reports_not_converged(self, model, gamma_star):
        # every user sits at Pmax with an SIR far below target: the best
        # responses settle at once, but no user reaches gamma_star
        K = 5
        params = make_params(K=K, Pmax=1e-15)
        result = _balance(lambda rec: (1e6 * rec, None), np.full(K, 1e-17),
                          np.ones(K), params, gamma_star, 500, False)
        assert result.clamped_users == frozenset(range(K))
        assert np.all(result.powers == params.Pmax)
        assert not result.converged

    def test_partly_clamped_can_converge(self, model, gamma_star):
        # user 0 is capped, user 1 meets the target: converged as before
        params = make_params(K=2, Pmax=1.0)
        sir_per_watt = np.array([0.5, 1e3]) * gamma_star  # user 0: 0.5 g* at Pmax
        result = _balance(lambda rec: (sir_per_watt * rec, None),
                          np.full(2, 1e-2), np.ones(2), params, gamma_star,
                          500, False)
        assert result.clamped_users == frozenset({0})
        assert result.converged

    def test_max_iter_reports_not_converged(self, model):
        # from the large-system start this draw settles in 2 Newton steps
        params = make_params(K=20)
        realization = draw_realization(np.random.default_rng(8), 100, 20)
        result = solve_equilibrium(realization, MMSE, params, model, max_iter=1)
        assert not result.converged
        assert result.iterations == 1


class TestResult:
    def test_masks_match_the_per_user_loop(self, model, gamma_star):
        # the clamped set and the SIR-target check against a per-user loop,
        # on powers at, just below and far below Pmax and SIRs on and off
        # the target
        rng = np.random.default_rng(40)
        for _ in range(300):
            K = int(rng.integers(1, 8))
            params = make_params(K=K, Pmax=1.0)
            p = rng.choice([1.0, 1.0 - 1e-13, 1.0 - 1e-11, 1e-3], K)
            sirs = gamma_star * (1.0 + rng.choice([0.0, 1e-7, -1e-5], K))
            settled = bool(rng.integers(0, 2))
            result = _result(p, sirs, 1, settled, params, gamma_star)
            clamped = {k for k in range(K) if p[k] >= 1.0 - 1e-12}
            free = [k for k in range(K) if k not in clamped]
            sir_ok = all(abs(sirs[k] - gamma_star) / gamma_star <= SIR_TOL
                         for k in free)
            assert result.clamped_users == clamped
            assert result.converged is (settled and sir_ok and bool(free))


class TestNewtonBalance:
    """solve_channel balances by Newton steps on the capped map, users at
    Pmax held there, and by capped best responses where a step would take a
    free user out of (0, Pmax); the equality with the sweeps alone is a
    property test."""

    @pytest.mark.parametrize("kind,K", [(MF, 8), (DE, 50)])
    def test_linear_receivers_balance_in_one_step(self, kind, K, model,
                                                  gamma_star):
        # the matched filter's balance is affine and the decorrelator's
        # constant, so one Newton step lands on it
        params = make_params(K=K)
        _, result = feasible_instance(
            lambda a: np.random.default_rng((30, a)), kind, params, model,
            gamma_star, 100, K)
        assert result.iterations == 1

    def test_mmse_balances_in_few_steps(self, model, gamma_star):
        # criterion 3's MMSE load; the sweeps take 11-12 here
        params = make_params(K=58)
        for t in range(5):
            _, result = feasible_instance(
                lambda a: np.random.default_rng((31, t, a)), MMSE, params,
                model, gamma_star, 100, 58)
            assert result.iterations <= 5

    @pytest.mark.parametrize("N,K,m", [(100, 58, 1), (200, 100, 1),
                                       (200, 100, 2)])
    def test_mmse_starts_at_the_large_system_balance(self, N, K, m, model,
                                                     gamma_star, monkeypatch):
        # from q = gamma* sigma2 / Gamma the balance map runs at most 3
        # steps plus the settle check; the default start takes 4 plus it
        calls = []

        def counting_engine(*args):
            balance = make_sir_engine(*args)

            def counted(rec):
                calls.append(1)
                return balance(rec)
            return counted

        monkeypatch.setattr("powergame.game.make_sir_engine", counting_engine)
        params = make_params(K=K, N=N, m=m)
        for t in range(5):
            realization = draw_realization(np.random.default_rng((41, t)), N,
                                           K, m=m)
            calls.clear()
            result = solve_equilibrium(realization, MMSE, params, model,
                                       gamma_star=gamma_star)
            assert result.converged and not result.clamped_users
            assert len(calls) <= 4 and result.iterations == len(calls) - 1

    def test_slow_sweeps_do_not_limit_matched_filter(self, model, gamma_star):
        # a feasible draw whose sweeps contract at rho close to 1 balances
        # at any max_iter; the sweeps alone stop short of it at 500
        params = make_params(K=14)
        realization = draw_realization(np.random.default_rng((32, 12)),
                                       100, 14)
        S, h2 = realization.S, realization.H[0] ** 2
        engine = make_sir_engine(MF, S.T @ S, params.sigma2)
        rho = max(abs(np.linalg.eigvals(gamma_star * engine(h2)[1]())))
        assert 0.97 < rho < 1.0
        sweeps = solve_from_engine(lambda p: engine(p * h2)[0], 14, params,
                                   gamma_star)
        assert not sweeps.converged
        for max_iter in (1, 500, 5000):
            result = solve_equilibrium(realization, MF, params, model,
                                       max_iter, gamma_star)
            assert result.converged and not result.clamped_users
            assert result.iterations == 1

    @staticmethod
    def assert_tangent(kind, gram, rec, rel_step=1e-6, sigma2=5e-16):
        # I = rec / sirs; its Jacobian against central differences
        K = len(rec)
        engine = make_sir_engine(kind, gram, sigma2)
        jacobian = engine(rec)[1]()
        step = rel_step * rec
        numeric = np.empty((K, K))
        for j in range(K):
            up, down = rec.copy(), rec.copy()
            up[j] += step[j]
            down[j] -= step[j]
            numeric[:, j] = (up / engine(up)[0]
                             - down / engine(down)[0]) / (2 * step[j])
        np.fill_diagonal(numeric, 0.0)  # I_k does not depend on rec_k
        assert np.allclose(jacobian, numeric, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("kind", [MF, MMSE])
    def test_tangent_is_the_interference_jacobian(self, kind):
        S = generate_spreading(32, 12, np.random.default_rng(33))
        self.assert_tangent(
            kind, S.T @ S,
            1e-15 * (1.0 + np.random.default_rng(34).random(12)))

    @pytest.mark.parametrize("kind", [MF, MMSE])
    @pytest.mark.parametrize("N,K,m", [(160, 80, 1), (100, 80, 2)])
    def test_tangent_past_the_leaf(self, kind, N, K, m):
        # K x K inverses by block elimination, and the two-antenna Gram
        # with unit-scale Rayleigh coefficients. The rounding in a
        # difference of I grows with K: a 1e-4 step keeps it and the step's
        # own truncation error below 1e-9 (at 1e-6 the rounding alone
        # reaches 4e-8 for MMSE at K = 80)
        rng = np.random.default_rng((36, N, K, m))
        S = generate_spreading(N, K, rng)
        gram, h2 = effective_gram(kind, S, rng.rayleigh(size=(m, K)))
        self.assert_tangent(kind, gram, 1e-15 * (1.0 + rng.random(K)) / h2,
                            rel_step=1e-4)

    def test_tangent_at_a_tiny_noise_power(self):
        # received powers ~1e-299 against sigma2 = 5e-300: the Jacobian's
        # row and column scalings rec_k / ratio_k and sigma2 / rec_j stay in
        # range, where sigma2 / q_k, ~1e-599, would underflow to 0
        rng = np.random.default_rng(37)
        S = generate_spreading(160, 80, rng)
        self.assert_tangent(MMSE, S.T @ S, 1e-299 * (1.0 + rng.random(80)),
                            rel_step=1e-4, sigma2=5e-300)

    @staticmethod
    def count_jacobians(monkeypatch):
        """Patch the solver's balance maps to log each Jacobian built."""
        built = []

        def counting_engine(*args):
            balance = make_sir_engine(*args)

            def counted(rec):
                sirs, jacobian = balance(rec)

                def build():
                    built.append(1)
                    return jacobian()
                return sirs, build
            return counted

        monkeypatch.setattr("powergame.game.make_sir_engine", counting_engine)
        return built

    @pytest.mark.parametrize("N,K,m", [(100, 58, 1), (200, 100, 1),
                                       (200, 100, 2), (180, 90, 1)])
    def test_only_a_newton_step_builds_the_jacobian(self, N, K, m, model,
                                                    gamma_star, monkeypatch):
        # one Jacobian per step; the settle check reads the SIRs alone
        built = self.count_jacobians(monkeypatch)
        params = make_params(K=K, N=N, m=m)
        for t in range(3):
            realization = draw_realization(np.random.default_rng((43, t)), N,
                                           K, m=m)
            built.clear()
            result = solve_equilibrium(realization, MMSE, params, model,
                                       gamma_star=gamma_star)
            assert result.converged and not result.clamped_users
            assert len(built) == result.iterations > 0

    def test_overloaded_mmse_hands_best_responses_to_newton(
            self, model, gamma_star, monkeypatch):
        # more MMSE users than chips: a feasible draw whose first Newton
        # step leaves (0, Pmax). The best response that follows shrinks the
        # largest move threefold, and Newton takes over from there: 7 map
        # calls, where restarting the sweeps from equal powers took 98
        calls = []

        def counting_engine(*args):
            balance = make_sir_engine(*args)

            def counted(rec):
                calls.append(1)
                return balance(rec)
            return counted

        monkeypatch.setattr("powergame.game.make_sir_engine", counting_engine)
        params = make_params(K=22, N=20)
        realization = draw_realization(np.random.default_rng((44, 0)), 20,
                                       22)
        result = solve_equilibrium(realization, MMSE, params, model,
                                   gamma_star=gamma_star)
        assert result.converged and not result.clamped_users
        assert len(calls) <= 12 and result.iterations == len(calls) - 1

    @pytest.mark.parametrize("kind,N,K", [(MF, 100, 14), (MMSE, 100, 58)])
    def test_step_matrix_is_identity_minus_the_scaled_jacobian(
            self, kind, N, K, model, gamma_star, monkeypatch):
        # every Newton step solves (Id - gamma* J) x = r: the matrix equals
        # np.eye(K) - gamma* J, and the step it gives matches the one from
        # that matrix byte for byte, also where the matched filter's J has
        # exact zeros off the diagonal (orthogonal chip sequences)
        jacobians, steps = [], []

        def recording_engine(*args):
            balance = make_sir_engine(*args)

            def recorded(rec):
                sirs, jacobian = balance(rec)

                def build():
                    J = jacobian()
                    jacobians.append(J.copy())
                    return J
                return sirs, build
            return recorded

        solve = np.linalg.solve

        def recording_solve(a, b):
            steps.append((a.copy(), b.copy()))
            return solve(a, b)

        monkeypatch.setattr("powergame.game.make_sir_engine",
                            recording_engine)
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        realization = draw_realization(np.random.default_rng((45, K)), N, K)
        result = solve_equilibrium(realization, kind, make_params(K=K, N=N),
                                   model, gamma_star=gamma_star)
        assert result.converged and not result.clamped_users
        assert len(steps) == len(jacobians) == result.iterations > 0
        if kind is MF:
            assert (jacobians[0] == 0.0).sum() > K
        for J, (matrix, rhs) in zip(jacobians, steps):
            reference = np.eye(K) - gamma_star * J
            assert np.array_equal(matrix, reference)
            assert solve(matrix, rhs).tobytes() == solve(reference,
                                                         rhs).tobytes()

    def test_matched_filter_jacobian_survives_a_solve(self, model, gamma_star,
                                                      monkeypatch):
        # the matched filter's callable returns one constant array for the
        # whole solve: a Newton step must build its matrix beside it
        params = make_params(K=14)
        realization = draw_realization(np.random.default_rng((46, 0)), 100,
                                       14)
        engine = make_sir_engine(MF, realization.S.T @ realization.S,
                                 params.sigma2)
        h2 = realization.H[0] ** 2
        jacobian = engine(h2)[1]()
        before = jacobian.copy()
        monkeypatch.setattr("powergame.game.make_sir_engine",
                            lambda *args: engine)
        result = solve_equilibrium(realization, MF, params, model,
                                   gamma_star=gamma_star)
        assert result.converged and result.iterations == 1
        assert engine(h2)[1]() is jacobian
        assert jacobian.tobytes() == before.tobytes()

    @pytest.mark.parametrize("max_iter", [0, 500])
    def test_zero_sir_is_no_balance(self, max_iter, params, gamma_star):
        # a zero SIR needs an infinite power; at the last allowed pass only
        # this check keeps it from being returned as a result
        def balance(rec):
            return np.zeros_like(rec), lambda: np.zeros((3, 3))
        with pytest.raises(InfeasibleUserError):
            _balance(balance, np.full(3, 1e-2), np.ones(3), params,
                     gamma_star, max_iter, False)

    def test_vanishing_noise_names_sigma2(self, model, gamma_star):
        # a lone user on a noise power of 1e-320 W: its SIR overflows to
        # inf, and the pass after reads 0/0. That is no zero SIR, so no
        # InfeasibleUserError: the noise power is what to raise
        params = make_params(K=1, N=4, sigma2=1e-320)
        with pytest.raises(SolverError) as err:
            solve_channel(np.ones((4, 1)) / 2, np.array([[1.0]]), MF, params,
                          model, gamma_star=gamma_star)
        assert not isinstance(err.value, InfeasibleUserError)
        assert str(err.value) == (
            "an SIR is not finite at sigma2=1e-320, the noise vanishing "
            "against the received powers; raise sigma2")

    def test_underflowing_cap_names_pmax(self, model, gamma_star):
        # Pmax h^2 = 1e-320 * 1e-10 rounds to 0 W received: the first best
        # response would read a zero SIR, but Pmax is what to raise
        params = make_params(K=2, N=4, Pmax=1e-320)
        S = generate_spreading(4, 2, np.random.default_rng(3))
        with pytest.raises(SolverError) as err:
            solve_channel(S, np.array([[1.0, 1e-5]]), MF, params, model,
                          gamma_star=gamma_star)
        assert not isinstance(err.value, InfeasibleUserError)
        assert str(err.value) == (
            "Pmax=1e-320 times user 1's squared gain underflows to 0 W "
            "received; raise Pmax")

    def test_singular_newton_system_is_no_balance(self, params, gamma_star):
        # Id - gamma* J = 0: the step has no solution, so the pass moves to
        # the best response, here the balance itself
        def balance(rec):
            return rec / 1e-3, lambda: np.eye(3) / gamma_star
        result = _balance(balance, np.full(3, 1e-2), np.ones(3), params,
                          gamma_star, 500, False)
        assert result.converged and result.iterations == 1
        assert np.array_equal(result.powers, np.full(3, 1e-2 * gamma_star
                                                     / 10.0))

    # MMSE systems past LEAF_ROWS, whose Newton directions are series
    SERIES_SIZES = [(200, 100, 1), (200, 100, 2), (180, 90, 1)]

    @staticmethod
    def record_series(monkeypatch):
        """Patch the solver's series to log (step, residual, delta, sum)."""
        calls = []

        def recording(step, residual, delta):
            total = _series_direction(step, residual, delta)
            calls.append((step.copy(), residual.copy(), delta, total))
            return total

        monkeypatch.setattr("powergame.game._series_direction", recording)
        return calls

    @staticmethod
    def lu_only(realization, params, model, gamma_star, monkeypatch):
        """The MMSE solve with every Newton direction from the LU solve."""
        with monkeypatch.context() as patch:
            patch.setattr("powergame.game._series_direction",
                          lambda *args: None)
            return solve_equilibrium(realization, MMSE, params, model,
                                     gamma_star=gamma_star)

    @pytest.mark.parametrize("N,K,m", SERIES_SIZES)
    def test_series_direction_matches_the_solve(self, N, K, m, model,
                                                gamma_star, monkeypatch):
        # every step sums its series, and the sum is (Id - gamma* J)^-1 r
        # to the stop: the terms left out add up to at most half the last
        # one kept, at most 1e-6 delta |r|_max / 2, and |sum|_max is at
        # least |r|_max / 2
        calls = self.record_series(monkeypatch)
        params = make_params(K=K, N=N, m=m)
        for t in range(3):
            realization = draw_realization(np.random.default_rng((47, t)), N,
                                           K, m=m)
            result = solve_equilibrium(realization, MMSE, params, model,
                                       gamma_star=gamma_star)
            assert result.converged and not result.clamped_users
        assert len(calls) == 9  # three steps per draw
        for step, residual, delta, total in calls:
            exact = np.linalg.solve(np.eye(K) - step, residual)
            assert abs(total - exact).max() <= 1e-6 * delta * abs(total).max()

    @pytest.mark.parametrize("N,K,m", SERIES_SIZES)
    def test_series_takes_the_solve_steps(self, N, K, m, model, gamma_star,
                                          monkeypatch):
        params = make_params(K=K, N=N, m=m)
        for t in range(3):
            realization = draw_realization(np.random.default_rng((48, t)), N,
                                           K, m=m)
            series = solve_equilibrium(realization, MMSE, params, model,
                                       gamma_star=gamma_star)
            lu = self.lu_only(realization, params, model, gamma_star,
                              monkeypatch)
            assert series.converged and lu.converged
            assert series.iterations == lu.iterations
            assert np.allclose(series.powers, lu.powers, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("K", [100, 110])
    def test_series_that_gives_up_leaves_the_solve_bytes(
            self, K, model, gamma_star, monkeypatch):
        # as many users as chips or more: gamma* J contracts too slowly, a
        # term outgrows a third of the one before, and that step solves.
        # Every step tries its series again, one Jacobian each
        built = self.count_jacobians(monkeypatch)
        calls = self.record_series(monkeypatch)
        params = make_params(K=K, N=100)
        for t in range(3):
            realization = draw_realization(np.random.default_rng((49, t)),
                                           100, K)
            built.clear()
            calls.clear()
            series = solve_equilibrium(realization, MMSE, params, model,
                                       gamma_star=gamma_star)
            assert len(calls) == len(built) > 1
            assert all(total is None for *_, total in calls)
            lu = self.lu_only(realization, params, model, gamma_star,
                              monkeypatch)
            assert series.powers.tobytes() == lu.powers.tobytes()
            assert series.sirs.tobytes() == lu.sirs.tobytes()
            assert series.iterations == lu.iterations
            assert series.converged == lu.converged

    @pytest.mark.parametrize("kind,N,K", [
        (MF, 2000, 70), (DE, 200, 100), (MMSE, 100, 58),
        (MMSE, 100, LEAF_ROWS), (MMSE, 100, LEAF_ROWS + 1)])
    def test_no_series_for_linear_receivers_or_leaf_sized_mmse(
            self, kind, N, K, model, gamma_star, monkeypatch):
        # the matched filter's affine balance takes one exact LU step, the
        # decorrelator's none, and MMSE takes the LU up to LEAF_ROWS users,
        # where _inverse is LAPACK's inv, and a series past them
        calls = self.record_series(monkeypatch)
        params = make_params(K=K, N=N)
        realization = draw_realization(np.random.default_rng((50, K)), N, K)
        result = solve_equilibrium(realization, kind, params, model,
                                   gamma_star=gamma_star)
        assert result.converged and not result.clamped_users
        assert bool(calls) == (kind is MMSE and K > LEAF_ROWS)
        if kind is MF:
            # one step from the equal start, on the LU of Id - gamma* J
            S, h2 = realization.S, realization.H[0] ** 2
            sirs, jacobian = make_sir_engine(MF, S.T @ S, params.sigma2)(
                np.full(K, 1e-2 * params.Pmax * h2.min()))
            rec = np.full(K, 1e-2 * params.Pmax * h2.min())
            target = gamma_star * rec / sirs
            step = np.linalg.solve(np.eye(K) - gamma_star * jacobian(),
                                   target - rec)
            assert result.iterations == 1
            assert result.powers.tobytes() == ((rec + step) / h2).tobytes()

    @staticmethod
    def assert_near_sweeps(result, engine, h2, params, gamma_star):
        # the sweeps alone from equal powers: the same users at Pmax, and
        # the same powers to the settle bound
        sweeps = solve_from_engine(lambda p: engine(p * h2)[0], len(h2),
                                   params, gamma_star)
        assert result.converged == sweeps.converged
        assert result.clamped_users == sweeps.clamped_users
        np.testing.assert_allclose(
            result.powers, sweeps.powers,
            rtol=settle_rtol(engine, result, h2, gamma_star))

    def test_overloaded_matched_filter_falls_back(self, model, gamma_star,
                                                  monkeypatch):
        # rho(g* F) >= 1: no positive balance exists and users clamp. A
        # pass with a capped target builds the capped map's Jacobian too,
        # but a rejected step hands the passes that follow to best
        # responses until the largest move has shrunk threefold
        params = make_params(K=30)
        realization = draw_realization(np.random.default_rng(7), 100, 30)
        S, h2 = realization.S, realization.H[0] ** 2
        engine = make_sir_engine(MF, S.T @ S, params.sigma2)
        assert max(abs(np.linalg.eigvals(gamma_star
                                         * engine(h2)[1]()))) >= 1.0
        built = self.count_jacobians(monkeypatch)
        result = solve_equilibrium(realization, MF, params, model,
                                   gamma_star=gamma_star)
        assert result.clamped_users
        assert len(built) < result.iterations
        self.assert_near_sweeps(result, engine, h2, params, gamma_star)

    @staticmethod
    def annulus_draw(N, K, t):
        """Draw t of N x K chips and one-antenna gains for users over the
        annulus 10 to 1000 m, d^2 uniform: received powers ~8 decades apart,
        the far or faded users at Pmax."""
        rng = trial_rng(0, 11, N, K, t)
        S = generate_spreading(N, K, rng)
        distances = np.sqrt(rng.uniform(1e2, 1e6, K))
        return ChannelRealization(S=S, H=generate_gains(distances, 1, rng),
                                  distances=distances)

    @pytest.mark.parametrize("kind,N,K,t,passes", [
        # the passes each took where a pass with a capped user took no
        # step: 57, 39, 11 and 14
        (MF, 100, 10, 3, 1),
        (MF, 200, 20, 0, 6),
        (MMSE, 100, 58, 0, 5),
        (MMSE, 200, 150, 0, 5),
    ])
    def test_newton_steps_hold_capped_users(self, kind, N, K, t, passes,
                                            model, gamma_star):
        # near-far draws with users at Pmax: Newton steps on the capped map
        # hold them there and balance the rest, in the passes pinned
        realization = self.annulus_draw(N, K, t)
        params = make_params(K=K, N=N)
        result = solve_equilibrium(realization, kind, params, model,
                                   gamma_star=gamma_star)
        assert result.converged and result.clamped_users
        assert result.iterations <= passes
        gram, h2 = effective_gram(kind, realization.S, realization.H)
        self.assert_near_sweeps(result, make_sir_engine(kind, gram,
                                                        params.sigma2),
                                h2, params, gamma_star)

    def test_infeasible_overloaded_mmse_falls_back(self, model, gamma_star):
        # K = 2N is beyond the MMSE load limit 1.15
        params = make_params(K=40, N=20)
        realization = draw_realization(np.random.default_rng(35), 20, 40)
        result = solve_equilibrium(realization, MMSE, params, model,
                                   gamma_star=gamma_star)
        assert result.clamped_users
        engine = make_sir_engine(MMSE, realization.S.T @ realization.S,
                                 params.sigma2)
        self.assert_near_sweeps(result, engine, realization.H[0] ** 2,
                                params, gamma_star)


class TestProperties:
    @pytest.mark.parametrize("kind", KINDS)
    def test_sir_balanced_at_target(self, kind, model, gamma_star):
        # same target SIR regardless of receiver kind
        alpha = feasibility_bound(kind, gamma_star) / 2
        K = max(2, round(alpha * 64))
        params = make_params(K=K, N=64)
        for t in range(10):
            _, result = feasible_instance(
                lambda a: np.random.default_rng((10, t, a)), kind, params,
                model, gamma_star, 64, K)
            assert np.max(np.abs(result.sirs - gamma_star) / gamma_star) <= 1e-6

    @pytest.mark.parametrize("kind,K", [(MF, 4), (DE, 10), (MMSE, 10)])
    def test_monotone_convergence_from_small_powers(self, kind, K, model,
                                                    gamma_star):
        # interference-function iterations climb monotonically from below
        params = make_params(K=K, N=64)
        from powergame.system import make_sir_engine
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            realization = draw_realization(rng, 64, K)
            h2 = realization.H[0] ** 2
            engine = make_sir_engine(kind, realization.S.T @ realization.S,
                                     params.sigma2)
            p = np.full(K, 1e-12)
            ok, settled = True, False
            for _ in range(2000):
                p_new = np.minimum(p * gamma_star / engine(p * h2)[0],
                                   params.Pmax)
                if np.any(p_new < p * (1 - 1e-12)):
                    ok = False
                if np.max(np.abs(p_new - p) / p) < 1e-10:
                    settled = True
                    break
                p = p_new
            if not settled or np.any(p >= params.Pmax * (1 - 1e-9)):
                continue  # infeasible draw; monotonicity claim is for feasible ones
            assert ok
            checked += 1

    def test_order_independence(self, model, gamma_star):
        # synchronous sweeps and shuffled one-at-a-time updates agree
        params = make_params(K=12, N=64)
        realization, result = feasible_instance(
            lambda a: np.random.default_rng((12, a)), MMSE, params, model,
            gamma_star, 64, 12)
        rng = np.random.default_rng(13)
        p = np.full(12, 1e-2 * params.Pmax)
        for _ in range(200):
            for k in rng.permutation(12):
                p[k] = best_response_power(k, p, realization, MMSE,
                                           gamma_star, params.sigma2,
                                           params.Pmax)
        assert np.allclose(p, result.powers, rtol=1e-6)

    def test_receiver_ordering_of_mean_utilities(self, model, gamma_star):
        # MMSE earns at least as much as DE and MF on average at equilibrium
        K, N, trials = 5, 64, 500
        params = make_params(K=K, N=N)
        sums = {kind: 0.0 for kind in KINDS}
        kept = 0
        t = 0
        while kept < trials:
            t += 1
            realization = draw_realization(np.random.default_rng((14, t)), N, K)
            results = {}
            feasible = True
            for kind in KINDS:
                r = solve_equilibrium(realization, kind, params, model,
                                      gamma_star=gamma_star, max_iter=3000)
                if not r.converged or r.clamped_users:
                    feasible = False
                    break
                results[kind] = r
            if not feasible:
                continue
            kept += 1
            for kind in KINDS:
                r = results[kind]
                sums[kind] += float(np.mean([
                    utility(p, g, params, model)
                    for p, g in zip(r.powers.tolist(), r.sirs.tolist())]))
        assert sums[MMSE] >= sums[DE]
        assert sums[MMSE] >= sums[MF]


class TestVerifyNash:
    def test_converged_equilibrium_is_nash(self, model, gamma_star):
        params = make_params(K=10, N=64)
        for kind in KINDS:
            realization, result = feasible_instance(
                lambda a: np.random.default_rng((15, a)), kind, params, model,
                gamma_star, 64, 10)
            assert verify_nash(result, realization, kind, params, model)

    def test_single_user_is_nash(self, model):
        params = make_params(K=1)
        realization = draw_realization(np.random.default_rng(16), 64, 1)
        result = solve_equilibrium(realization, MMSE, params, model)
        assert verify_nash(result, realization, MMSE, params, model)

    def test_unilateral_deviation_hurts(self, model, gamma_star):
        from powergame.system import output_sir, receiver_filter, utility
        params = make_params(K=10, N=64)
        realization, result = feasible_instance(
            lambda a: np.random.default_rng((17, a)), MMSE, params, model,
            gamma_star, 64, 10)
        k = 2
        perturbed = result.powers.copy()
        perturbed[k] *= 1.5
        c = receiver_filter(MMSE, k, realization.S, realization.H[0],
                            perturbed, params.sigma2)
        g = output_sir(c, k, realization.S, realization.H[0], perturbed,
                       params.sigma2)
        assert utility(perturbed[k], g, params, model) < utility(
            result.powers[k], result.sirs[k], params, model)

    @staticmethod
    def deviated_profile(kind, factor, model, gamma_star):
        """A converged equilibrium with user 4's power scaled by factor."""
        from dataclasses import replace

        from powergame.system import make_sir_engine

        params = make_params(K=10, N=64)
        realization, result = feasible_instance(
            lambda a: np.random.default_rng((18, a)), kind, params, model,
            gamma_star, 64, 10)
        # rebuild the profile so the SIRs are consistent with the powers
        powers = result.powers.copy()
        powers[4] *= factor
        engine = make_sir_engine(kind, realization.S.T @ realization.S,
                                 params.sigma2)
        sirs = engine(powers * realization.H[0] ** 2)[0]
        broken = replace(result, powers=powers, sirs=sirs)
        return broken, realization, params

    @pytest.mark.parametrize("kind", KINDS)
    def test_detects_non_equilibrium(self, kind, model, gamma_star):
        # user 4 overspends by far, or misses its best power by 1% either way
        for factor in (3.0, 0.99, 1.01):
            broken, realization, params = self.deviated_profile(
                kind, factor, model, gamma_star)
            assert not verify_nash(broken, realization, kind, params, model)

    @pytest.mark.parametrize("kind", KINDS)
    def test_reads_only_the_powers(self, kind, model, gamma_star):
        # the SIRs left from the equilibrium are stale: only the powers
        # show that user 4 overspends
        from dataclasses import replace

        params = make_params(K=10, N=64)
        realization, result = feasible_instance(
            lambda a: np.random.default_rng((18, a)), kind, params, model,
            gamma_star, 64, 10)
        powers = result.powers.copy()
        powers[4] *= 3.0
        assert not verify_nash(replace(result, powers=powers), realization,
                               kind, params, model)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_never_calls_the_solver_engine(self, kind, m, model, gamma_star,
                                           monkeypatch):
        # the check reads the SIRs off each filter's weights, so it still
        # gives both verdicts with the solver's balance map gone
        from dataclasses import replace

        params = make_params(K=10, N=64, m=m)
        realization, result = feasible_instance(
            lambda a: np.random.default_rng((18, a)), kind, params, model,
            gamma_star, 64, 10, m=m)

        def no_engine(*args):
            raise AssertionError("make_sir_engine was called")

        for module in ("powergame.game", "powergame.system"):
            monkeypatch.setattr(f"{module}.make_sir_engine", no_engine)
        assert verify_nash(result, realization, kind, params, model)
        powers = result.powers.copy()
        powers[4] *= 3.0
        assert not verify_nash(replace(result, powers=powers), realization,
                               kind, params, model)

    @pytest.mark.parametrize("kind", KINDS)
    def test_detects_underspending_user(self, kind, model, gamma_star):
        # only a deviation above the current power gains, which a check that
        # underestimates the deviating user's SIR would miss
        broken, realization, params = self.deviated_profile(
            kind, 0.5, model, gamma_star)
        assert not verify_nash(broken, realization, kind, params, model)

    @pytest.mark.parametrize("kind", KINDS)
    def test_agrees_with_a_dense_probe_grid(self, kind, model, gamma_star):
        # the reference: sweep each user's power over a dense grid up to
        # Pmax, the others frozen, and look for a gain beyond NASH_REL_TOL
        def grid_finds_gain(profile, realization, params):
            rate = sir_per_watt(kind, realization.S, realization.H,
                                profile.powers, params.sigma2)
            for p, w in zip(profile.powers.tolist(), rate.tolist()):
                base = utility(p, p * w, params, model)
                grid = np.geomspace(1e-3 * p, params.Pmax, 4001).tolist()
                if max(utility(x, x * w, params, model) for x in grid) > (
                        base * (1.0 + NASH_REL_TOL)):
                    return True
            return False

        for factor in (1.0, 0.5, 0.99, 1.01, 3.0):
            profile, realization, params = self.deviated_profile(
                kind, factor, model, gamma_star)
            gain = grid_finds_gain(profile, realization, params)
            assert gain is (factor != 1.0)
            assert verify_nash(profile, realization, kind, params,
                               model) is not gain


    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("power", [0.0, -1e-12])
    def test_nonpositive_power_is_a_value_error(self, kind, power, model,
                                                gamma_star):
        # user 0 is checked first, so no other user's verdict precedes it
        from dataclasses import replace

        profile, realization, params = self.deviated_profile(
            kind, 1.0, model, gamma_star)
        powers = profile.powers.copy()
        powers[0] = power
        with pytest.raises(ValueError):
            verify_nash(replace(profile, powers=powers), realization, kind,
                        params, model)

    def test_users_at_pmax(self, model, gamma_star):
        # an overloaded matched filter clamps users at Pmax, which is their
        # best response; a user raised to Pmax from its balanced power is not
        from dataclasses import replace

        params = make_params(K=30)
        realization = draw_realization(np.random.default_rng(7), 100, 30)
        result = solve_equilibrium(realization, MF, params, model)
        assert result.clamped_users
        assert verify_nash(result, realization, MF, params, model)
        profile, realization, params = self.deviated_profile(
            MF, 1.0, model, gamma_star)
        powers = profile.powers.copy()
        powers[4] = params.Pmax
        assert not verify_nash(replace(profile, powers=powers), realization,
                               MF, params, model)

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    def test_user_with_zero_rate(self, factor, model, gamma_star,
                                 monkeypatch):
        # a user whose filter sees none of its own signal (w = 0) earns 0
        # at every power: its best response is Pmax and it compares 0 with
        # 0, never a NaN, so only the other users decide the verdict
        profile, realization, params = self.deviated_profile(
            MF, factor, model, gamma_star)

        def zero_rate(*args):
            rate = sir_per_watt(*args)
            rate[3] = 0.0
            return rate

        monkeypatch.setattr("powergame.game.sir_per_watt", zero_rate)
        with np.errstate(divide="ignore"):
            assert verify_nash(profile, realization, MF, params,
                               model) is (factor == 1.0)


class TestReceiverSwitching:
    """The paper's headline: at an MF or DE equilibrium every user would
    reach a higher SIR with the MMSE receiver at the same powers, and at the
    MMSE equilibrium no user's MF or DE SIR beats its MMSE SIR. In bits per
    joule, with receiver and power chosen together, MMSE is the only
    receiver no user leaves."""

    K, N = 8, 64  # load 0.125, under the MF limit 0.154

    @staticmethod
    def sir(kind, k, realization, powers, sigma2):
        S, heff = realization.S, realization.H[0]
        c = receiver_filter(kind, k, S, heff, powers, sigma2)
        return output_sir(c, k, S, heff, powers, sigma2)

    def equilibrium(self, kind, seed, model, gamma_star):
        params = make_params(K=self.K, N=self.N)
        realization, result = feasible_instance(
            lambda a: np.random.default_rng((20, seed, a)), kind, params,
            model, gamma_star, self.N, self.K)
        return realization, result.powers, params.sigma2

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", [MF, DE])
    def test_switching_to_mmse_pays(self, kind, seed, model, gamma_star):
        realization, powers, sigma2 = self.equilibrium(kind, seed, model,
                                                       gamma_star)
        for k in range(self.K):
            assert (self.sir(MMSE, k, realization, powers, sigma2)
                    > gamma_star * (1 + 1e-9))

    @pytest.mark.parametrize("seed", range(3))
    def test_leaving_mmse_never_pays(self, seed, model, gamma_star):
        realization, powers, sigma2 = self.equilibrium(MMSE, seed, model,
                                                       gamma_star)
        for k in range(self.K):
            best = self.sir(MMSE, k, realization, powers, sigma2)
            assert best == pytest.approx(gamma_star, rel=1e-6)
            for kind in (MF, DE):
                assert (self.sir(kind, k, realization, powers, sigma2)
                        <= best * (1 + 1e-9))

    @pytest.mark.parametrize("m", [1, 2])
    def test_joint_receiver_and_power_choice(self, m, model, gamma_star):
        def own_and_best(kind, realization, powers, params):
            """Each user's utility on receiver kind at its own power and at
            its best response min(gamma*/w, Pmax), the others frozen."""
            rate = sir_per_watt(kind, realization.S, realization.H, powers,
                                params.sigma2)
            best = np.minimum(gamma_star / rate, params.Pmax)
            return (np.array([utility(p, p * w, params, model)
                              for p, w in zip(powers, rate)]),
                    np.array([utility(b, b * w, params, model)
                              for b, w in zip(best, rate)]))

        cases = [(MMSE, self.K, self.N), (MMSE, 110, 100),
                 (MF, self.K, self.N), (DE, self.K, self.N)]
        for kind, K, N in cases:
            params = make_params(K=K, N=N, m=m)
            realization, result = feasible_instance(
                lambda a: np.random.default_rng((21, m, K, a)), kind, params,
                model, gamma_star, N, K, m=m)
            powers = result.powers
            own = own_and_best(kind, realization, powers, params)[0]
            if kind is MMSE:
                # the decorrelator needs K <= N
                for other in (MF, DE) if K <= N else (MF,):
                    best = own_and_best(other, realization, powers, params)[1]
                    assert np.all(best <= own * (1 + NASH_REL_TOL))
            else:
                best = own_and_best(MMSE, realization, powers, params)[1]
                assert np.all(best > own * (1 + NASH_REL_TOL))


class TestOverloadedMmse:
    def test_balances_beyond_one_user_per_dimension(self, model, gamma_star):
        # the MMSE load limit exceeds 1, so K > N systems still balance
        params = make_params(K=110, N=100)
        realization, result = feasible_instance(
            lambda a: np.random.default_rng((19, a)), MMSE, params, model,
            gamma_star, 100, 110)
        assert np.max(np.abs(result.sirs - gamma_star) / gamma_star) <= 1e-6
        assert verify_nash(result, realization, MMSE, params, model)


class TestMultiAntenna:
    # m antennas play the single-antenna game on effective_gram, so the
    # per-user entry points take an m = 2 realization like an m = 1 one
    K, N = 6, 32

    def equilibrium(self, kind, model, gamma_star):
        params = make_params(K=self.K, N=self.N, m=2)
        realization = draw_realization(np.random.default_rng(25), self.N,
                                       self.K, m=2)
        result = solve_equilibrium(realization, kind, params, model,
                                   gamma_star=gamma_star)
        assert result.converged and not result.clamped_users
        return realization, result, params

    @pytest.mark.parametrize("kind", KINDS)
    def test_verify_nash_accepts_equilibrium(self, kind, model, gamma_star):
        realization, result, params = self.equilibrium(kind, model,
                                                       gamma_star)
        assert verify_nash(result, realization, kind, params, model)

    @pytest.mark.parametrize("kind", KINDS)
    def test_verify_nash_rejects_deviation(self, kind, model, gamma_star):
        from dataclasses import replace

        realization, result, params = self.equilibrium(kind, model,
                                                       gamma_star)
        powers = result.powers.copy()
        powers[2] *= 3.0
        gram, h2 = effective_gram(kind, realization.S, realization.H)
        sirs = make_sir_engine(kind, gram, params.sigma2)(powers * h2)[0]
        broken = replace(result, powers=powers, sirs=sirs)
        assert not verify_nash(broken, realization, kind, params, model)

    @pytest.mark.parametrize("kind", KINDS)
    def test_async_best_responses_reach_equilibrium(self, kind, model,
                                                    gamma_star):
        realization, result, params = self.equilibrium(kind, model,
                                                       gamma_star)
        rng = np.random.default_rng(26)
        p = np.full(self.K, 1e-2 * params.Pmax)
        for _ in range(200):
            for k in rng.permutation(self.K):
                p[k] = best_response_power(k, p, realization, kind,
                                           gamma_star, params.sigma2,
                                           params.Pmax)
        assert np.allclose(p, result.powers, rtol=1e-6)
