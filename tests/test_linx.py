"""Relaxation objective, gradient, and the conditional-gradient solver."""

import math

import numpy as np
import pytest

from linxbound import (
    Mask,
    SolverOptions,
    SymMatrix,
    certify_gamma_optimal,
    exact_mesp,
    linx_gradient,
    linx_objective,
    lmo_capped_simplex,
    optimize_gamma,
    solve_diagonal_linx,
    solve_linx,
    validate,
)

from linxbound import linx
from linxbound.linx import _kkt_step

from helpers import (
    correlation_matrix,
    count_derivative_calls,
    dense_point,
    diagonal_entries,
    engine_solve,
    gram_matrix,
    hessian_error,
    ill_conditioned,
    interior_point,
    is_feasible,
    linx_problem,
    reject_long_steps,
)

HALF = math.sqrt(2.0) / 2.0


def _instance(entries, s):
    return validate(SymMatrix.from_array(entries), s)


class TestObjective:
    def test_identity_is_zero_everywhere(self):
        inst = _instance(np.eye(4), 2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.dirichlet(np.ones(4)) * 2.0
            x = np.clip(x, 0.0, 1.0)
            # Q^T F Q is exactly I: u = v = e cancel in u u^T - v v^T
            assert linx_objective(inst, Mask.ones(4), 1.0, x) == 0.0

    def test_all_ones_at_uniform_point(self):
        inst = _instance(np.ones((2, 2)), 1)
        val = linx_objective(inst, Mask.ones(2), 1.0, [0.5, 0.5])
        assert val == pytest.approx(0.5 * math.log(1.25), abs=1e-14)

    def test_identity_mask_keeps_only_diagonal(self):
        inst = _instance(HALF * np.ones((2, 2)), 1)
        val = linx_objective(inst, Mask.identity(2), 1.0, [0.5, 0.5])
        assert val == pytest.approx(math.log(0.75), abs=1e-14)

    def test_singular_point_collapses(self):
        # F is exactly singular here; factorization either fails (-inf) or
        # survives on a rounding-level pivot, in which case the value is
        # the log of a determinant at float-noise scale
        inst = _instance(np.ones((2, 2)), 1)
        val = linx_objective(inst, Mask.ones(2), 1.0, [1.0, 1.0])
        assert val == float("-inf") or val < -15.0

    def test_rejects_nonpositive_gamma(self):
        inst = _instance(np.eye(2), 1)
        with pytest.raises(ValueError):
            linx_objective(inst, Mask.ones(2), 0.0, [0.5, 0.5])

    def test_exact_at_binary_points(self):
        from linxbound import logdet_submatrix

        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            s = int(rng.integers(1, n))
            gamma = math.exp(rng.uniform(-2, 2))
            inst = _instance(gram_matrix(rng, n), s)
            subset = tuple(sorted(rng.choice(n, size=s, replace=False)))
            x = np.zeros(n)
            x[list(subset)] = 1.0
            want = logdet_submatrix(inst.C, subset)
            got = linx_objective(inst, Mask.ones(n), gamma, x)
            assert got == pytest.approx(want, abs=1e-10)

    def test_scaling_identity(self):
        # f(C, gamma; x) = f(sqrt(gamma) C, 1; x) - (s/2) log(gamma)
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            s = int(rng.integers(1, n))
            gamma = math.exp(rng.uniform(-2, 2))
            c = gram_matrix(rng, n)
            x = np.full(n, s / n)
            lhs = linx_objective(_instance(c, s), Mask.ones(n), gamma, x)
            rhs = linx_objective(_instance(math.sqrt(gamma) * c, s), Mask.ones(n), 1.0, x)
            assert lhs == pytest.approx(rhs - 0.5 * s * math.log(gamma), abs=1e-10)

    def test_concavity_along_segments(self):
        rng = np.random.default_rng(6)
        inst = _instance(gram_matrix(rng, 6), 3)
        mask = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, 6)))
        for _ in range(20):
            x = rng.dirichlet(np.ones(6)) * 3.0
            y = rng.dirichlet(np.ones(6)) * 3.0
            if np.any(x > 1.0) or np.any(y > 1.0):
                continue
            lam = float(rng.uniform())
            fx = linx_objective(inst, mask, 1.0, x)
            fy = linx_objective(inst, mask, 1.0, y)
            fmid = linx_objective(inst, mask, 1.0, lam * x + (1 - lam) * y)
            assert fmid >= lam * fx + (1 - lam) * fy - 1e-10


class TestGradient:
    def test_diagonal_closed_form(self):
        d = np.array([2.0, 1.5, 0.5])
        inst = _instance(np.diag(d), 1)
        x = np.array([0.4, 0.35, 0.25])
        got = linx_gradient(inst, Mask.identity(3), 1.0, x)
        want = (d * d - 1.0) / (2.0 * ((d * d - 1.0) * x + 1.0))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_gradient_sign_tracks_diagonal(self):
        # coordinates with d_i > 1 pull up, d_i < 1 push down, d_i = 1 flat
        d = np.array([2.0, 1.0, 0.5])
        inst = _instance(np.diag(d), 1)
        g = linx_gradient(inst, Mask.ones(3), 1.0, np.full(3, 1 / 3))
        assert g[0] > 0 and g[1] == 0 and g[2] < 0

    def test_identity_gradient_is_zero(self):
        inst = _instance(np.eye(3), 1)
        g = linx_gradient(inst, Mask.ones(3), 1.0, np.full(3, 1 / 3))
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        inst = _instance(gram_matrix(rng, 5), 2)
        mask = Mask.ones(5)
        x = np.full(5, 2 / 5)
        grad = linx_gradient(inst, mask, 1.0, x)
        fd = np.zeros(5)
        for i in range(5):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (
                linx_objective(inst, mask, 1.0, xp) - linx_objective(inst, mask, 1.0, xm)
            ) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_raises_outside_positive_definite_region(self):
        inst = _instance(np.ones((2, 2)), 1)
        with pytest.raises(np.linalg.LinAlgError):
            linx_gradient(inst, Mask.ones(2), 1.0, np.array([2.0, -1.0]))


class TestHessian:
    """The barrier engine's Newton steps use these Hessians; a wrong one
    shows otherwise only as slow or failed convergence."""

    def test_general_path_matches_gradient_differences(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for trial in range(30):
            n = int(rng.integers(3, 9))
            s = int(rng.integers(1, n))
            inst = _instance(gram_matrix(rng, n), s)
            if trial % 3 == 0:
                mask = Mask.ones(n)
            elif trial % 3 == 1:
                mask = Mask.identity(n)
            else:
                mask = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, n)))
            problem = linx_problem(inst, mask, math.exp(rng.uniform(-1.5, 1.5)), s)
            worst = max(worst, hessian_error(problem, interior_point(rng, n, s)))
        # the ill-conditioned family at gamma = e^15 to e^30, where the dense
        # F's Hessian was off by up to 1.0
        for seed in range(3000, 3012):
            C, s = ill_conditioned(seed)
            n = C.shape[0]
            problem = linx_problem(_instance(C, s), Mask.ones(n), math.exp(rng.uniform(15.0, 30.0)), s)
            worst = max(worst, hessian_error(problem, interior_point(rng, n, s)))
        assert worst <= 1e-5

    def test_diagonal_path_matches_gradient_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            s = int(rng.integers(1, n))
            inst = _instance(np.diag(diagonal_entries(rng, n)), s)
            problem = linx_problem(inst, Mask.ones(n), math.exp(rng.uniform(-1.5, 1.5)), s)
            assert hessian_error(problem, interior_point(rng, n, s)) <= 1e-5


class TestLmo:
    def test_top_s_selection(self):
        np.testing.assert_array_equal(
            lmo_capped_simplex([3.0, 1.0, 2.0], 2), [1.0, 0.0, 1.0]
        )

    def test_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(
            lmo_capped_simplex([1.0, 1.0, 1.0], 1), [1.0, 0.0, 0.0]
        )

    def test_all_negative_entries(self):
        np.testing.assert_array_equal(
            lmo_capped_simplex([-1.0, -2.0, -3.0], 2), [1.0, 1.0, 0.0]
        )

    def test_maximizes_linear_form(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = int(rng.integers(1, n))
            g = rng.normal(size=n)
            v = lmo_capped_simplex(g, s)
            assert v.sum() == s
            # compare against the obvious sort-based optimum
            assert g @ v == pytest.approx(np.sort(g)[::-1][:s].sum(), abs=1e-12)

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            lmo_capped_simplex([1.0, 2.0], 2)


class TestSolve:
    def test_shifted_identity_keeps_uniform_maximizer(self):
        c = 1.0 * np.eye(4) + 2.0 * np.ones((4, 4))
        res = solve_linx(_instance(c, 2), 2)
        assert res.converged
        np.testing.assert_allclose(res.x_hat, 0.5, atol=1e-9)

    def test_all_ones_2x2_value(self):
        res = solve_linx(_instance(np.ones((2, 2)), 1), 1)
        assert res.converged
        assert res.value == pytest.approx(0.5 * math.log(1.25), abs=1e-9)

    def test_matches_diagonal_closed_form(self):
        d = np.array([2.0, 1.5, 0.5])
        res = engine_solve(_instance(np.diag(d), 1), 1)
        sol = solve_diagonal_linx(d, 1)
        assert res.value == pytest.approx(0.7254164411287309, abs=1e-9)
        assert sol.value == pytest.approx(res.value, abs=1e-9)
        np.testing.assert_allclose(res.x_hat, [11 / 15, 4 / 15, 0.0], atol=1e-6)

    def test_flat_objective_returns_start_point(self):
        res = engine_solve(_instance(np.eye(3), 1), 1)
        assert res.converged and res.iterations == 1
        np.testing.assert_allclose(res.x_hat, 1 / 3)

    def test_result_is_feasible_and_certified(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            s = int(rng.integers(1, n))
            res = solve_linx(_instance(gram_matrix(rng, n), s), s)
            assert is_feasible(res.x_hat, s)
            assert res.duality_gap >= 0.0
            assert res.converged

    def test_dominates_exact_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            s = int(rng.integers(1, n))
            inst = _instance(gram_matrix(rng, n), s)
            ex = exact_mesp(inst, s)
            for gamma in (0.25, 1.0, 4.0):
                for mask in (Mask.ones(n), Mask.identity(n)):
                    res = solve_linx(inst, s, mask, gamma)
                    assert res.value >= ex.value - 1e-8

    def test_iteration_cap_flags_nonconvergence(self):
        d = np.array([2.0, 1.5, 0.5])
        res = engine_solve(_instance(np.diag(d), 1), 1, opts=SolverOptions(max_iter=1))
        assert not res.converged
        assert res.iterations == 1

    def test_max_iter_must_be_an_integer(self):
        # the budget is spent when the call count equals max_iter, which a
        # count never does for 3.5: such a solve ran 10 calls and converged
        with pytest.raises(TypeError):
            SolverOptions(max_iter=3.5)
        with pytest.raises(TypeError):
            SolverOptions(max_iter=3.0)
        inst = _instance(gram_matrix(np.random.default_rng(0), 8), 4)
        res = solve_linx(inst, 4, opts=SolverOptions(max_iter=np.int64(3)))
        assert res.iterations == 3 and not res.converged

    def test_upper_bound_is_value_plus_gap(self):
        res = solve_linx(_instance(gram_matrix(np.random.default_rng(45), 6), 3), 3)
        assert res.upper_bound == res.value + res.duality_gap
        with pytest.raises(AttributeError):
            res.upper_bound = 0.0

    def test_rejects_bad_gamma_and_s(self):
        inst = _instance(np.eye(3), 1)
        with pytest.raises(ValueError):
            solve_linx(inst, 1, gamma=-1.0)
        with pytest.raises(ValueError):
            solve_linx(inst, 3)

    @pytest.mark.parametrize(
        "gamma", [math.nan, math.inf, float("1e400"), -math.inf], ids=["nan", "inf", "1e400", "-inf"]
    )
    @pytest.mark.parametrize(
        "entries",
        [np.diag([2.0, 1.5, 0.5]), gram_matrix(np.random.default_rng(47), 3)],
        ids=["diagonal", "dense"],
    )
    def test_rejects_non_finite_gamma(self, entries, gamma):
        # a diagonal input used to return NaN (or fail on its diagonal), a
        # dense one to fail inside the solver
        inst = _instance(entries, 1)
        x = np.full(3, 1.0 / 3.0)
        for call in (
            lambda: solve_linx(inst, 1, gamma=gamma),
            lambda: linx_objective(inst, Mask.ones(3), gamma, x),
            lambda: linx_gradient(inst, Mask.ones(3), gamma, x),
        ):
            with pytest.raises(ValueError, match="finite positive"):
                call()

    def test_mask_id_propagates(self):
        inst = _instance(np.eye(3), 1)
        assert solve_linx(inst, 1).mask_id == "J"
        assert solve_linx(inst, 1, Mask.identity(3)).mask_id == "I"


class TestLargeInstances:
    def test_dense_n128_converges_at_default_options(self):
        # the pairwise Frank-Wolfe engine stalled here just above its
        # gap tolerance after about 1,160 iterations
        inst = _instance(gram_matrix(np.random.default_rng(0), 128), 64)
        res = solve_linx(inst, 64)
        assert res.converged
        assert is_feasible(res.x_hat, 64)
        # the optimum has no coordinate at a bound; a face finish that fixed
        # only coordinates near one climbed t to about 1e9 in 31 steps, and
        # damped steps x + dx / (1 + lam) without a line search took 17
        assert res.iterations <= 10


def _ill_conditioned(seed, n=8):
    """Q diag(logspace(0, -8, n)) Q^T with Q orthogonal from seeded QR."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return (q * np.logspace(0.0, -8.0, n)) @ q.T


class TestLineSearch:
    @pytest.mark.parametrize("n", [8, 12, 32, 64, 128])
    def test_gram_solves_take_few_steps(self, n):
        # damped steps alone took 17, 16, 30, 17 and 17 steps here: the
        # decrement restarts at 2 to 38 after each growth of t and then
        # falls by about 1 per step
        inst = _instance(gram_matrix(np.random.default_rng(0), n), n // 2)
        res = solve_linx(inst, n // 2)
        assert res.converged
        assert res.iterations <= 12

    def test_ill_conditioned_single_picks_take_few_steps(self):
        # damped steps alone took 175 steps in all
        total = 0
        for seed in range(10):
            res = solve_linx(_instance(_ill_conditioned(seed), 1), 1, gamma=5.0)
            assert res.converged, seed
            total += res.iterations
        assert total <= 140

    def test_every_trial_counts_as_an_iteration(self, monkeypatch):
        calls = count_derivative_calls(monkeypatch)
        rng = np.random.default_rng(46)
        cases = [(_ill_conditioned(seed), 1, Mask.ones(8), 5.0) for seed in range(3)]
        for k in range(8):
            n = int(rng.integers(5, 13))
            s = int(rng.integers(1, n))
            corr = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, n)))
            cases.append((gram_matrix(rng, n), s, corr if k % 2 else Mask.ones(n), 0.5 + k / 4))
        for entries, s, mask, gamma in cases:
            calls[0] = 0
            res = solve_linx(_instance(entries, s), s, mask, gamma)
            assert res.converged
            assert calls[0] == res.iterations

    def test_iteration_cap_bounds_the_calls(self, monkeypatch):
        calls = count_derivative_calls(monkeypatch)
        inst = _instance(gram_matrix(np.random.default_rng(0), 32), 16)
        for k in range(1, 30):
            calls[0] = 0
            res = solve_linx(inst, 16, opts=SolverOptions(max_iter=k))
            assert calls[0] == res.iterations <= k

    def test_damped_fallback(self, monkeypatch):
        # no workload rejects a long step, so reject every one: each step
        # then pays for its long trial and takes the damped step after it
        calls = count_derivative_calls(monkeypatch)
        for n in (8, 12, 32):
            inst = _instance(gram_matrix(np.random.default_rng(0), n), n // 2)
            kept = solve_linx(inst, n // 2).iterations
            with monkeypatch.context() as patch:
                reject_long_steps(patch)
                calls[0] = 0
                res = solve_linx(inst, n // 2)
                assert res.converged
                assert calls[0] == res.iterations > kept
                for k in range(1, 16):
                    calls[0] = 0
                    res = solve_linx(inst, n // 2, opts=SolverOptions(max_iter=k))
                    assert calls[0] == res.iterations <= k

    def test_unreachable_target_stops_early(self):
        # entries up to 3.4e3 and f about 116, so tol_fw = 1e-10 is about
        # 1e-12 relative, near the rounding level of f, which the eigenbasis
        # evaluation still meets in a few evaluations
        inst = _instance(2000.0 * gram_matrix(np.random.default_rng(0), 19), 9)
        res = solve_linx(inst, 9, opts=SolverOptions(tol_fw=1e-10))
        assert res.iterations <= 200
        assert is_feasible(res.x_hat, 9)
        assert res.duality_gap <= 1e-8

    @pytest.mark.parametrize("search,seed,tol", [(False, 2, 1e-15), (False, 3, 1e-16),
                                                 (True, 3, 1e-16)])
    def test_target_below_rounding_stops_early(self, search, seed, tol):
        # these targets lie below the rounding floor, so the engine stops at
        # the floor, after 4, 12 and 10 evaluations; a solve that chases a
        # target under it spends tens of evaluations on rounding
        inst = _instance(2000.0 * gram_matrix(np.random.default_rng(seed), 19), 9)
        opts = SolverOptions(tol_fw=tol)
        res = optimize_gamma(inst, 9, opts=opts).best if search else solve_linx(inst, 9, opts=opts)
        assert res.iterations <= 20
        assert not res.converged
        assert is_feasible(res.x_hat, 9)

    @pytest.mark.parametrize("seed,tol", [(1, 1e-16), (1, 1e-17), (1, 1e-18), (47, 1e-17)])
    def test_t_stops_below_the_cap(self, seed, tol):
        # sub-floor targets, met at the floor in 9, 9, 9 and 12
        # evaluations; past the cap on t, rounding would keep the decrement
        # above 1/4 and these searches (n = 12, s = 6 and n = 7, s = 5)
        # would spend all 5,000
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        s = int(rng.integers(1, n))
        inst = _instance(gram_matrix(rng, n), s)
        res = optimize_gamma(inst, s, opts=SolverOptions(tol_fw=tol)).best
        assert res.iterations <= 20
        assert not res.converged
        assert is_feasible(res.x_hat, s)
        assert res.upper_bound >= exact_mesp(inst, s).value

    def test_target_below_the_rounding_floor_never_converges(self, monkeypatch):
        # eps patched so that the floor 8 n eps max(1, |f0|) is 2e-6: the
        # engine stops at the floor, not at tol_fw = 1e-6, and a target
        # under the floor is rounding, not a certificate, so the result is
        # not converged; its bound holds
        inst = _instance(gram_matrix(np.random.default_rng(0), 10), 5)
        f0 = linx_objective(inst, Mask.ones(10), 1.0, np.full(10, 0.5))
        floor = 2e-6
        monkeypatch.setattr(linx, "_EPS", floor / (8 * 10 * max(1.0, abs(f0))))
        res = solve_linx(inst, 5, opts=SolverOptions(tol_fw=1e-6))
        assert res.duality_gap <= floor
        assert not res.converged
        assert res.upper_bound >= exact_mesp(inst, 5).value

    @pytest.mark.parametrize("case", ["ill3000", "ill3018", "ill3019", "ill3022",
                                      "gram2", "gram3"])
    def test_every_target_below_the_floor_gives_one_result(self, case):
        # the engine stops at max(tol_fw, floor), so all these sub-floor
        # targets give the result of tol_fw = floor, never converged; the
        # searches take 11 or 13 evaluations, the solves 4 and 12
        if case.startswith("ill"):
            entries, s = ill_conditioned(int(case[3:]))
        else:
            entries, s = 2000.0 * gram_matrix(np.random.default_rng(int(case[4:])), 19), 9
        inst = _instance(entries, s)
        results = []
        for tol in (1e-15, 1e-16, 1e-18):
            opts = SolverOptions(tol_fw=tol)
            if case.startswith("ill"):
                res = optimize_gamma(inst, s, opts=opts).best
            else:
                res = solve_linx(inst, s, opts=opts)
            assert res.iterations <= 20
            assert not res.converged
            assert is_feasible(res.x_hat, s)
            results.append(res)
        first = results[0]
        for res in results[1:]:
            assert (res.value, res.duality_gap, res.iterations) == (
                first.value, first.duality_gap, first.iterations)
            assert np.array_equal(res.x_hat, first.x_hat)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_t_cap_ends_an_unreachable_target(self, monkeypatch, seed):
        # SLOPE_TOL < 0 makes the target unreachable, for a fixed-gamma
        # solve too, and keeps converged False, which a patched _met would
        # not, so only the cap on t ends the barrier; t never passes
        # 8 n / max(tol, floor), and the solves take 60 to 74 evaluations
        newton_step, gap_tol = linx._newton_step, linx._gap_tol
        ts, caps = [], []
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        s = int(rng.integers(1, n))

        def recorded_step(x, point, t):
            ts.append(t)
            return newton_step(x, point, t)

        def recorded_tol(opts, f0):
            tol = gap_tol(opts, f0)
            caps.append(8.0 * n / max(tol, 8.0 * n * linx._EPS * max(1.0, abs(f0))))
            return tol

        monkeypatch.setattr(linx, "SLOPE_TOL", -1.0)
        monkeypatch.setattr(linx, "_newton_step", recorded_step)
        monkeypatch.setattr(linx, "_gap_tol", recorded_tol)
        inst = _instance(gram_matrix(rng, n), s)
        for solve in (lambda: solve_linx(inst, s), lambda: optimize_gamma(inst, s).best):
            ts.clear()
            caps.clear()
            res = solve()
            assert not res.converged
            assert res.iterations <= 100
            assert len(caps) == 1 and max(ts) <= caps[0]


class TestKktStep:
    def test_solves_the_bordered_system(self):
        rng = np.random.default_rng(8)
        n = 7
        b = rng.normal(size=(n, n))
        H = b @ b.T + np.eye(n)
        grad = rng.normal(size=n)
        dx, dpsi, dec = _kkt_step(grad, H)
        assert abs(dx.sum()) <= 1e-12
        residual = H @ dx + grad  # a multiple of e
        assert np.ptp(residual) <= 1e-12 * np.abs(residual).max()
        assert dec == pytest.approx(math.sqrt(dx @ H @ dx), rel=1e-12)
        assert dpsi == 0.0

        # dec = max(lam, mu); lam is the larger at g_psi = 0.3, mu at g_psi = 30
        h_pp, h_xp = -2.5, rng.normal(size=n)
        for g_psi, lam_larger in ((0.3, True), (30.0, False)):
            dx, dpsi, dec = _kkt_step(grad, H, (g_psi, h_pp, h_xp))
            full = np.zeros((n + 2, n + 2))
            full[:n, :n], full[:n, n], full[n, :n], full[n, n] = H, h_xp, h_xp, h_pp
            full[:n, n + 1] = full[n + 1, :n] = 1.0
            ref = np.linalg.solve(full, -np.r_[grad, g_psi, 0.0])
            assert np.allclose(dx, ref[:n], rtol=0.0, atol=1e-12)
            assert dpsi == pytest.approx(ref[n], abs=1e-12)
            # on e.dx = 0 the KKT rows give -(grad + dpsi h_xp).dx = dx.H.dx
            lam, mu = math.sqrt(dx @ H @ dx), abs(dpsi) * math.sqrt(2.5)
            assert (lam > mu) == lam_larger
            assert dec == pytest.approx(max(lam, mu), rel=1e-12)

    @pytest.mark.parametrize("carried", [False, True])
    def test_singular_matrix_raises(self, carried):
        # rank one, so elimination leaves an exactly zero pivot
        grad = np.array([1.0, -2.0, 0.5, 0.5])
        border = (0.1, -1.0, np.ones(4)) if carried else None
        with pytest.raises(np.linalg.LinAlgError):
            _kkt_step(grad, np.ones((4, 4)), border)


class TestFaceFinish:
    def test_tight_tolerances_converge(self):
        # the instances of test_scaling.TestPsiSlope; the barrier alone
        # stopped 3, 7 and 11 of these 36 solves early, when rounding
        # pushed a step out of the open box
        for tol in (1e-10, 1e-11, 1e-12):
            rng = np.random.default_rng(36)
            opts = SolverOptions(tol_fw=tol)
            for k in range(12):
                n = int(rng.integers(4, 11))
                s = int(rng.integers(1, n))
                inst = _instance(gram_matrix(rng, n), s)
                if k % 2:
                    mask = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, n)))
                else:
                    mask = Mask.ones(n)
                for psi in (-1.0, 0.0, 1.5):
                    res = solve_linx(inst, s, mask, math.exp(psi), opts)
                    assert res.converged, (tol, k, psi, res.duality_gap)

    def test_step_count_and_exact_bounds(self):
        # the barrier alone averages about 50 Newton steps here and leaves
        # coordinates that belong at a bound a tolerance away from it
        rng = np.random.default_rng(40)
        iterations = []
        for k in range(12):
            n = 6 + k % 7
            s = n // 2 if k % 2 == 0 else n // 3
            inst = _instance(gram_matrix(rng, n), s)
            for gamma in (0.5, 1.0, 2.0):
                res = solve_linx(inst, s, gamma=gamma)
                assert res.converged
                iterations.append(res.iterations)
                x = res.x_hat
                near = np.minimum(x, 1.0 - x) <= 1e-6
                assert np.all((x[near] == 0.0) | (x[near] == 1.0))
        assert np.mean(iterations) <= 30

    def test_tied_pairs_land_together(self):
        # tied diagonal entries give tied coordinates, which a face step
        # carries to a bound together, and the projection fixes both; a
        # ratio test that fixed one of a pair and left the other free at 0
        # divided by zero in _reproject
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(4, 26))
            s = int(rng.integers(1, n))
            d = np.repeat(np.exp(rng.uniform(-0.5, 0.5, size=(n + 1) // 2)), 2)[:n]
            inst = _instance(np.diag(d), s)
            for gamma in (0.3, 1.0, 5.0):
                assert engine_solve(inst, s, gamma=gamma).converged, (n, s, gamma)

    @pytest.mark.parametrize("d, s", [([1.0, 1.0, 0.5], 1), ([2.0, 1.0, 1.0, 0.5], 2)])
    def test_flat_coordinates_match_closed_form(self, d, s):
        # gamma d_i^2 = 1 makes f flat in x_i, with zero gradient and
        # curvature, so the free block of such a face is singular; but any
        # split of the flat coordinates is optimal, and the try's projected
        # point meets the target before a step would meet that block
        d = np.array(d)
        res = engine_solve(_instance(np.diag(d), s), s)
        assert res.converged
        assert abs(res.value - solve_diagonal_linx(d, s).value) <= 1e-12

    @pytest.mark.parametrize("seed, gamma", [(0, 2.0), (164, 0.5), (136, 1.0)])
    def test_a_try_may_cut_twice(self, seed, gamma):
        # steps of these tries carry coordinates to a bound, two steps of
        # one try at seeds 0 and 164, and each fixes them there
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        s = int(rng.integers(1, n))
        res = solve_linx(_instance(gram_matrix(rng, n), s), s, gamma=gamma)
        assert res.converged
        assert res.iterations <= 12

    @pytest.mark.parametrize("seed, n, calls", [(8, 8, 48), (29, 12, 55)])
    def test_a_wrong_face_ends_at_its_optimum(self, seed, n, calls):
        # tries on wrong faces reach the face's optimum in two or three
        # steps; a fixed budget of four steps took 53 and 61 calls here, and
        # the solves take 8 and 10 now that a try repairs a wrong face
        s = n // 2
        res = solve_linx(_instance(gram_matrix(np.random.default_rng(seed), n), s), s)
        assert res.converged
        assert res.iterations <= calls

    @pytest.mark.parametrize("seed, n, s", [(12, 40, 13), (37, 40, 13), (32, 32, 10)])
    def test_a_wrong_face_is_repaired(self, seed, n, s):
        # tries that land on a wrong face release its misfixed coordinates
        # and finish; dropping such a try and growing t took 39, 37 and 32
        # evaluations here
        res = solve_linx(_instance(gram_matrix(np.random.default_rng(seed), n), s), s)
        assert res.converged
        assert res.iterations <= 15

    def test_a_wrongly_fixed_coordinate_is_released(self):
        # x is the optimum, but its ratio to prev fixes the interior x_1 at
        # 0; the face's optimum misses the target, x_1's gradient is above
        # the face's multiplier, and the try frees it and finishes
        n, s = 8, 4
        inst = _instance(gram_matrix(np.random.default_rng(1), n), s)
        x = np.array(solve_linx(inst, s).x_hat)
        assert 0.0 < x[1] < 0.5 and np.all(x[[3, 4]] == 1.0)
        prev = np.where(x == 1.0, 0.5, x)
        prev[1] = 1.0
        problem = linx_problem(inst, Mask.ones(n), 1.0, s)
        face = linx._face_newton(lambda y, psi: problem.derivatives(y), x, prev,
                                 problem.derivatives(x), None, s, 1e-8)
        assert face is not None
        y, _, point = face
        assert y[1] > 0.0
        assert linx._fw_gap(point[1], y, s) <= 1e-8

    def test_a_try_ends_at_the_rounding_floor(self, monkeypatch):
        # with a tol_fw below the floor, rounding would hold dec^2 above it,
        # so a try is given the engine's target max(tol_fw, floor) and ends
        # once dec^2 is below the floor; the one try here takes 7
        # evaluations, and testing dec^2 against tol_fw alone took 17
        face_newton, longest = linx._face_newton, [0]

        def counted(evaluate, *args):
            calls = [0]

            def counting(*point):
                calls[0] += 1
                return evaluate(*point)

            out = face_newton(counting, *args)
            longest[0] = max(longest[0], calls[0])
            return out

        monkeypatch.setattr(linx, "_face_newton", counted)
        rng = np.random.default_rng(82)
        n = int(rng.integers(6, 20))
        s = int(rng.integers(1, n))
        res = solve_linx(_instance(gram_matrix(rng, n), s), s, opts=SolverOptions(tol_fw=1e-16))
        assert not res.converged
        assert longest[0] <= 8


def _separable_cases(rng):
    """(instance, s, mask, diag(C o M)) with ties, unit entries and scales
    from e^-6 to e^6: diagonal matrices under J, and dense ones under I."""
    for k in range(24):
        n = int(rng.integers(3, 11))
        s = int(rng.integers(1, n))
        d = np.exp(rng.uniform(-6.0, 6.0, size=n))
        d[rng.integers(0, n, size=2)] = 1.0
        if k % 3 == 0:
            d[1:3] = d[0]
        if k % 2:
            mask = Mask.ones(n)
            entries = np.diag(d)
        else:
            mask = Mask.identity(n)
            root = np.sqrt(d)
            entries = correlation_matrix(rng, n) * root[:, None] * root[None, :]
            np.fill_diagonal(entries, d)
        yield _instance(entries, s), s, mask, d


class TestSeparableDispatch:
    """A diagonal C o M is solved by the closed form of solve_diagonal_linx."""

    def test_matches_closed_form_and_dominates_oracle(self):
        rng = np.random.default_rng(46)
        for inst, s, mask, d in _separable_cases(rng):
            ex = exact_mesp(inst, s).value
            for gamma in (0.3, 1.0, 5.0):
                res = solve_linx(inst, s, mask, gamma)
                sol = solve_diagonal_linx(math.sqrt(gamma) * d, s)
                np.testing.assert_array_equal(res.x_hat, sol.x_hat)
                assert res.value == sol.value - 0.5 * s * math.log(gamma)
                assert res.iterations == 0 and res.converged
                # at a binary x_hat both sides are the same logdet, up to rounding
                assert res.upper_bound >= ex - 1e-12 * max(1.0, abs(ex))


class TestCertificate:
    def test_binary_maximizer_certifies(self):
        inst = _instance(np.diag([2.0, 1.5, 0.5]), 1)
        res = solve_linx(inst, 1, gamma=0.25)
        assert certify_gamma_optimal(res)
        np.testing.assert_allclose(res.x_hat, [1.0, 0.0, 0.0], atol=1e-9)

    def test_interior_maximizer_does_not_certify(self):
        res = solve_linx(_instance(np.ones((2, 2)), 1), 1, gamma=1.0)
        assert not certify_gamma_optimal(res)

    def test_flat_uniform_maximizer_does_not_certify(self):
        res = solve_linx(_instance(np.eye(3), 1), 1)
        assert not certify_gamma_optimal(res)

    def test_nonconverged_never_certifies(self):
        inst = _instance(np.diag([2.0, 1.5, 0.5]), 1)
        res = engine_solve(inst, 1, gamma=0.25, opts=SolverOptions(max_iter=1))
        if not res.converged:
            assert not certify_gamma_optimal(res)


class TestEigenbasisCertificate:
    def test_matches_the_dense_evaluation(self):
        # where gamma lam^2 is moderate both evaluations are accurate
        rng = np.random.default_rng(48)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            s = int(rng.integers(1, n))
            inst = _instance(gram_matrix(rng, n), s)
            mask = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, n)))
            gamma = float(np.exp(rng.uniform(-1.5, 1.5)))
            x = interior_point(rng, n, s)
            x += (s - x.sum()) / n
            f, grad = dense_point(inst, mask, gamma, x)
            assert linx_objective(inst, mask, gamma, x) == pytest.approx(f, rel=1e-12, abs=1e-12)
            grad_eig = linx_gradient(inst, mask, gamma, x)
            np.testing.assert_allclose(grad_eig, grad, rtol=0, atol=1e-11)

    def test_public_evaluators_read_the_certified_value(self):
        # 1e6-scaled Gram inputs at gamma = 5, where gamma lam_1^2 is about
        # 1e13: the dense F rounds f by up to 2e-3 there, the eigenbasis
        # evaluation that certifies value does not
        for seed in range(901, 913):
            inst = _instance(1e6 * gram_matrix(np.random.default_rng(seed), 19), 18)
            res = solve_linx(inst, 18, gamma=5.0)
            assert linx_objective(inst, Mask.ones(19), res.gamma, res.x_hat) == res.value
            grad = linx_gradient(inst, Mask.ones(19), res.gamma, res.x_hat)
            assert max(linx._fw_gap(grad, res.x_hat, 18), 0.0) == res.duality_gap
        # the identity mask takes the diagonal closed form, whose value the
        # evaluators repeat to rounding only
        rng = np.random.default_rng(49)
        for n in range(3, 14):
            s = int(rng.integers(1, n))
            inst = _instance(gram_matrix(rng, n), s)
            for gamma in (0.5, 1.0, 3.0):
                res = solve_linx(inst, s, Mask.identity(n), gamma)
                f = linx_objective(inst, Mask.identity(n), gamma, res.x_hat)
                assert abs(f - res.value) <= 1e-14 * max(1.0, abs(res.value))


class TestScaledRoute:
    def test_psi_evaluation_is_the_fixed_gamma_evaluation(self):
        # a psi evaluation scales the same arrays as a problem built at
        # gamma = e^psi, so both give the same bits, also at gamma = 1e15
        rng = np.random.default_rng(50)
        cases = []
        for _ in range(12):
            n = int(rng.integers(3, 17))
            cases.append((gram_matrix(rng, n), int(rng.integers(1, n))))
        cases += [ill_conditioned(seed) for seed in (3000, 3007, 3057)]
        compared = 0
        for C, s in cases:
            n = C.shape[0]
            inst = _instance(C, s)
            x = interior_point(rng, n, s)
            carried = linx_problem(inst, Mask.ones(n), 1.0, s)
            for gamma in (1e-8, 1e-3, 0.7, 1e3, 1e10, 1e15):
                psi = math.log(gamma)
                f, grad, hess = linx_problem(inst, Mask.ones(n), math.exp(psi), s).derivatives(x)
                if not np.isfinite(f):
                    continue  # F(x) is not positive definite at this gamma
                f_psi, grad_psi, hess_psi = carried.derivatives(x, psi)[:3]
                assert f_psi == f
                np.testing.assert_array_equal(grad_psi, grad)
                np.testing.assert_array_equal(hess_psi, hess)
                compared += 1
        assert compared >= 60


def test_is_feasible():
    assert is_feasible([0.5, 0.5], 1)
    assert not is_feasible([0.6, 0.5], 1)
    assert not is_feasible([1.2, -0.2], 1)
