"""Scaling search, regime classification, and the infinite-scaling limit."""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from linxbound import (
    Mask,
    RegimeTag,
    SolverOptions,
    SymMatrix,
    certify_gamma_optimal,
    classify_regime,
    exact_mesp,
    limit_linx_at_infinity,
    optimal_gamma_2x2,
    optimize_gamma,
    solve_linx,
    validate,
)

from linxbound import linx, scaling
from linxbound.linx import _LinxProblem

from helpers import (
    correlation_matrix,
    count_derivative_calls,
    diagonal_entries,
    gram_matrix,
    hessian_error,
    ill_conditioned,
    interior_point,
    linx_problem,
    random_pd_2x2,
    reject_long_steps,
)


class TestClassifyRegime:
    def test_full_rank_interior(self):
        regime = classify_regime(validate(SymMatrix.identity(4), 2), 2)
        assert regime.tag is RegimeTag.INTERIOR_OPTIMUM
        assert regime.rank == 4 and regime.s == 2

    def test_s_equals_rank(self):
        regime = classify_regime(validate(SymMatrix.all_ones(2), 1), 1)
        assert regime.tag is RegimeTag.LIMIT_AT_INFINITY

    def test_s_above_rank(self):
        regime = classify_regime(validate(SymMatrix.all_ones(3), 2), 2)
        assert regime.tag is RegimeTag.UNBOUNDED_BELOW

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            classify_regime(validate(SymMatrix.identity(3), 1), 3)


class TestOptimizeGamma:
    def test_diagonal_certificate_short_circuits(self):
        inst = validate(SymMatrix.from_diagonal([2.0, 1.5, 0.5]), 1)
        search = optimize_gamma(inst, 1)
        assert search.gamma_hat == pytest.approx(0.25, abs=1e-15)
        assert search.bound_value == pytest.approx(math.log(2.0), abs=1e-10)
        assert search.regime.tag is RegimeTag.INTERIOR_OPTIMUM
        assert search.best.iterations == 0  # one closed-form solve

    def test_2x2_certificate(self):
        # a 2x2 input takes the saddle solve; its gamma-hat is one point of
        # an optimal interval (0.96 on [[2, 1], [1, 1]], where the closed
        # form gives 3), so the checks are on the bound: certified by a
        # binary maximizer, equal to the bound at optimal_gamma_2x2, and
        # unchanged by a scaling of C (up to log alpha) or a swap
        def instance(a, b, c):
            return validate(SymMatrix.from_array([[a, c], [c, b]]), 1)

        rng = np.random.default_rng(62)
        for _ in range(100):
            a, b, c = random_pd_2x2(rng)
            inst = instance(a, b, c)
            search = optimize_gamma(inst, 1)
            best = search.best
            assert search.converged and certify_gamma_optimal(best)
            closed = solve_linx(inst, 1, gamma=optimal_gamma_2x2(a, b, c))
            assert abs(best.upper_bound - closed.upper_bound) <= 1e-12
            for alpha in (1e-3, 1e-2, 3.0, 1e2, 1e3):
                scaled = optimize_gamma(instance(alpha * a, alpha * b, alpha * c), 1).best
                assert abs(scaled.upper_bound - math.log(alpha) - best.upper_bound) <= 1e-12
            swapped = optimize_gamma(instance(b, a, c), 1).best
            assert abs(swapped.upper_bound - best.upper_bound) <= 1e-12

    @pytest.mark.parametrize(
        "entries,s", [(np.ones((2, 2)), 1), (np.ones((3, 3)), 2), (np.diag([2.0, 1.5, 0.5]), 1)]
    )
    def test_mask_order_must_match(self, entries, s):
        # the s = rank, s > rank and interior regimes: a 1 x 1 mask broadcasts
        # against C, so its order is checked before any regime is decided
        inst = validate(SymMatrix.from_array(entries), s)
        for order in (1, inst.n + 1):
            with pytest.raises(ValueError, match="mask order"):
                optimize_gamma(inst, s, Mask.identity(order))

    def test_limit_regime_returns_infinity_marker(self):
        inst = validate(SymMatrix.all_ones(2), 1)
        search = optimize_gamma(inst, 1)
        assert search.regime.tag is RegimeTag.LIMIT_AT_INFINITY
        assert search.gamma_hat == math.inf
        assert search.bound_value == pytest.approx(0.0, abs=1e-9)
        # best is the limit program's solve
        limit = limit_linx_at_infinity(inst, 1)
        assert search.best.gamma == math.inf
        assert search.best.value == limit.value
        np.testing.assert_array_equal(search.best.x_hat, limit.x_hat)
        assert search.best.duality_gap == limit.duality_gap
        assert search.best.mask_id == "J"

    def test_masked_limit_regime_carries_its_mask(self):
        # a sign mask v v^T keeps rank(C o M) = rank(C) = s, but C o M is
        # not C: best is the limit solve of C o M, labelled with the mask
        C = gram_matrix(np.random.default_rng(43), 5, 2)
        v = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        mask = Mask.from_matrix(SymMatrix.from_array(np.outer(v, v)), label="signs")
        search = optimize_gamma(validate(SymMatrix.from_array(C), 2), 2, mask)
        assert search.regime.tag is RegimeTag.LIMIT_AT_INFINITY
        limit = limit_linx_at_infinity(validate(SymMatrix.from_array(C * np.outer(v, v)), 2), 2)
        assert search.best.mask_id == "signs"
        assert search.best.gamma == search.gamma_hat == math.inf
        assert search.best.value == search.bound_value == limit.value
        np.testing.assert_array_equal(search.best.x_hat, limit.x_hat)
        assert search.converged and search.best.converged

    def test_unbounded_regime_diagnostics(self):
        inst = validate(SymMatrix.all_ones(3), 2)
        search = optimize_gamma(inst, 2)
        assert search.regime.tag is RegimeTag.UNBOUNDED_BELOW
        assert search.gamma_hat == math.inf
        assert search.bound_value == float("-inf")
        assert search.best is None

    def test_unbounded_regime_probes_converge(self):
        # s > rank: the psi = 14 diagnostic probe used to stall unconverged
        inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(3), 12, 5)), 7)
        search = optimize_gamma(inst, 7)
        assert search.regime.tag is RegimeTag.UNBOUNDED_BELOW
        assert search.bound_value == float("-inf")
        assert search.converged

    def test_unbounded_regime_runs_no_solve(self, monkeypatch):
        # rank alone decides the s > rank regime, so no solve is spent on it
        calls = []
        real = scaling._solve
        monkeypatch.setattr(scaling, "_solve", lambda *a, **k: calls.append(a) or real(*a, **k))
        inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(3), 12, 5)), 7)
        search = optimize_gamma(inst, 7)
        assert search.regime.tag is RegimeTag.UNBOUNDED_BELOW
        assert len(calls) == 0

    def test_interior_search_on_identity(self):
        # flat spectrum: the optimum sits at gamma = 1 with value 0
        inst = validate(SymMatrix.identity(4), 2)
        search = optimize_gamma(inst, 2)
        assert search.regime.tag is RegimeTag.INTERIOR_OPTIMUM
        assert math.isfinite(search.gamma_hat)
        assert search.gamma_hat == pytest.approx(1.0, abs=1e-5)
        assert search.bound_value == pytest.approx(0.0, abs=1e-10)

    def test_identity_mask_changes_the_regime(self):
        # C itself is rank 1, but C o I is full rank, so the masked
        # search has an interior optimum
        inst = validate(SymMatrix.all_ones(2), 1)
        search = optimize_gamma(inst, 1, Mask.identity(2))
        assert search.regime.tag is RegimeTag.INTERIOR_OPTIMUM
        assert search.bound_value == pytest.approx(0.0, abs=1e-9)

    def test_dense_search_probe_count(self):
        rng = np.random.default_rng(37)
        for n in (8, 12, 16):
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), n // 2)
            search = optimize_gamma(inst, n // 2)
            assert search.regime.tag is RegimeTag.INTERIOR_OPTIMUM
            assert search.converged
            assert search.best.iterations > 0  # the saddle solve, not a closed form

    def test_dense_search_runs_no_solve(self, monkeypatch):
        # the saddle point is the reported bound; nothing is solved after it
        calls = []
        real = linx._maximize_capped_simplex
        monkeypatch.setattr(
            linx, "_maximize_capped_simplex", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(48), 10)), 5)
        for mask in (Mask.ones(10), Mask.from_matrix(SymMatrix.from_array(
                correlation_matrix(np.random.default_rng(49), 10)))):
            calls.clear()
            search = optimize_gamma(inst, 5, mask)
            assert search.converged
            assert len(calls) == 1
            assert search.best.iterations > 0

    def test_tied_diagonal_takes_the_closed_form_alone(self):
        # d_s = d_{s+1}: the closed form's x_hat splits the tied block, so
        # it does not certify, yet its value is the subset optimum
        inst = validate(SymMatrix.from_diagonal([3.0, 2.0, 2.0, 0.5, 0.7]), 2)
        search = optimize_gamma(inst, 2)
        assert search.best.iterations == 0
        assert search.gamma_hat == 0.25
        assert abs(search.bound_value - (math.log(3.0) + math.log(2.0))) <= 1e-12
        assert search.converged

    def test_saddle_search_is_one_solve_at_the_optimum(self, monkeypatch):
        # one joint (x, psi) solve replaces the bisection's 24 probes;
        # convexity in psi puts the neighbours of gamma-hat no lower than
        # the reported bound
        calls = []
        real = linx._maximize_capped_simplex
        monkeypatch.setattr(
            linx, "_maximize_capped_simplex", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        rng = np.random.default_rng(41)
        for n in (8, 12, 16, 32):
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), n // 2)
            calls.clear()
            search = optimize_gamma(inst, n // 2)
            assert search.converged
            assert len(calls) == 1
            for step in (-0.01, 0.01):
                near = solve_linx(inst, n // 2, gamma=search.gamma_hat * math.exp(step))
                assert search.bound_value <= near.upper_bound

    def test_iteration_cap_reports_unconverged(self):
        inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(42), 12)), 6)
        search = optimize_gamma(inst, 6, opts=SolverOptions(max_iter=5))
        assert search.regime.tag is RegimeTag.INTERIOR_OPTIMUM
        assert not search.converged

    @pytest.mark.parametrize(
        "entries,s",
        [(np.diag([3.0, 1.5, 1.5, 1.5, 0.2]), 2), ([[1.0, 0.5], [0.5, 1.0]], 1)],
    )
    def test_search_makes_one_result(self, entries, s, monkeypatch):
        # the diagonal input takes the closed form, whose maximizer splits
        # the tied block, and the 2x2 one the saddle solve; either way the
        # search builds one result, and best is it
        results = []
        real = linx.BoundResult
        monkeypatch.setattr(
            linx, "BoundResult", lambda *a, **k: results.append(real(*a, **k)) or results[-1]
        )
        inst = validate(SymMatrix.from_array(entries), s)
        search = optimize_gamma(inst, s)
        assert len(results) == 1
        assert search.best is results[0]
        assert (search.gamma_hat, search.bound_value) == (results[0].gamma, results[0].value)

    @pytest.mark.parametrize(
        "seed,n,s,alpha",
        [(6, 4, 3, 0.01), (13, 4, 3, 0.01), (15, 3, 2, 0.01), (11, 3, 2, 0.01),
         (15, 3, 2, 1.0), (7, 5, 4, 0.01), (7, 5, 4, 1.0)],
    )
    def test_converged_search_bounds_the_optimum(self, seed, n, s, alpha):
        # a near rank-one C: the search converges at gamma-hat about 1e16,
        # where the dense F rounds away its small eigenvalues, and a bound
        # taken from it sits 2.7e-5 to 3.1e-3 below the optimum on these inputs
        c = alpha * (gram_matrix(np.random.default_rng(seed), n, 1) + 1e-6 * np.eye(n))
        inst = validate(SymMatrix.from_array(c), s)
        search = optimize_gamma(inst, s)
        exact = exact_mesp(inst, s).value
        assert search.converged
        assert search.best.upper_bound >= exact - 1e-9 * max(1.0, abs(exact))

    def test_ill_conditioned_searches_converge(self):
        # C = Q Diag(logspace(0, -8, n)) Q^T puts gamma-hat at 1e11 to 1e15;
        # while the engine factored the dense F, 14 of these 60 searches ran
        # out their 5,000 evaluations (75,708 in all)
        total = 0
        for seed in range(3000, 3060):
            C, s = ill_conditioned(seed)
            inst = validate(SymMatrix.from_array(C), s)
            search = optimize_gamma(inst, s)
            assert search.converged, seed
            total += search.best.iterations
            if inst.n <= 16:
                opt = exact_mesp(inst, s).value
                assert search.best.upper_bound >= opt - 1e-9 * max(1.0, abs(opt)), seed
        assert total <= 1500

    def test_symmetric_2x2_search_converges(self):
        # by symmetry the first x-step is exactly zero and only psi moves,
        # so the long step must not divide by that step's zero reach
        inst = validate(SymMatrix.from_array([[3.0, 2.0], [2.0, 3.0]]), 1)
        search = optimize_gamma(inst, 1)
        assert search.converged
        assert search.gamma_hat == pytest.approx(optimal_gamma_2x2(3.0, 3.0, 2.0), rel=1e-9)
        assert search.bound_value == pytest.approx(math.log(3.0), abs=1e-12)

    def test_symmetric_families_bound_the_optimum(self):
        # I + aJ and (1 + a)I - (a/n)J, whose symmetry can make an x-step
        # exactly zero while psi moves (280 searches)
        for n in range(2, 9):
            J = np.ones((n, n))
            for a in (0.1, 0.5, 1.0, 2.0, 3.0):
                for C in (np.eye(n) + a * J, (1.0 + a) * np.eye(n) - (a / n) * J):
                    for s in range(1, n):
                        inst = validate(SymMatrix.from_array(C), s)
                        search = optimize_gamma(inst, s)
                        opt = exact_mesp(inst, s).value
                        assert search.converged, (n, a, s)
                        assert search.best.upper_bound >= opt - 1e-9 * max(1.0, abs(opt)), (n, a, s)

    def test_best_is_the_probe_at_gamma_hat(self):
        rng = np.random.default_rng(38)
        inst = validate(SymMatrix.from_array(gram_matrix(rng, 8)), 4)
        search = optimize_gamma(inst, 4, Mask.identity(8))
        assert search.best.gamma == search.gamma_hat
        assert search.best.value == search.bound_value
        assert search.best.mask_id == "I"
        limit = optimize_gamma(validate(SymMatrix.all_ones(2), 1), 1)
        assert limit.best.gamma == limit.gamma_hat == math.inf
        assert limit.best.value == limit.bound_value

    def test_closed_form_bound_shape(self):
        # for the rank-one 2x2 family the bound is 0.5*log(1 + 1/(4 gamma))
        inst = validate(SymMatrix.all_ones(2), 1)
        vals = []
        for gamma in (0.1, 0.5, 1.0, 2.0, 10.0):
            res = solve_linx(inst, 1, gamma=gamma)
            want = 0.5 * math.log(1.0 + 1.0 / (4.0 * gamma))
            assert res.value == pytest.approx(want, abs=1e-9)
            vals.append(res.value)
        assert vals == sorted(vals, reverse=True)


class TestOneEntryPoint:
    def test_every_engine_call_is_inside_one_solve(self, monkeypatch):
        # linx._solve is the one door to the barrier engine: solve_linx, the
        # limit program and both regimes of the scaling search make one
        # _solve call each, and the engine runs only inside it
        solves, engine, depth = [], [], [0]
        real_solve, real_engine = linx._solve, linx._maximize_capped_simplex

        def solve(*args, **kwargs):
            solves.append(args)
            depth[0] += 1
            try:
                return real_solve(*args, **kwargs)
            finally:
                depth[0] -= 1

        def maximize(*args, **kwargs):
            engine.append(depth[0])
            return real_engine(*args, **kwargs)

        for owner in (linx, scaling):
            for name, fn in (("_solve", solve), ("_maximize_capped_simplex", maximize)):
                if hasattr(owner, name):
                    monkeypatch.setattr(owner, name, fn)
        rng = np.random.default_rng(44)
        full = validate(SymMatrix.from_array(gram_matrix(rng, 8)), 4)
        low = validate(SymMatrix.from_array(gram_matrix(rng, 8, 3)), 3)
        corr = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, 8)))
        assert low.rank == 3
        calls = {
            "solve_linx": lambda: solve_linx(full, 4),
            "limit_linx_at_infinity": lambda: limit_linx_at_infinity(low, 3),
            "interior search": lambda: optimize_gamma(full, 4),
            "masked interior search": lambda: optimize_gamma(full, 4, corr),
            "s = rank search": lambda: optimize_gamma(low, 3),
        }
        for name, call in calls.items():
            solves.clear()
            engine.clear()
            call()
            assert len(solves) == 1, name
            assert engine == [1], name


class TestSaddleSteps:
    @pytest.mark.parametrize("n", [8, 12, 16, 32, 64])
    def test_gram_searches_take_few_steps(self, n):
        # damped steps alone took 20, 19, 18, 23 and 24 steps here
        inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(0), n)), n // 2)
        search = optimize_gamma(inst, n // 2)
        assert search.converged
        assert search.best.iterations <= 15

    def test_every_trial_counts_as_an_iteration(self, monkeypatch):
        calls = count_derivative_calls(monkeypatch)
        rng = np.random.default_rng(63)
        for k in range(8):
            n = int(rng.integers(5, 17))
            s = int(rng.integers(1, n))
            corr = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, n)))
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), s)
            calls[0] = 0
            search = optimize_gamma(inst, s, corr if k % 2 else Mask.ones(n))
            assert search.converged
            assert calls[0] == search.best.iterations

    def test_iteration_cap_bounds_the_calls(self, monkeypatch):
        calls = count_derivative_calls(monkeypatch)
        inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(0), 16)), 8)
        for k in range(1, 14):
            calls[0] = 0
            search = optimize_gamma(inst, 8, opts=SolverOptions(max_iter=k))
            assert calls[0] == search.best.iterations <= k

    def test_damped_fallback(self, monkeypatch):
        # reject every long trial: each step then pays for its trial and
        # takes the damped step 1 / (1 + max(lam, mu)) after it
        calls = count_derivative_calls(monkeypatch)
        for n in (8, 12, 16):
            inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(0), n)), n // 2)
            kept = optimize_gamma(inst, n // 2).best.iterations
            with monkeypatch.context() as patch:
                reject_long_steps(patch)
                calls[0] = 0
                search = optimize_gamma(inst, n // 2)
                assert search.converged
                assert calls[0] == search.best.iterations > kept
                for k in range(1, 16):
                    calls[0] = 0
                    search = optimize_gamma(inst, n // 2, opts=SolverOptions(max_iter=k))
                    assert calls[0] == search.best.iterations <= k

    def test_runaway_raises(self, monkeypatch):
        # a psi bound this tight stops the first damped step of the search
        monkeypatch.setattr(linx, "_PSI_RUNAWAY", 1e-3)
        inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(0), 8)), 4)
        with pytest.raises(RuntimeError, match="ran away"):
            optimize_gamma(inst, 4)


class TestPsiSlope:
    def test_matches_value_differences(self):
        # envelope theorem: the slope at the maximizer equals the
        # derivative of the optimal value in psi = log(gamma)
        rng = np.random.default_rng(36)
        tight = SolverOptions(tol_fw=1e-12)
        h = 1e-4
        for k in range(12):
            n = int(rng.integers(4, 11))
            s = int(rng.integers(1, n))
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), s)
            if k % 2:
                mask = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, n)))
            else:
                mask = Mask.ones(n)
            for psi in (-1.0, 0.0, 1.5):
                res = solve_linx(inst, s, mask, math.exp(psi), tight)
                problem = linx_problem(inst, mask, res.gamma, s)
                slope = problem.derivatives(res.x_hat, math.log(res.gamma))[3][0]
                up = solve_linx(inst, s, mask, math.exp(psi + h), tight).value
                down = solve_linx(inst, s, mask, math.exp(psi - h), tight).value
                fd = (up - down) / (2.0 * h)
                assert abs(slope - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_at_binary_maximizer(self):
        inst = validate(SymMatrix.from_array([[2.0, 1.0], [1.0, 1.0]]), 1)
        res = solve_linx(inst, 1, gamma=3.0)
        assert np.array_equal(res.x_hat, [1.0, 0.0])
        problem = linx_problem(inst, Mask.ones(2), 3.0, 1)
        slope = problem.derivatives(res.x_hat, math.log(3.0))[3][0]
        assert abs(slope) <= 1e-12


def _psi_derivative_error(problem, x, psi, h=1e-6):
    """Relative error of the psi-derivatives of problem.derivatives(x, psi)
    against central differences, scaled as in acceptance criterion 03:
    f_psi and f_psipsi from differences in psi, f_xpsi from differences of
    f_psi in each x_i."""
    _, _, _, (f_psi, f_pp, f_xp) = problem.derivatives(x, psi)
    up, down = problem.derivatives(x, psi + h), problem.derivatives(x, psi - h)
    pairs = [(f_psi, (up[0] - down[0]) / (2.0 * h)), (f_pp, (up[3][0] - down[3][0]) / (2.0 * h))]
    for i in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (problem.derivatives(xp, psi)[3][0] - problem.derivatives(xm, psi)[3][0]) / (2.0 * h)
        pairs.append((f_xp[i], fd))
    exact, fd = np.array(pairs).T
    return float(np.max(np.abs(exact - fd)) / max(1.0, np.max(np.abs(fd))))


class TestPsiDerivatives:
    """The joint (x, psi) Newton step of the scaling search uses these; a
    wrong one shows otherwise only as a slow or stalled search."""

    def test_general_path_matches_differences(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for k in range(12):
            n = int(rng.integers(3, 9))
            s = int(rng.integers(1, n))
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), s)
            if k % 2:
                mask = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, n)))
            else:
                mask = Mask.ones(n)
            problem = linx_problem(inst, mask, 1.0, s)
            psi = rng.uniform(-1.5, 1.5)
            worst = max(worst, _psi_derivative_error(problem, interior_point(rng, n, s), psi))
        # the ill-conditioned family at psi in [15, 30], where the dense F's
        # psi-derivatives were off by up to 1.0
        for seed in range(3000, 3012):
            C, s = ill_conditioned(seed)
            n = C.shape[0]
            problem = linx_problem(validate(SymMatrix.from_array(C), s), Mask.ones(n), 1.0, s)
            psi = rng.uniform(15.0, 30.0)
            worst = max(worst, _psi_derivative_error(problem, interior_point(rng, n, s), psi))
        assert worst <= 1e-5

    def test_diagonal_path_matches_differences(self):
        rng = np.random.default_rng(44)
        for _ in range(6):
            n = int(rng.integers(2, 9))
            s = int(rng.integers(1, n))
            inst = validate(SymMatrix.from_diagonal(diagonal_entries(rng, n)), s)
            problem = linx_problem(inst, Mask.ones(n), 1.0, s)
            psi = rng.uniform(-1.5, 1.5)
            assert _psi_derivative_error(problem, interior_point(rng, n, s), psi) <= 1e-5


class TestConcurrency:
    def test_threaded_solves_match_sequential(self):
        # solves are pure functions of their inputs, so a thread pool
        # must reproduce the sequential results bit for bit
        rng = np.random.default_rng(39)
        insts = []
        for _ in range(6):
            n = int(rng.integers(6, 11))
            insts.append(validate(SymMatrix.from_array(gram_matrix(rng, n)), n // 2))
        jobs = [(inst, g) for inst in insts for g in (0.5, 1.0, 2.0)]

        def bound(job):
            inst, gamma = job
            return solve_linx(inst, inst.n // 2, gamma=gamma)

        def search(inst):
            return optimize_gamma(inst, inst.n // 2)

        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(bound, jobs, timeout=120))
        for job, res in zip(jobs, threaded):
            want = bound(job)
            assert res.value == want.value
            assert np.array_equal(res.x_hat, want.x_hat)
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(search, insts[:3], timeout=120))
        for inst, res in zip(insts[:3], threaded):
            want = search(inst)
            assert res.gamma_hat == want.gamma_hat
            assert res.bound_value == want.bound_value
            assert np.array_equal(res.best.x_hat, want.best.x_hat)


class TestLimitProgram:
    def test_rank_one_all_ones_is_flat_zero(self):
        inst = validate(SymMatrix.all_ones(2), 1)
        res = limit_linx_at_infinity(inst, 1)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.gamma == math.inf

    def test_near_rank_one_diagonal(self):
        # tiny second entry keeps the input valid while the rank stays 1
        inst = validate(SymMatrix.from_diagonal([2.0, 1e-15]), 1)
        assert inst.rank == 1
        res = limit_linx_at_infinity(inst, 1)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-9)
        probe = solve_linx(inst, 1, gamma=1e6)
        assert abs(probe.value - res.value) <= 1e-4

    def test_matches_dense_grid_oracle(self):
        inst = validate(SymMatrix.from_diagonal([2.0, 1e-15]), 1)
        # objective reduces to 0.5*(log(4 x1) + log(x1)); scan x1 directly
        xs = np.linspace(1e-6, 1.0, 20001)
        oracle = np.max(0.5 * (np.log(4.0 * xs) + np.log(xs)))
        assert limit_linx_at_infinity(inst, 1).value >= oracle - 1e-7

    def test_large_scaling_probes_approach_the_limit(self):
        rng = np.random.default_rng(32)
        tight = SolverOptions(tol_fw=1e-10)
        basis = rng.normal(size=(5, 2))
        inst = validate(SymMatrix.from_array(basis @ basis.T / 2), 2)
        assert inst.rank == 2
        vals = [
            solve_linx(inst, 2, gamma=math.exp(p), opts=tight).value
            for p in np.linspace(-2.0, 14.0, 9)
        ]
        assert all(vals[i] >= vals[i + 1] - 1e-9 for i in range(len(vals) - 1))
        lim = limit_linx_at_infinity(inst, 2, tight)
        assert abs(vals[-1] - lim.value) <= 1e-3

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(1, n))
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n, r)), r)
            problem = _LinxProblem(inst, math.inf, r)
            assert hessian_error(problem, interior_point(rng, n, r)) <= 1e-5

    def test_exact_at_binary_points(self):
        # f(1_S) = logdet C[S, S] for every s-subset S with a usable block;
        # this checks the limit program's value against an independent formula
        rng = np.random.default_rng(36)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(1, n))
            C = gram_matrix(rng, n, r)
            inst = validate(SymMatrix.from_array(C), r)
            problem = _LinxProblem(inst, math.inf, r)
            for S in itertools.combinations(range(n), r):
                block = C[np.ix_(S, S)]
                if np.linalg.cond(block) >= 1e6:
                    continue
                x = np.zeros(n)
                x[list(S)] = 1.0
                want = np.linalg.slogdet(block)[1]
                assert abs(problem.derivatives(x)[0] - want) <= 1e-9 * max(1.0, abs(want))

    def test_iteration_cap_bounds_the_calls(self, monkeypatch):
        calls = count_derivative_calls(monkeypatch)
        inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(0), 16, 8)), 8)
        assert inst.rank == 8
        for k in range(1, 30):
            calls[0] = 0
            res = limit_linx_at_infinity(inst, 8, SolverOptions(max_iter=k))
            assert calls[0] == res.iterations <= k

    def test_rejects_s_not_equal_rank(self):
        inst = validate(SymMatrix.identity(3), 1)
        with pytest.raises(ValueError, match="rank"):
            limit_linx_at_infinity(inst, 1)


class TestScalingLimits:
    def test_small_gamma_blows_up(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            n = int(rng.integers(3, 8))
            s = int(rng.integers(1, n))
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), s)
            lo = solve_linx(inst, s, gamma=1e-8).value
            mid = solve_linx(inst, s, gamma=1.0).value
            assert lo >= mid + 1.0

    def test_s_above_rank_sinks(self):
        inst = validate(SymMatrix.all_ones(3), 2)
        res = solve_linx(inst, 2, gamma=math.exp(14.0))
        assert res.value < -5.0

    def test_midpoint_convexity_in_log_gamma(self):
        rng = np.random.default_rng(34)
        tight = SolverOptions(tol_fw=1e-10)
        for trial in range(5):
            n = int(rng.integers(3, 6))
            r = n if trial % 2 == 0 else int(rng.integers(1, n))
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n, r)), 1)
            psis = np.linspace(-6.0, 6.0, 21)
            vals = [solve_linx(inst, 1, gamma=math.exp(p), opts=tight).value for p in psis]
            for i in range(1, len(vals) - 1):
                assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-7
