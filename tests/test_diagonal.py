"""Closed-form diagonal solutions, first-order checks, and 2x2 formulas."""

import math

import numpy as np
import pytest

from linxbound import (
    Mask,
    SymMatrix,
    check_uniform_optimality,
    gap_lower_bound_2x2,
    optimal_gamma_2x2,
    optimal_gamma_diagonal,
    optimal_mask_2x2,
    solve_diagonal_linx,
    solve_linx,
    solve_xs_equation,
    validate,
)
from helpers import diagonal_entries, eigenvalue_lower_bound, engine_solve

HALF = math.sqrt(2.0) / 2.0


def _pivot_lhs(d, s, t):
    """Independent evaluation of the pivot equation's left-hand side,
    summed by math.fsum so that its own rounding stays far below the
    residual bounds it checks."""
    c = 1.0 / (np.asarray(d, float) ** 2 - 1.0)
    terms = [t]
    for i in range(len(d)):
        if i < s - 1:
            terms.append(min(1.0, t + c[s - 1] - c[i]))
        elif i >= s:
            terms.append(max(0.0, t + c[s - 1] - c[i]))
    return math.fsum(terms)


class TestPivotEquation:
    def test_two_entry_example(self):
        t = solve_xs_equation([2.0, 1.5], 1)
        assert t == pytest.approx(11 / 15, abs=1e-12)
        assert abs(_pivot_lhs([2.0, 1.5], 1, t) - 1.0) <= 1e-12

    def test_equal_entries_split_uniformly(self):
        for k in (2, 3, 5):
            t = solve_xs_equation([1.7] * k, 1)
            assert t == pytest.approx(1.0 / k, abs=1e-12)

    def test_binary_regime_has_no_interior_root(self):
        # breakpoint gap 1/(0.64-1) - 1/(0.81-1) = 2.485 >= 1: maximizer is binary
        with pytest.raises(ValueError, match="binary"):
            solve_xs_equation([0.9, 0.8], 1)
        sol = solve_diagonal_linx([0.9, 0.8], 1)
        np.testing.assert_array_equal(sol.x_hat, [1.0, 0.0])

    def test_below_one_interior_root(self):
        # entries close enough that the breakpoint gap stays under 1
        d = [0.9, 0.89]
        t = solve_xs_equation(d, 1)
        assert 0.0 < t < 1.0
        assert abs(_pivot_lhs(d, 1, t) - 1.0) <= 1e-12

    def test_residual_is_tiny_on_random_inputs(self):
        rng = np.random.default_rng(20)
        inputs = []
        for _ in range(50):
            n = int(rng.integers(2, 12))
            s = int(rng.integers(1, n))
            side = rng.uniform(1.05, 3.0, n) if rng.uniform() < 0.5 else rng.uniform(0.2, 0.95, n)
            inputs.append((side, s))
        # blocks up to the gap rows' largest order, and blocks of tied entries
        for n in (32, 64, 128, 256):
            for side in (rng.uniform(1.05, 3.0, n), rng.uniform(0.2, 0.95, n)):
                inputs.append((side, int(rng.integers(1, n))))
                tied = rng.choice(side[:4], n)
                inputs.append((tied, int(rng.integers(1, n))))
        for side, s in inputs:
            d = np.sort(side)[::-1]
            try:
                t = solve_xs_equation(d, s)
            except ValueError:
                continue
            assert abs(_pivot_lhs(d, s, t) - s) <= 1e-12

    def test_rejects_mixed_sides(self):
        with pytest.raises(ValueError):
            solve_xs_equation([2.0, 0.5], 1)


class TestDiagonalSolve:
    def test_three_entry_example(self):
        sol = solve_diagonal_linx([2.0, 1.5, 0.5], 1)
        np.testing.assert_allclose(sol.x_hat, [11 / 15, 4 / 15, 0.0], atol=1e-12)
        assert sol.value == pytest.approx(0.5 * math.log(64 / 15), abs=1e-12)
        # the pivot, the s-th entry in non-increasing order of d, is the root
        assert sol.x_hat[0] == pytest.approx(solve_xs_equation([2.0, 1.5], 1), abs=1e-15)

    def test_flat_entries_share_leftover_budget(self):
        sol = solve_diagonal_linx([3.0, 1.0, 1.0, 0.5], 2)
        # the budget lands inside the flat block: it is split evenly there,
        # with the entries above 1 at 1 and those below at 0
        np.testing.assert_array_equal(sol.x_hat, [1.0, 0.5, 0.5, 0.0])

    def test_wide_breakpoint_gap_gives_binary(self):
        # 1/(1.44-1) - 1/3 = 1.939 >= 1
        sol = solve_diagonal_linx([2.0, 1.2], 1)
        np.testing.assert_array_equal(sol.x_hat, [1.0, 0.0])
        with pytest.raises(ValueError, match="binary"):
            solve_xs_equation([2.0, 1.2], 1)

    def test_unsorted_input_is_permuted_back(self):
        sol = solve_diagonal_linx([0.5, 2.0, 1.5], 1)
        np.testing.assert_allclose(sol.x_hat, [0.0, 11 / 15, 4 / 15], atol=1e-12)

    def test_exactly_one_block_mode_fires(self):
        # per homogeneous block the maximizer is binary or has an interior
        # pivot, the s-th entry of x_hat in non-increasing order of d
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            s = int(rng.integers(1, n))
            d = diagonal_entries(rng, n)
            sol = solve_diagonal_linx(d, s)
            xs = sol.x_hat[np.argsort(-d, kind="stable")]
            interior = (xs > 1e-12) & (xs < 1.0 - 1e-12)
            if interior.any():
                assert 0.0 < xs[s - 1] < 1.0
            else:
                np.testing.assert_array_equal(xs, np.arange(n) < s)

    def test_sorted_d_gives_sorted_x(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            s = int(rng.integers(1, n))
            d = np.sort(diagonal_entries(rng, n))[::-1]
            sol = solve_diagonal_linx(d, s)
            assert np.all(np.diff(sol.x_hat) <= 1e-12)
            # equal diagonals receive equal weights
            for i in range(n - 1):
                if d[i] == d[i + 1]:
                    assert sol.x_hat[i] == pytest.approx(sol.x_hat[i + 1], abs=1e-12)

    def test_agrees_with_iterative_solver(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            s = int(rng.integers(1, n))
            d = diagonal_entries(rng, n)
            sol = solve_diagonal_linx(d, s)
            res = engine_solve(validate(SymMatrix.from_diagonal(d), s), s)
            assert abs(sol.value - res.value) <= 1e-6
            assert np.max(np.abs(np.sort(sol.x_hat) - np.sort(res.x_hat))) <= 1e-4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_diagonal_linx([2.0, -1.0], 1)
        with pytest.raises(ValueError):
            solve_diagonal_linx([2.0, 1.0], 2)


class TestUniformOptimality:
    def test_accepts_closed_form_solution(self):
        assert check_uniform_optimality([2.0, 1.5, 0.5], 1, [11 / 15, 4 / 15, 0.0])

    def test_rejects_binary_point_in_interior_regime(self):
        assert not check_uniform_optimality([2.0, 1.5], 1, [1.0, 0.0])

    def test_flat_diagonal_accepts_any_split(self):
        assert check_uniform_optimality([1.0, 1.0], 1, [0.5, 0.5])

    def test_every_closed_form_passes(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            s = int(rng.integers(1, n))
            d = np.sort(diagonal_entries(rng, n))[::-1]
            sol = solve_diagonal_linx(d, s)
            assert check_uniform_optimality(d, s, sol.x_hat)


class TestOptimalGammaDiagonal:
    def test_examples(self):
        assert optimal_gamma_diagonal([2.0, 1.5, 0.5], 1) == 0.25
        assert optimal_gamma_diagonal([1.0, 1.0, 1.0], 2) == 1.0
        assert optimal_gamma_diagonal([2.0, 1.5, 0.5], 2) == pytest.approx(1 / 2.25)

    def test_forces_binary_and_tight_bound(self):
        d = np.array([2.0, 1.5, 0.5])
        gamma = optimal_gamma_diagonal(d, 1)
        res = solve_linx(validate(SymMatrix.from_diagonal(d), 1), 1, gamma=gamma)
        assert np.all(np.minimum(res.x_hat, 1 - res.x_hat) <= 1e-9)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-10)

    def test_requires_sorted_input(self):
        with pytest.raises(ValueError):
            optimal_gamma_diagonal([1.0, 2.0], 1)


class TestTwoByTwo:
    def test_mask_cases(self):
        assert optimal_mask_2x2(2.0, 2.0, math.sqrt(2.0)) == 1.0
        assert optimal_mask_2x2(1.0, 1.0, 1.0) == 0.0
        assert optimal_mask_2x2(1.5, 1.0, 1.0) == pytest.approx(math.sqrt(0.5))
        assert optimal_mask_2x2(2.0, 1.0, 0.0) == 0.0

    def test_mask_swaps_orientation(self):
        assert optimal_mask_2x2(1.0, 1.5, 1.0) == optimal_mask_2x2(1.5, 1.0, 1.0)

    def test_mask_rejects_indefinite(self):
        with pytest.raises(ValueError):
            optimal_mask_2x2(1.0, 1.0, 2.0)

    def test_gamma_examples(self):
        assert optimal_gamma_2x2(1.0, 1.0, 0.0) == 1.0
        assert optimal_gamma_2x2(2.0, 1.0, 0.0) == 1.0
        assert optimal_gamma_2x2(2.0, 1.0, 1.0) == pytest.approx(3.0)

    def test_gamma_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            optimal_gamma_2x2(1.0, 1.0, 1.0)

    def test_gamma_forces_binary(self):
        inst = validate(SymMatrix.from_array([[2.0, 1.0], [1.0, 1.0]]), 1)
        res = solve_linx(inst, 1, gamma=optimal_gamma_2x2(2.0, 1.0, 1.0))
        assert np.all(np.minimum(res.x_hat, 1 - res.x_hat) <= 1e-9)


class TestEigenvalueLowerBound:
    def test_identity_is_zero(self):
        for n in (2, 5):
            inst = validate(SymMatrix.identity(n), 1)
            assert eigenvalue_lower_bound(inst, 1) == pytest.approx(0.0, abs=1e-14)

    def test_all_ones_2x2(self):
        inst = validate(SymMatrix.all_ones(2), 1)
        assert eigenvalue_lower_bound(inst, 1) == pytest.approx(
            0.5 * math.log(1.25), abs=1e-12
        )

    def test_half_block(self):
        inst = validate(SymMatrix.from_array(HALF * np.ones((2, 2))), 1)
        assert eigenvalue_lower_bound(inst, 1) == pytest.approx(
            0.5 * math.log(0.75), abs=1e-12
        )

    def test_bounds_the_solver_from_below(self):
        rng = np.random.default_rng(25)
        from helpers import gram_matrix

        for _ in range(10):
            n = int(rng.integers(3, 8))
            s = int(rng.integers(1, n))
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), s)
            assert solve_linx(inst, s).value >= eigenvalue_lower_bound(inst, s) - 1e-9


class TestGapLowerBound2x2:
    def test_half_block_reaches_the_headline_constant(self):
        got = gap_lower_bound_2x2(HALF, HALF, HALF)
        assert got == pytest.approx(0.5 * math.log(4 / 3), abs=1e-12)

    def test_identity_has_no_gap(self):
        assert gap_lower_bound_2x2(1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_all_ones(self):
        assert gap_lower_bound_2x2(1.0, 1.0, 1.0) == pytest.approx(
            0.5 * math.log(1.25), abs=1e-10
        )

    def test_masked_bound_improves_on_plain(self):
        # the guaranteed improvement is realized by the solver
        a, b, c = 0.8, 0.7, 0.6
        inst = validate(SymMatrix.from_array([[a, c], [c, b]]), 1)
        m = optimal_mask_2x2(a, b, c)
        mask = Mask.from_matrix(SymMatrix.from_array([[1.0, m], [m, 1.0]]), "opt")
        plain = solve_linx(inst, 1).value
        masked = solve_linx(inst, 1, mask).value
        assert plain - masked >= gap_lower_bound_2x2(a, b, c) - 1e-9
