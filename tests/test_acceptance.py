"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from linxbound import (
    GapKind,
    Mask,
    RegimeTag,
    SolverOptions,
    SymMatrix,
    certify_gamma_optimal,
    check_uniform_optimality,
    exact_mesp,
    limit_linx_at_infinity,
    linx_gradient,
    linx_objective,
    logdet_submatrix,
    optimal_gamma_2x2,
    optimal_gamma_diagonal,
    optimal_mask_2x2,
    optimize_gamma,
    run_gap_experiment,
    scaled_gap_floor,
    solve_diagonal_linx,
    solve_linx,
    validate,
)

from helpers import correlation_matrix, diagonal_entries, engine_solve, gram_matrix, random_pd_2x2


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_dominance():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = math.inf
    for _ in range(300):
        n = int(rng.integers(3, 11))
        s = int(rng.integers(1, n))
        inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), s)
        truth = exact_mesp(inst, s).value
        for gamma in (0.25, 1.0, 4.0):
            for mask in (Mask.ones(n), Mask.identity(n)):
                res = solve_linx(inst, s, mask, gamma)
                worst = min(worst, res.value - truth)
    elapsed = time.monotonic() - start
    ok = worst >= -1e-8 and elapsed < 120.0
    _report(1, ok, f"worst bound-minus-exact {worst:.3e} (>= -1e-8), {elapsed:.1f}s (< 120s)")


def test_criterion_02_binary_exactness():
    rng = np.random.default_rng(102)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(3, 10))
        s = int(rng.integers(1, n))
        # ridge keeps C[S, S] well conditioned: the identity being checked
        # is exact in real arithmetic, so the comparison at 1e-9 is only
        # meaningful when both log-determinant routes are stable
        inst = validate(SymMatrix.from_array(gram_matrix(rng, n) + 0.1 * np.eye(n)), s)
        subset = tuple(sorted(rng.choice(n, size=s, replace=False)))
        want = logdet_submatrix(inst.C, subset)
        if want == float("-inf"):
            continue
        x = np.zeros(n)
        x[list(subset)] = 1.0
        gamma = math.exp(rng.uniform(-2.0, 2.0))
        got = linx_objective(inst, Mask.ones(n), gamma, x)
        worst = max(worst, abs(got - want))
        done += 1
    _report(2, worst <= 1e-9, f"max |objective - logdet| {worst:.3e} (<= 1e-9)")


def test_criterion_03_gradient_check():
    rng = np.random.default_rng(103)
    h = 1e-6
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 9))
        s = int(rng.integers(1, n))
        inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), s)
        if trial % 3 == 0:
            mask = Mask.ones(n)
        elif trial % 3 == 1:
            mask = Mask.identity(n)
        else:
            mask = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, n)))
        gamma = math.exp(rng.uniform(-1.5, 1.5))
        # interior point: uniform plus a small feasible perturbation
        z = rng.uniform(-1.0, 1.0, size=n)
        z -= z.mean()
        x = np.clip(s / n + 0.2 * min(s / n, 1 - s / n) * z, 0.01, 0.99)
        grad = linx_gradient(inst, mask, gamma, x)
        fd = np.empty(n)
        for i in range(n):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (
                linx_objective(inst, mask, gamma, xp)
                - linx_objective(inst, mask, gamma, xm)
            ) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))))
    _report(3, worst <= 1e-5, f"max relative gradient error {worst:.3e} (<= 1e-5)")


def test_criterion_04_diagonal_closed_form():
    # solve_linx answers a diagonal C by the closed form itself, so the
    # barrier engine is compared with it too, at the same tolerances
    rng = np.random.default_rng(104)
    worst_val = worst_x = worst_val_engine = worst_x_engine = 0.0
    all_uniform = True

    def x_diff(a, b):
        return float(np.max(np.abs(np.sort(a)[::-1] - np.sort(b)[::-1])))

    for _ in range(200):
        n = int(rng.integers(2, 13))
        s = int(rng.integers(1, n))
        d = diagonal_entries(rng, n)
        sol = solve_diagonal_linx(d, s)
        inst = validate(SymMatrix.from_diagonal(d), s)
        res, eng = solve_linx(inst, s), engine_solve(inst, s)
        worst_val = max(worst_val, abs(sol.value - res.value))
        worst_x = max(worst_x, x_diff(sol.x_hat, res.x_hat))
        worst_val_engine = max(worst_val_engine, abs(sol.value - eng.value))
        worst_x_engine = max(worst_x_engine, x_diff(sol.x_hat, eng.x_hat))
        ds = np.sort(d)[::-1]
        all_uniform &= check_uniform_optimality(ds, s, np.sort(sol.x_hat)[::-1])
    ok = (max(worst_val, worst_val_engine) <= 1e-6 and max(worst_x, worst_x_engine) <= 1e-4
          and all_uniform)
    _report(
        4,
        ok,
        f"value diff {worst_val:.2e}, engine {worst_val_engine:.2e} (<= 1e-6), "
        f"x diff {worst_x:.2e}, engine {worst_x_engine:.2e} (<= 1e-4), "
        f"uniform-optimality all pass {all_uniform}",
    )


def test_criterion_05_diagonal_scaled_tightness():
    # the closed form's own value, and the barrier engine's at the same gamma
    rng = np.random.default_rng(105)
    worst_val = worst_bin = worst_val_engine = worst_bin_engine = 0.0

    def binary_dev(x):
        return float(np.max(np.minimum(x, 1.0 - x)))

    for _ in range(100):
        n = int(rng.integers(2, 13))
        s = int(rng.integers(1, n))
        d = diagonal_entries(rng, n)
        ds = np.sort(d)[::-1]
        gamma = optimal_gamma_diagonal(ds, s)
        inst = validate(SymMatrix.from_diagonal(d), s)
        tight = float(np.sum(np.log(ds[:s])))
        res, eng = solve_linx(inst, s, gamma=gamma), engine_solve(inst, s, gamma=gamma)
        worst_val = max(worst_val, abs(res.value - tight))
        worst_bin = max(worst_bin, binary_dev(res.x_hat))
        worst_val_engine = max(worst_val_engine, abs(eng.value - tight))
        worst_bin_engine = max(worst_bin_engine, binary_dev(eng.x_hat))
    ok = max(worst_val, worst_val_engine) <= 1e-8 and max(worst_bin, worst_bin_engine) <= 1e-6
    _report(5, ok, f"tightness {worst_val:.2e}, engine {worst_val_engine:.2e} (<= 1e-8), "
                   f"binary dev {worst_bin:.2e}, engine {worst_bin_engine:.2e} (<= 1e-6)")


def test_criterion_06_rank_one_2x2_closed_form():
    inst = validate(SymMatrix.all_ones(2), 1)
    worst = 0.0
    vals = []
    for gamma in (0.1, 0.5, 1.0, 2.0, 10.0):
        res = solve_linx(inst, 1, gamma=gamma)
        worst = max(worst, abs(res.value - 0.5 * math.log(1.0 + 0.25 / gamma)))
        vals.append(res.value)
    decreasing = all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    ok = worst <= 1e-8 and decreasing
    _report(6, ok, f"closed-form dev {worst:.2e} (<= 1e-8), decreasing {decreasing}")


def test_criterion_07_unscaled_gap_reproduction():
    start = time.monotonic()
    rows = run_gap_experiment(GapKind.UNSCALED, range(2, 21, 2))
    elapsed = time.monotonic() - start
    rate = 0.25 * math.log(4.0 / 3.0)
    margin = min(row.gap - (rate * row.n - 1e-6) for row in rows)
    ok = margin >= 0.0 and elapsed < 60.0
    _report(7, ok, f"min gap-minus-floor margin {margin:.3e} (>= 0), {elapsed:.1f}s (< 60s)")


def test_criterion_08_scaled_gap_reproduction():
    gamma_hat, rate = scaled_gap_floor(0.0, 1.0)
    rows = run_gap_experiment(GapKind.SCALED, [4, 8, 12, 16])
    masked_zero = all(row.masked_bound == 0.0 and row.gamma_masked == 1.0 for row in rows)
    margin = min(row.gap - (0.024036 * row.n - 1e-4) for row in rows)
    gamma_ok = abs(gamma_hat - (1.0 + math.sqrt(3.0)) / 2.0) <= 1e-6
    rate_ok = abs(rate - 0.024036) <= 1e-6
    ok = masked_zero and margin >= 0.0 and gamma_ok and rate_ok
    _report(
        8,
        ok,
        f"masked side exactly 0 {masked_zero}, min margin {margin:.3e} (>= 0), "
        f"floor gamma {gamma_hat:.6f} (~1.366025), rate {rate:.6f} (~0.024036)",
    )


def test_criterion_09_regime_classification():
    i4 = validate(SymMatrix.identity(4), 2)
    s_i4 = optimize_gamma(i4, 2)
    interior_ok = (
        s_i4.regime.tag is RegimeTag.INTERIOR_OPTIMUM and math.isfinite(s_i4.gamma_hat)
    )

    j2 = validate(SymMatrix.all_ones(2), 1)
    s_j2 = optimize_gamma(j2, 1)
    lim = limit_linx_at_infinity(j2, 1)
    probe = solve_linx(j2, 1, gamma=1e6)
    limit_ok = (
        s_j2.regime.tag is RegimeTag.LIMIT_AT_INFINITY
        and abs(lim.value) <= 1e-6
        and abs(lim.value - probe.value) <= 1e-3
    )

    j3 = validate(SymMatrix.all_ones(3), 2)
    s_j3 = optimize_gamma(j3, 2)
    deep = solve_linx(j3, 2, gamma=math.exp(14.0))
    unbounded_ok = s_j3.regime.tag is RegimeTag.UNBOUNDED_BELOW and deep.value < -5.0

    ok = interior_ok and limit_ok and unbounded_ok
    _report(
        9,
        ok,
        f"interior {interior_ok} (gamma {s_i4.gamma_hat:.4g}), "
        f"limit {limit_ok} (value {lim.value:.2e}), unbounded {unbounded_ok} "
        f"(probe {deep.value:.2f} < -5)",
    )


def test_criterion_10_psi_convexity():
    rng = np.random.default_rng(110)
    tight = SolverOptions(tol_fw=1e-10)
    worst = -math.inf
    for trial in range(20):
        n = int(rng.integers(3, 7))
        if trial % 3 == 0:
            r, s = n, int(rng.integers(1, n))
        elif trial % 3 == 1:
            r = int(rng.integers(1, n))
            s = r
        else:
            r = int(rng.integers(1, n - 1))
            s = int(rng.integers(r + 1, n))
        inst = validate(SymMatrix.from_array(gram_matrix(rng, n, r)), s)
        vals = [
            solve_linx(inst, s, gamma=math.exp(p), opts=tight).value
            for p in np.linspace(-6.0, 6.0, 21)
        ]
        for i in range(1, 20):
            worst = max(worst, vals[i] - 0.5 * (vals[i - 1] + vals[i + 1]))
    _report(10, worst <= 1e-7, f"max midpoint-convexity violation {worst:.3e} (<= 1e-7)")


def test_criterion_11_uniform_maximizer_family():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(5):
        tau1, tau2 = rng.uniform(0.1, 3.0, size=2)
        for n in (3, 5, 8):
            s = n // 2
            c = tau1 * np.eye(n) + tau2 * np.ones((n, n))
            inst = validate(SymMatrix.from_array(c), s)
            for gamma in (0.5, 1.0, 2.0):
                res = solve_linx(inst, s, gamma=gamma)
                assert res.converged
                worst = max(worst, float(np.max(np.abs(res.x_hat - s / n))))
    _report(11, worst <= 1e-5, f"max deviation from uniform point {worst:.3e} (<= 1e-5)")


def test_criterion_12_2x2_certificates():
    rng = np.random.default_rng(112)
    worst_cmp = -math.inf
    worst_ineq = math.inf
    all_binary = True
    for _ in range(100):
        a, b, c = random_pd_2x2(rng)
        inst = validate(SymMatrix.from_array([[a, c], [c, b]]), 1)
        m = optimal_mask_2x2(a, b, c)
        mask = Mask.from_matrix(SymMatrix.from_array([[1.0, m], [m, 1.0]]), "opt")
        worst_cmp = max(
            worst_cmp, solve_linx(inst, 1, mask).value - solve_linx(inst, 1).value
        )
        gamma = optimal_gamma_2x2(a, b, c)
        res = solve_linx(inst, 1, gamma=gamma)
        all_binary &= certify_gamma_optimal(res)
        hi, lo = max(a, b), min(a, b)
        worst_ineq = min(
            worst_ineq, 2.0 * (hi * hi - c * c) * gamma - (c * c - hi * lo) ** 2 * gamma**2 - 1.0
        )
    ok = worst_cmp <= 1e-8 and all_binary and worst_ineq >= -1e-10
    _report(
        12,
        ok,
        f"masked minus plain max {worst_cmp:.2e} (<= 1e-8), binary maximizers {all_binary}, "
        f"scaling inequality min {worst_ineq:.2e} (>= -1e-10)",
    )
