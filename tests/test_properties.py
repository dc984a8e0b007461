"""Property tests of the solver and the scaling search against the exact oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from linxbound import (  # noqa: E402
    Mask,
    RegimeTag,
    SymMatrix,
    exact_mesp,
    limit_linx_at_infinity,
    linx_objective,
    optimize_gamma,
    solve_linx,
    validate,
)

from helpers import correlation_matrix, gram_matrix  # noqa: E402


@st.composite
def masked_instances(draw, max_n=8):
    """(instance, s, mask): a Gram matrix of order 3 to max_n and random
    rank plus a small diagonal shift, any s, and the J, I or a correlation
    mask."""
    n = draw(st.integers(3, max_n))
    rank = draw(st.integers(1, n))
    shift = draw(st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]))
    s = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = validate(SymMatrix.from_array(gram_matrix(rng, n, rank) + shift * np.eye(n)), s)
    kind = draw(st.sampled_from(["J", "I", "correlation"]))
    if kind == "J":
        mask = Mask.ones(n)
    elif kind == "I":
        mask = Mask.identity(n)
    else:
        mask = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, n)))
    return inst, s, mask


@settings(max_examples=60, deadline=None, derandomize=True)
@given(masked_instances())
def test_search_certifies_a_bound_at_its_own_point(case):
    inst, s, mask = case
    search = optimize_gamma(inst, s, mask)
    if search.regime.tag is not RegimeTag.INTERIOR_OPTIMUM:
        return
    best = search.best
    assert search.converged
    scale = max(1.0, abs(best.value))
    # the bound is certified: no subset beats it
    opt = exact_mesp(inst, s).value
    assert best.upper_bound >= opt - 1e-9 * max(1.0, abs(opt))
    # the reported value is the objective at the reported (gamma, x_hat)
    at_x = linx_objective(inst, mask, best.gamma, best.x_hat)
    assert abs(best.value - at_x) <= 1e-12 * scale
    # no worse than the unscaled bound, within the search's own gap
    plain = solve_linx(inst, s, mask, 1.0)
    assert best.upper_bound <= plain.upper_bound + best.duality_gap + 1e-12 * scale


@settings(max_examples=80, deadline=None, derandomize=True)
@given(masked_instances(max_n=10), st.floats(-2.0, 2.0))
def test_fixed_gamma_solve_converges_above_the_oracle(case, u):
    inst, s, mask = case
    res = solve_linx(inst, s, mask, math.exp(u))
    assert res.converged
    opt = exact_mesp(inst, s).value
    assert res.upper_bound >= opt - 1e-9 * max(1.0, abs(opt))


@st.composite
def rank_deficient_instances(draw, max_n=8):
    """(instance, r): a Gram matrix of order 3 to max_n and rank r < n,
    validated at s = r."""
    n = draw(st.integers(3, max_n))
    r = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = validate(SymMatrix.from_array(gram_matrix(rng, n, r)), r)
    assume(inst.rank == r)
    return inst, r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rank_deficient_instances())
def test_limit_bounds_the_optimum_and_sits_below_finite_scalings(case):
    inst, r = case
    lim = limit_linx_at_infinity(inst, r)
    assert lim.converged
    opt = exact_mesp(inst, r).value
    assert lim.upper_bound >= opt - 1e-9 * max(1.0, abs(opt))
    # at s = rank the bound does not increase in gamma, so no finite scaling
    # certifies less than the limit
    for gamma in (1.0, 1e3):
        res = solve_linx(inst, r, gamma=gamma)
        assert lim.value <= res.upper_bound + 1e-9 * max(1.0, abs(lim.value))


def _within_gaps(a, b, slack=1e-9):
    """Whether two results' values agree within the sum of their gaps, up to
    slack relative to max(1, |value|)."""
    return abs(a.value - b.value) <= a.duality_gap + b.duality_gap + slack * max(1.0, abs(a.value))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(masked_instances(), st.data())
def test_permuting_c_and_m_together_keeps_the_bound(case, data):
    inst, s, mask = case
    perm = data.draw(st.permutations(range(inst.n)))
    rows = np.ix_(perm, perm)
    pinst = validate(SymMatrix.from_array(inst.C.entries[rows]), s)
    pmask = Mask.from_matrix(SymMatrix.from_array(mask.matrix.entries[rows]))
    assert _within_gaps(solve_linx(inst, s, mask), solve_linx(pinst, s, pmask))
    search, psearch = optimize_gamma(inst, s, mask), optimize_gamma(pinst, s, pmask)
    assert search.regime == psearch.regime
    if search.best is not None:
        assert _within_gaps(search.best, psearch.best)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(masked_instances(), st.sampled_from([1e-2, 0.3, 10.0]), st.floats(-2.0, 2.0))
def test_scaling_c_moves_gamma(case, alpha, u):
    # (alpha C) o M = alpha (C o M), and gamma alpha^2 A X A is the same F:
    # z(alpha C, gamma) = z(C, alpha^2 gamma) + s log alpha
    inst, s, mask = case
    gamma = math.exp(u)
    scaled = solve_linx(validate(SymMatrix.from_array(alpha * inst.C.entries), s), s, mask, gamma)
    res = solve_linx(inst, s, mask, alpha * alpha * gamma)
    shifted = replace(res, value=res.value + s * math.log(alpha))
    assert _within_gaps(scaled, shifted)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(masked_instances(), st.floats(-2.0, 2.0), st.data())
def test_objective_is_exact_at_binary_points(case, u, data):
    inst, s, mask = case
    subset = sorted(data.draw(st.sets(st.integers(0, inst.n - 1), min_size=s, max_size=s)))
    x = np.zeros(inst.n)
    x[subset] = 1.0
    sign, ref = np.linalg.slogdet((inst.C.entries * mask.matrix.entries)[np.ix_(subset, subset)])
    # a singular or barely nonsingular subset has no logdet worth comparing
    assume(sign > 0 and np.linalg.cond(inst.C.entries[np.ix_(subset, subset)]) < 1e6)
    assert abs(linx_objective(inst, mask, math.exp(u), x) - ref) <= 1e-9 * max(1.0, abs(ref))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 8), st.data(), st.floats(-2.0, 2.0))
def test_complementation(n, data, u):
    # C F(x; C^-1, 1/gamma) C = F(e - x; C, gamma) / gamma, so
    # z(C, s, gamma) = log det C + z(C^-1, n - s, 1 / gamma)
    s = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    C = gram_matrix(rng, n) + 0.1 * np.eye(n)
    inv = np.linalg.inv(C)
    gamma = math.exp(u)
    res = solve_linx(validate(SymMatrix.from_array(C), s), s, gamma=gamma)
    comp_inst = validate(SymMatrix.from_array(0.5 * (inv + inv.T)), n - s)
    comp = solve_linx(comp_inst, n - s, gamma=1.0 / gamma)
    shifted = replace(comp, value=comp.value + np.linalg.slogdet(C)[1])
    assert _within_gaps(res, shifted)


# the two draws of the family below whose searches spend all 5,000
# evaluations unconverged: (seed, n, r, s, eps, alpha)
UNCONVERGED = [(315444054, 4, 1, 3, 1e-6, 1.0), (1400476265, 6, 1, 2, 1e-6, 100.0)]


def _near_rank_deficient(seed, n, r, s, eps, alpha):
    C = alpha * (gram_matrix(np.random.default_rng(seed), n, r) + eps * np.eye(n))
    return validate(SymMatrix.from_array(C), s)


@st.composite
def near_rank_deficient_draws(draw, max_n=8):
    """(seed, n, r, s, eps, alpha) of C = alpha (rank-r Gram + eps I)."""
    n = draw(st.integers(3, max_n))
    r = draw(st.integers(1, n - 1))
    s = draw(st.integers(1, n - 1))
    return (draw(st.integers(0, 2**32 - 1)), n, r, s,
            draw(st.sampled_from([1e-6, 1e-3])), draw(st.sampled_from([1e-2, 1.0, 1e2])))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(near_rank_deficient_draws())
@example(UNCONVERGED[0])
@example(UNCONVERGED[1])
@example((734531491, 4, 2, 3, 1e-6, 1.0))
@example((2663796492, 3, 1, 2, 1e-6, 100.0))
def test_near_rank_deficient_search_bounds_the_optimum(draw):
    # converged or not, the search certifies a bound; the last two examples
    # converge at gamma-hat near 7e11 and 7e7, where a bound certified by the
    # dense F sits 1.7e-4 and 1.4e-5 below the optimum
    s = draw[3]
    inst = _near_rank_deficient(*draw)
    search = optimize_gamma(inst, s)
    assume(search.regime.tag is RegimeTag.INTERIOR_OPTIMUM)
    opt = exact_mesp(inst, s).value
    assert search.best.upper_bound >= opt - 1e-9 * max(1.0, abs(opt))


@pytest.mark.xfail(strict=True, reason="the dense evaluator rounds at gamma-hat of 1e8 to 1e12")
@pytest.mark.parametrize("draw", UNCONVERGED, ids=["n4", "n6"])
def test_near_rank_deficient_search_converges(draw):
    assert optimize_gamma(_near_rank_deficient(*draw), draw[3]).converged
