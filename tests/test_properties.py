"""Property tests of the solver and the scaling search against the exact oracle."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

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
