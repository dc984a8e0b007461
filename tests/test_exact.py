"""Brute-force oracle: submatrix log-determinants and subset enumeration."""

import itertools
import math

import numpy as np
import pytest

from linxbound import SymMatrix, exact_mesp, logdet_submatrix, validate

from helpers import correlation_matrix, gram_matrix

NEG_INF = float("-inf")


def test_logdet_identity_subset():
    assert logdet_submatrix(SymMatrix.identity(3), (0, 2)) == 0.0


def test_logdet_singular_block_is_minus_inf():
    assert logdet_submatrix(SymMatrix.all_ones(2), (0, 1)) == NEG_INF


def test_logdet_diagonal_product():
    c = SymMatrix.from_diagonal([2.0, 1.5, 0.5])
    # det of the leading 2x2 block is just 2 * 1.5
    assert logdet_submatrix(c, (0, 1)) == pytest.approx(math.log(3.0), abs=1e-14)


@pytest.mark.parametrize("subset", [(), (0, 0), (0, 3), (-1,)])
def test_logdet_rejects_bad_subsets(subset):
    with pytest.raises(ValueError):
        logdet_submatrix(SymMatrix.identity(3), subset)


def test_exact_picks_largest_diagonal():
    inst = validate(SymMatrix.from_diagonal([2.0, 1.5, 0.5]), 1)
    res = exact_mesp(inst, 1)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-14)
    assert res.best_subset == (0,)


def test_exact_tie_breaks_to_lexicographic_smallest():
    inst = validate(SymMatrix.all_ones(2), 1)
    res = exact_mesp(inst, 1)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.best_subset == (0,)

    inst = validate(SymMatrix.identity(4), 2)
    assert exact_mesp(inst, 2).best_subset == (0, 1)


def test_exact_all_singular_subsets():
    # rank 1, s = 2: every subset determinant vanishes
    inst = validate(SymMatrix.all_ones(3), 2)
    res = exact_mesp(inst, 2)
    assert res.value == NEG_INF
    assert res.best_subset == (0, 1)


def test_exact_above_rank_is_minus_inf():
    # rank 5, s = 8: rounding lets 51 of the 12,870 singular submatrices
    # through Cholesky, and the best of them has slogdet sign -1
    g = np.random.default_rng(1).normal(size=(16, 5))
    inst = validate(SymMatrix.from_array(g @ g.T), 8)
    assert inst.rank == 5
    res = exact_mesp(inst, 8)
    assert res.value == NEG_INF
    assert res.best_subset == tuple(range(8))


def test_exact_enumeration_cap():
    inst = validate(SymMatrix.identity(25), 2)
    with pytest.raises(ValueError, match="cap"):
        exact_mesp(inst, 2)
    assert exact_mesp(inst, 2, cap=25).value == 0.0


def test_exact_scaling_identity():
    # scaling every determinant by gamma^s shifts the optimum by s*log(gamma)
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        s = int(rng.integers(1, n))
        gamma = float(rng.uniform(0.3, 3.0))
        c = gram_matrix(rng, n)
        base = exact_mesp(validate(SymMatrix.from_array(c), s), s)
        scaled = exact_mesp(validate(SymMatrix.from_array(gamma * c), s), s)
        assert scaled.value - s * math.log(gamma) == pytest.approx(base.value, abs=1e-10)
        assert scaled.best_subset == base.best_subset


def test_masking_never_decreases_exact_value():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        s = int(rng.integers(1, n))
        c = gram_matrix(rng, n)
        m = correlation_matrix(rng, n)
        plain = exact_mesp(validate(SymMatrix.from_array(c), s), s)
        masked = exact_mesp(validate(SymMatrix.from_array(c * m), s), s)
        assert masked.value >= plain.value - 1e-12


def _enumerate(inst, s):
    """Reference: one logdet_submatrix call per subset, in lexicographic
    order, keeping only strict improvements.  Returns every value too."""
    values = {}
    best_val, best = NEG_INF, None
    for combo in itertools.combinations(range(inst.n), s):
        values[combo] = val = logdet_submatrix(inst.C, combo)
        if best is None or val > best_val:
            best_val, best = val, combo
    return best_val, best, values


def _assert_matches_enumeration(c, s):
    inst = validate(SymMatrix.from_array(c), s)
    res = exact_mesp(inst, s)
    best_val, best, values = _enumerate(inst, s)
    assert res.value == best_val  # bit for bit, not approximately
    assert res.best_subset == best
    return values


@pytest.mark.parametrize("seed", range(6))
def test_batched_enumeration_matches_subset_loop(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 11))
    for s in range(1, n):
        _assert_matches_enumeration(gram_matrix(rng, n), s)


def test_batched_enumeration_with_singular_subsets():
    # integer rank-5 Gram matrix with row 7 repeating row 0: every subset
    # holding both is exactly singular, so the single stacked Cholesky
    # over all C(8, 3) = 56 subsets fails and the chunk is evaluated subset
    # by subset
    rng = np.random.default_rng(7)
    g = rng.integers(-3, 4, size=(8, 5)).astype(float)
    g[7] = g[0]
    c = g @ g.T
    values = _assert_matches_enumeration(c, 3)
    singular = [k for k, v in values.items() if v == NEG_INF]
    assert singular and len(singular) < len(values)
    assert all(0 in k and 7 in k for k in singular)


def test_batched_enumeration_spans_several_chunks():
    # C(15, 7) = 6,435 subsets, more than one stacked call holds; shrinking
    # rows 0 and 1 puts the maximum among the last 1,716 subsets, which
    # hold neither
    scale = np.r_[0.1, 0.1, np.ones(13)]
    c = gram_matrix(np.random.default_rng(15), 15) * np.outer(scale, scale)
    _assert_matches_enumeration(c, 7)
    assert exact_mesp(validate(SymMatrix.from_array(c), 7), 7).best_subset[0] >= 2


def test_batched_enumeration_breaks_ties_lexicographically():
    # rounded entries that depend only on a class of each index: subsets
    # whose sorted indices run through the same classes have the same
    # submatrix entry for entry, hence the same value bit for bit, and the
    # first maximum in lexicographic order must win
    rng = np.random.default_rng(11)
    for _ in range(5):
        classes = rng.integers(0, 3, size=10)
        base = np.round(4.0 * gram_matrix(rng, 3)) + 3.0 * np.eye(3)
        c = base[np.ix_(classes, classes)] + 3.0 * np.eye(10)
        values = _assert_matches_enumeration(c, 4)
        top = max(values.values())
        assert sum(v == top for v in values.values()) >= 2
