"""Matrix parsing, validation, and spectral precomputation."""

import numpy as np
import pytest

from linxbound import (
    Mask,
    SymMatrix,
    check_uniform_optimality,
    classify_regime,
    exact_mesp,
    limit_linx_at_infinity,
    lmo_capped_simplex,
    load_matrix,
    solve_diagonal_linx,
    solve_linx,
    solve_xs_equation,
    validate,
)

from helpers import correlation_matrix, gram_matrix


class TestLoadMatrix:
    def test_identity(self):
        m = load_matrix("2\n1 0\n0 1\n")
        np.testing.assert_array_equal(m.entries, np.eye(2))

    def test_all_ones(self):
        m = load_matrix("2\n1 1\n1 1\n")
        np.testing.assert_array_equal(m.entries, np.ones((2, 2)))

    def test_small_asymmetry_is_averaged(self):
        m = load_matrix("2\n1 0.5\n0.5000000001 1\n")
        assert m.entries[0, 1] == pytest.approx(0.50000000005, abs=1e-15)
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_comments_and_commas(self):
        text = "# covariance\n3\n1, 0, 0\n0 1 0\n# trailing comment\n0,0,1\n"
        np.testing.assert_array_equal(load_matrix(text).entries, np.eye(3))

    def test_file_object(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1\n2.5\n")
        with open(path) as fh:
            m = load_matrix(fh)
        assert m.n == 1 and m.entries[0, 0] == 2.5

    def test_repr_written_matrix_round_trips(self):
        m = gram_matrix(np.random.default_rng(4), 64)
        m = np.triu(m) + np.triu(m, 1).T
        text = "64\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in m)
        np.testing.assert_array_equal(load_matrix(text).entries, m)

    def test_unparsable_row_is_named(self):
        with pytest.raises(ValueError, match=r"^row 2: could not parse '0, 1, x'$"):
            load_matrix("3\n1 0 0\n# note\n0, 1, x\n0 0 1\n")

    def test_first_bad_row_is_named_whatever_its_fault(self):
        # rows are parsed as they are counted: a short row after an
        # unparsable one does not hide it
        with pytest.raises(ValueError, match=r"^row 2: could not parse '0 x 0'$"):
            load_matrix("3\n1 0 0\n0 x 0\n0 1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n",
            "two\n1 0\n0 1\n",
            "2\n1 0\n",                    # missing row
            "2\n1 0 0\n0 1 0\n",           # wrong row length
            "2\n1 x\n0 1\n",               # unparseable value
            "2\n1 0.5\n0.6 1\n",           # asymmetry above tolerance
            "0\n",
        ],
    )
    def test_rejects_bad_input(self, text):
        with pytest.raises(ValueError):
            load_matrix(text)


class TestValidate:
    def test_identity_instance(self):
        inst = validate(SymMatrix.identity(3), 2)
        assert inst.rank == 3
        np.testing.assert_allclose(inst.eigvals, np.ones(3))

    def test_rank_one_all_ones(self):
        inst = validate(SymMatrix.all_ones(2), 1)
        assert inst.rank == 1
        np.testing.assert_allclose(inst.eigvals, [2.0, 0.0], atol=1e-14)

    def test_rejects_indefinite(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        c = (q * np.array([1.0, 1.0, -0.001])) @ q.T
        with pytest.raises(ValueError, match="semidefinite"):
            validate(SymMatrix.from_array(c), 1)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            validate(SymMatrix.from_array([[1.0, 0.0], [0.0, 0.0]]), 1)

    @pytest.mark.parametrize("s", [0, -1, 3, 7])
    def test_rejects_s_out_of_range(self, s):
        with pytest.raises(ValueError):
            validate(SymMatrix.identity(3), s)

    @pytest.mark.parametrize("s", [0, 4])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda s: validate(SymMatrix.identity(4), s),
            lambda s: lmo_capped_simplex(np.arange(4.0), s),
            lambda s: solve_linx(validate(SymMatrix.identity(4), 2), s),
            lambda s: classify_regime(validate(SymMatrix.identity(4), 2), s),
            lambda s: limit_linx_at_infinity(validate(SymMatrix.identity(4), 2), s),
            lambda s: exact_mesp(validate(SymMatrix.identity(4), 2), s),
            lambda s: solve_diagonal_linx([2.0, 1.5, 0.5, 0.3], s),
            lambda s: solve_xs_equation([3.0, 2.5, 2.0, 1.5], s),
            lambda s: check_uniform_optimality([3.0, 2.5, 2.0, 1.5], s, np.full(4, 0.5)),
        ],
        ids=[
            "validate", "lmo_capped_simplex", "solve_linx", "classify_regime",
            "limit_linx_at_infinity", "exact_mesp", "solve_diagonal_linx",
            "solve_xs_equation", "check_uniform_optimality",
        ],
    )
    def test_every_entry_point_needs_s_inside_0_n(self, entry, s):
        with pytest.raises(ValueError, match=r"need 0 < s < n, got s=\d+, n=4"):
            entry(s)

    def test_s_above_rank_is_accepted(self):
        # degenerate but classifiable; the scaling module handles it
        inst = validate(SymMatrix.all_ones(3), 2)
        assert inst.rank == 1

    def test_spectral_invariants_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            inst = validate(SymMatrix.from_array(gram_matrix(rng, n)), 1)
            assert np.all(np.diff(inst.eigvals) <= 0)
            assert np.all(inst.eigvals >= 0)
            q = inst.eigvecs
            assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-10
            recon = (q * inst.eigvals) @ q.T
            assert np.max(np.abs(recon - inst.C.entries)) < 1e-10 * max(
                1.0, inst.eigvals[0]
            )

    def test_rank_of_structured_matrices(self):
        for n in (2, 5, 9):
            assert validate(SymMatrix.identity(n), 1).rank == n
            assert validate(SymMatrix.all_ones(n), 1).rank == 1

    def test_entries_are_immutable(self):
        inst = validate(SymMatrix.identity(2), 1)
        with pytest.raises(ValueError):
            inst.C.entries[0, 0] = 5.0
        with pytest.raises(ValueError):
            inst.eigvals[0] = 5.0


class TestMask:
    def test_builtin_masks(self):
        j = Mask.ones(4)
        i = Mask.identity(4)
        assert j.label == "J" and i.label == "I"
        np.testing.assert_array_equal(j.matrix.entries, np.ones((4, 4)))
        np.testing.assert_array_equal(i.matrix.entries, np.eye(4))

    def test_random_correlation_accepted(self):
        rng = np.random.default_rng(5)
        m = Mask.from_matrix(SymMatrix.from_array(correlation_matrix(rng, 6)))
        np.testing.assert_allclose(np.diagonal(m.matrix.entries), 1.0)

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            Mask.from_matrix(SymMatrix.from_array([[1.0, 0.0], [0.0, 0.9]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            Mask.from_matrix(SymMatrix.from_array([[1.0, 2.0], [2.0, 1.0]]))
