"""Gap-instance builders, the floor evaluator, and the experiments."""

import math

import numpy as np
import pytest

from linxbound import (
    GapKind,
    SymMatrix,
    build_maskgap_instance,
    build_scaledgap_instance,
    run_gap_experiment,
    scaled_gap_floor,
    solve_diagonal_linx,
    validate,
)
from linxbound.gaps import DEFAULT_N_CAP

HALF = math.sqrt(2.0) / 2.0
UNSCALED_RATE = 0.25 * math.log(4.0 / 3.0)


class TestBuilders:
    def test_smallest_maskgap_block(self):
        mat = build_maskgap_instance(2)
        np.testing.assert_allclose(mat.entries, HALF * np.ones((2, 2)))

    def test_maskgap_spectrum(self):
        inst = validate(build_maskgap_instance(4), 2)
        np.testing.assert_allclose(
            inst.eigvals, [math.sqrt(2), math.sqrt(2), 0.0, 0.0], atol=1e-12
        )
        assert inst.rank == 2

    def test_maskgap_rejects_odd_order(self):
        with pytest.raises(ValueError):
            build_maskgap_instance(3)

    def test_scaledgap_default_blocks(self):
        mat = build_scaledgap_instance(4)
        want = np.zeros((4, 4))
        want[:2, :2] = np.eye(2)
        want[2:, 2:] = np.ones((2, 2))
        np.testing.assert_array_equal(mat.entries, want)

    def test_scaledgap_repeats_block_pattern(self):
        m8 = build_scaledgap_instance(8).entries
        assert np.count_nonzero(np.diagonal(m8) == 1.0) == 8
        inst = validate(build_scaledgap_instance(8), 4)
        assert inst.rank == 6

    @pytest.mark.parametrize("n,c1,c2", [(6, 0.0, 1.0), (4, 0.5, 0.5), (4, 0.5, -0.5), (4, 0.0, 1.5)])
    def test_scaledgap_rejects_bad_inputs(self, n, c1, c2):
        with pytest.raises(ValueError):
            build_scaledgap_instance(n, c1, c2)


class TestFloorEvaluator:
    def test_reproduces_reference_constants(self):
        gamma_hat, rate = scaled_gap_floor(0.0, 1.0)
        assert gamma_hat == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0, abs=1e-6)
        assert rate == pytest.approx(0.024036, abs=1e-6)

    def test_matches_analytic_expression(self):
        g = (1.0 + math.sqrt(3.0)) / 2.0
        want = (
            math.log(1.0 + 1.0 / (2.0 * (1.0 + math.sqrt(3.0))))
            + math.log(0.5 + 1.0 / (2.0 * (1.0 + math.sqrt(3.0))) + g / 4.0)
        ) / 8.0
        _, rate = scaled_gap_floor(0.0, 1.0)
        assert rate == pytest.approx(want, abs=1e-9)

    def test_positive_for_any_disjoint_pair(self):
        for c1, c2 in [(0.2, 0.8), (0.0, 0.5), (-0.3, 0.9)]:
            _, rate = scaled_gap_floor(c1, c2)
            assert rate > 0.0


class TestUnscaledExperiment:
    def test_masked_side_matches_closed_form(self):
        for n in (2, 6, 10):
            row = run_gap_experiment(GapKind.UNSCALED, [n])[0]
            assert row.masked_bound == pytest.approx(
                (n / 2) * math.log(0.75), abs=1e-10
            )
            sol = solve_diagonal_linx(np.full(n, HALF), n // 2)
            assert row.masked_bound == pytest.approx(sol.value, abs=1e-12)

    def test_gap_meets_floor(self):
        rows = run_gap_experiment(GapKind.UNSCALED, [2, 4, 8])
        for row in rows:
            assert row.gap >= row.theoretical_floor - 1e-6
            assert row.theoretical_floor == pytest.approx(UNSCALED_RATE * row.n)
            assert row.gamma_plain == 1.0 and row.gamma_masked == 1.0

    def test_rows_sorted_by_n(self):
        rows = run_gap_experiment(GapKind.UNSCALED, [8, 2, 4])
        assert [r.n for r in rows] == [2, 4, 8]

    def test_gap_grows_linearly(self):
        ns = list(range(2, 21, 2))
        rows = run_gap_experiment(GapKind.UNSCALED, ns)
        slope = np.polyfit([r.n for r in rows], [r.gap for r in rows], 1)[0]
        assert slope >= UNSCALED_RATE - 1e-3


class TestScaledExperiment:
    def test_masked_side_is_exactly_zero(self):
        rows = run_gap_experiment(GapKind.SCALED, [4, 8])
        for row in rows:
            assert row.masked_bound == 0.0
            assert row.gamma_masked == 1.0
            assert row.gap >= 0.024036 * row.n - 1e-4

    def test_gap_grows_linearly(self):
        ns = [4, 8, 12, 16, 20]
        rows = run_gap_experiment(GapKind.SCALED, ns)
        slope = np.polyfit([r.n for r in rows], [r.gap for r in rows], 1)[0]
        assert slope >= 0.024036 - 1e-3

    def test_n128_row_converges_above_its_floor(self):
        row = run_gap_experiment(GapKind.SCALED, [128])[0]
        assert row.converged
        assert row.gap >= row.theoretical_floor

    def test_cap_is_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            run_gap_experiment(GapKind.UNSCALED, [DEFAULT_N_CAP + 2])
