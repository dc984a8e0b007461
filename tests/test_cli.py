"""Command-line interface: schemas, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from linxbound import Mask, SymMatrix, linx, linx_objective, solve_linx, validate
from linxbound.cli import _parser, main, parse_args, run

from helpers import gram_matrix

J2 = "2\n1 1\n1 1\n"
RANK1 = "3\n1 2 3\n2 4 6\n3 6 9\n"   # the README's rank-one input
DIAG = "3\n2 0 0\n0 1.5 0\n0 0 0.5\n"
I3 = "3\n1 0 0\n0 1 0\n0 0 1\n"


@pytest.fixture
def j2_file(tmp_path):
    path = tmp_path / "j2.txt"
    path.write_text(J2)
    return str(path)


@pytest.fixture
def rank1_file(tmp_path):
    path = tmp_path / "rank1.txt"
    path.write_text(RANK1)
    return str(path)


@pytest.fixture
def gram8_file(tmp_path):
    m = gram_matrix(np.random.default_rng(40), 8)
    path = tmp_path / "gram8.txt"
    path.write_text("8\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in m) + "\n")
    return str(path)


@pytest.fixture
def rank5_file(tmp_path):
    m = gram_matrix(np.random.default_rng(3), 12, 5)
    path = tmp_path / "rank5.txt"
    path.write_text("12\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in m) + "\n")
    return str(path)


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text(DIAG)
    return str(path)


def _run(argv):
    cfg = parse_args(argv)
    return run(cfg)


class TestBoundCommand:
    def test_value_and_schema(self, j2_file):
        status, text = _run(["bound", "--input", j2_file, "--s", "1", "--gamma", "1"])
        assert status == 0
        report = json.loads(text)
        assert report["command"] == "bound"
        assert report["n"] == 2 and report["s"] == 1
        assert report["mask"] == "J"
        assert report["value"] == pytest.approx(0.5 * math.log(1.25), abs=1e-9)
        assert len(report["x_hat"]) == 2
        assert report["duality_gap"] >= 0.0
        assert "rows" not in report and "regime" not in report

    def test_values_round_trip(self, diag_file):
        status, text = _run(["bound", "--input", diag_file, "--s", "1", "--gamma", "1"])
        assert status == 0
        report = json.loads(text)
        inst = validate(SymMatrix.from_diagonal([2.0, 1.5, 0.5]), 1)
        res = solve_linx(inst, 1, Mask.ones(3), 1.0)
        assert abs(report["value"] - res.value) <= 1e-12
        np.testing.assert_allclose(report["x_hat"], res.x_hat, atol=1e-12)

    def test_identity_mask_flag(self, j2_file):
        status, text = _run(
            ["bound", "--input", j2_file, "--s", "1", "--mask", "identity"]
        )
        assert status == 0
        report = json.loads(text)
        assert report["mask"] == "I"
        assert report["value"] == pytest.approx(0.0, abs=1e-12)

    def test_mask_from_file(self, j2_file, tmp_path):
        mask_path = tmp_path / "mask.txt"
        mask_path.write_text("2\n1 0.5\n0.5 1\n")
        status, text = _run(
            ["bound", "--input", j2_file, "--s", "1", "--mask", f"file:{mask_path}"]
        )
        assert status == 0
        assert json.loads(text)["mask"] == f"file:{mask_path}"

    def test_auto_gamma(self, diag_file):
        status, text = _run(["bound", "--input", diag_file, "--s", "1", "--gamma", "auto"])
        assert status == 0
        report = json.loads(text)
        assert report["gamma"] == pytest.approx(0.25)
        assert report["value"] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_auto_gamma_dense_is_consistent_at_its_gamma(self, gram8_file):
        # the auto report is the saddle solve itself: its value is the
        # objective at its own x_hat and gamma, and a fixed-gamma run at
        # that gamma certifies the same bound within the two gaps
        status, text = _run(["bound", "--input", gram8_file, "--s", "4", "--gamma", "auto"])
        assert status == 0
        auto = json.loads(text)
        assert auto["regime"] == "InteriorOptimum"
        inst = validate(SymMatrix.from_array(gram_matrix(np.random.default_rng(40), 8)), 4)
        at_x = linx_objective(inst, Mask.ones(8), auto["gamma"], auto["x_hat"])
        assert abs(auto["value"] - at_x) <= 1e-12 * abs(at_x)
        status, text = _run(
            ["bound", "--input", gram8_file, "--s", "4", "--gamma", repr(auto["gamma"])]
        )
        assert status == 0
        fixed = json.loads(text)
        assert fixed["gamma"] == auto["gamma"]
        slack = auto["duality_gap"] + fixed["duality_gap"] + 1e-13 * abs(fixed["value"])
        assert abs(auto["value"] - fixed["value"]) <= slack

    def test_auto_gamma_at_rank_reports_the_limit_solve(self, rank1_file):
        # s = rank: the search's result is the limit program's solve, so
        # auto prints the x_hat and duality_gap that limit prints
        status, text = _run(["bound", "--input", rank1_file, "--s", "1", "--gamma", "auto"])
        assert status == 0
        auto = json.loads(text)
        status, text = _run(["limit", "--input", rank1_file, "--s", "1"])
        assert status == 0
        limit = json.loads(text)
        assert auto["regime"] == limit["regime"] == "LimitAtInfinity"
        assert auto["gamma"] == "inf"
        for key in ("value", "x_hat", "duality_gap", "upper_bound"):
            assert auto[key] == limit[key]
        assert list(auto) == ["command", "n", "s", "gamma", "mask", "value", "regime",
                              "x_hat", "duality_gap", "upper_bound"]

    def test_log_base_conversion(self, j2_file):
        _, nat = _run(["bound", "--input", j2_file, "--s", "1"])
        _, base2 = _run(["bound", "--input", j2_file, "--s", "1", "--log-base", "2"])
        for key in ("value", "duality_gap", "upper_bound"):
            assert json.loads(base2)[key] == json.loads(nat)[key] / math.log(2.0)

    @pytest.mark.parametrize("gamma", ["1", "auto"])
    def test_reports_the_certified_bound(self, gram8_file, gamma):
        # value stays f(x_hat); upper_bound is the bound that the gap certifies
        status, text = _run(["bound", "--input", gram8_file, "--s", "4", "--gamma", gamma])
        assert status == 0
        report = json.loads(text)
        assert report["upper_bound"] == report["value"] + report["duality_gap"]
        assert list(report)[-3:] == ["x_hat", "duality_gap", "upper_bound"]

    def test_deterministic_output(self, diag_file):
        args = ["bound", "--input", diag_file, "--s", "2", "--gamma", "0.7"]
        assert _run(args) == _run(args)

    def test_nonconvergence_exit_code(self, gram8_file):
        # a diagonal input takes the closed form, which --max-iter does not cap
        status, text = _run(
            ["bound", "--input", gram8_file, "--s", "4", "--max-iter", "1"]
        )
        assert status == 2
        assert json.loads(text)["value"] is not None


class TestGammaCommand:
    @pytest.mark.parametrize("fixture", ["gram8_file", "diag_file", "rank1_file"])
    def test_prints_what_auto_bound_prints(self, request, fixture):
        # the interior saddle solve, the closed form and the limit solve
        path = request.getfixturevalue(fixture)
        s = "1" if fixture == "rank1_file" else "2"
        status, text = _run(["gamma", "--input", path, "--s", s])
        assert status == 0
        report = json.loads(text)
        status, text = _run(["bound", "--input", path, "--s", s, "--gamma", "auto"])
        assert status == 0
        assert report == {**json.loads(text), "command": "gamma"}
        assert list(report) == ["command", "n", "s", "gamma", "mask", "value", "regime",
                                "x_hat", "duality_gap", "upper_bound"]

    def test_diagonal_instance(self, diag_file):
        status, text = _run(["gamma", "--input", diag_file, "--s", "1"])
        assert status == 0
        report = json.loads(text)
        assert report["gamma"] == pytest.approx(0.25)
        assert report["value"] == pytest.approx(math.log(2.0), abs=1e-9)
        assert report["regime"] == "InteriorOptimum"

    def test_iteration_cap_exits_2(self, gram8_file):
        status, _ = _run(["gamma", "--input", gram8_file, "--s", "4", "--max-iter", "5"])
        assert status == 2

    def test_runaway_exits_2(self, monkeypatch, gram8_file):
        # a psi bound this tight stops the first damped step of the search
        monkeypatch.setattr(linx, "_PSI_RUNAWAY", 1e-3)
        status, text = _run(["gamma", "--input", gram8_file, "--s", "4"])
        assert status == 2
        assert text.startswith("solver error:") and "ran away" in text

    def test_limit_regime_marker(self, j2_file):
        status, text = _run(["gamma", "--input", j2_file, "--s", "1"])
        assert status == 0
        report = json.loads(text)
        assert report["gamma"] == "inf"
        assert report["regime"] == "LimitAtInfinity"
        assert report["value"] == pytest.approx(0.0, abs=1e-9)

    def test_unbounded_regime_golden(self, capsys, rank5_file):
        # s = 7 > rank 5: no float but -Infinity, so the text is pinned whole
        assert main(["gamma", "--input", rank5_file, "--s", "7"]) == 0
        assert capsys.readouterr().out == (
            '{"command": "gamma", "n": 12, "s": 7, "gamma": "inf", "mask": "J", '
            '"value": -Infinity, "regime": "UnboundedBelow"}\n'
        )


class TestExactCommand:
    def test_subset_as_indicator(self, diag_file):
        status, text = _run(["exact", "--input", diag_file, "--s", "1"])
        assert status == 0
        report = json.loads(text)
        assert report["value"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert report["x_hat"] == [1.0, 0.0, 0.0]

    def test_cap(self, diag_file):
        status, text = _run(["exact", "--input", diag_file, "--s", "1", "--cap", "2"])
        assert status == 1
        assert "cap" in text


class TestLimitCommand:
    def test_value(self, j2_file):
        status, text = _run(["limit", "--input", j2_file, "--s", "1"])
        assert status == 0
        report = json.loads(text)
        assert report["value"] == pytest.approx(0.0, abs=1e-9)
        assert report["gamma"] == "inf"

    def test_regime_misuse_exit_code(self, tmp_path):
        path = tmp_path / "i3.txt"
        path.write_text(I3)
        status, text = _run(["limit", "--input", str(path), "--s", "1"])
        assert status == 3
        assert json.loads(text)["regime"] == "InteriorOptimum"

    @pytest.mark.parametrize("base", ["2", "10"])
    def test_regime_misuse_in_other_log_bases(self, tmp_path, base):
        # the report's value is a string, which the base conversion skips
        path = tmp_path / "i3.txt"
        path.write_text(I3)
        status, text = _run(["limit", "--input", str(path), "--s", "1", "--log-base", base])
        assert status == 3
        report = json.loads(text)
        assert report["regime"] == "InteriorOptimum"
        assert report["value"] == "undefined: limit program requires s = rank"


class TestCsvOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--input", "{gram8}", "--s", "4", "--gamma", "1"],
            ["bound", "--input", "{gram8}", "--s", "4", "--gamma", "auto"],
            ["limit", "--input", "{j2}", "--s", "1"],
            ["limit", "--input", "{rank5}", "--s", "5"],
        ],
    )
    def test_x_hat_is_plain_floats(self, argv, gram8_file, j2_file, rank5_file):
        files = {"gram8": gram8_file, "j2": j2_file, "rank5": rank5_file}
        argv = [a.format(**files) for a in argv]
        status, text = _run(argv)
        assert status == 0
        expected = json.loads(text)["x_hat"]
        status, text = _run(argv + ["--output", "csv"])
        assert status == 0
        header, row = text.splitlines()
        field = row.split(",")[header.split(",").index("x_hat")]
        assert [float(v) for v in field.split(";")] == expected


class TestGapCommand:
    def test_json_rows(self):
        status, text = _run(["gap", "--kind", "unscaled", "--n", "2,4"])
        assert status == 0
        report = json.loads(text)
        assert [row["n"] for row in report["rows"]] == [2, 4]
        for row in report["rows"]:
            assert row["gap"] >= row["theoretical_floor"] - 1e-6
            assert row["converged"] is True

    def test_csv_columns(self):
        status, text = _run(["gap", "--kind", "unscaled", "--n", "2", "--output", "csv"])
        assert status == 0
        header, row = text.splitlines()
        assert header.split(",") == [
            "n",
            "plain_bound",
            "masked_bound",
            "gap",
            "theoretical_floor",
            "gamma_plain",
            "gamma_masked",
            "converged",
        ]
        assert int(row.split(",")[0]) == 2

    def test_scaled_kind(self):
        status, text = _run(["gap", "--kind", "scaled", "--n", "4"])
        assert status == 0
        row = json.loads(text)["rows"][0]
        assert row["masked_bound"] == 0.0
        assert row["gap"] >= 0.024036 * 4 - 1e-4

    def test_bad_n_list(self):
        assert main(["gap", "--n", "2,x"]) == 1

    def test_empty_n_list(self, capsys):
        assert main(["gap", "--n", ","]) == 1
        assert "--n must list at least one order" in capsys.readouterr().err

    def test_log_base_scales_rows(self):
        _, nat = _run(["gap", "--kind", "unscaled", "--n", "2,4"])
        _, base2 = _run(["gap", "--kind", "unscaled", "--n", "2,4", "--log-base", "2"])
        for row, row2 in zip(json.loads(nat)["rows"], json.loads(base2)["rows"]):
            for key in ("plain_bound", "masked_bound", "gap", "theoretical_floor"):
                assert row2[key] == row[key] / math.log(2.0)
            for key in ("n", "gamma_plain", "gamma_masked", "converged"):
                assert row2[key] == row[key]

    def test_plain_output_renders_rows(self):
        status, text = _run(["gap", "--kind", "unscaled", "--n", "2,4", "--output", "plain"])
        assert status == 0
        rows = json.loads(_run(["gap", "--kind", "unscaled", "--n", "2,4"])[1])["rows"]
        lines = text.splitlines()
        assert lines[:3] == [
            "command = gap",
            "rows:",
            "  n plain_bound masked_bound gap theoretical_floor gamma_plain gamma_masked converged",
        ]
        assert len(lines) == 5
        for line, row in zip(lines[3:], rows):
            fields = line.split()
            assert int(fields[0]) == row["n"]
            assert float(fields[1]) == row["plain_bound"]
            assert fields[-1] == str(row["converged"])


class TestErrorPaths:
    def test_missing_file(self):
        status, text = _run(["bound", "--input", "/nonexistent/m.txt", "--s", "1"])
        assert status == 1
        assert "error" in text

    def test_invalid_matrix(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0.5\n0.9 1\n")
        status, _ = _run(["bound", "--input", str(path), "--s", "1"])
        assert status == 1

    def test_invalid_s(self, j2_file):
        status, _ = _run(["bound", "--input", j2_file, "--s", "2"])
        assert status == 1

    @pytest.mark.parametrize("command", [["gamma"], ["bound", "--gamma", "auto"]])
    @pytest.mark.parametrize("mask", ["1\n1\n", I3])
    def test_mask_order_must_match(self, j2_file, tmp_path, command, mask):
        # a 1 x 1 mask broadcasts against C, so it must be caught by its order
        mask_path = tmp_path / "mask.txt"
        mask_path.write_text(mask)
        argv = [*command, "--input", j2_file, "--s", "1", "--mask", f"file:{mask_path}"]
        status, text = _run(argv)
        assert status == 1
        assert "does not match instance order 2" in text

    def test_invalid_gamma(self, j2_file):
        status, _ = _run(["bound", "--input", j2_file, "--s", "1", "--gamma", "-2"])
        assert status == 1

    def test_non_numeric_gamma(self, j2_file):
        status, text = _run(["bound", "--input", j2_file, "--s", "1", "--gamma", "abc"])
        assert status == 1
        assert text == "error: --gamma must be a number or 'auto', got 'abc'"

    @pytest.mark.parametrize("gamma", ["nan", "inf", "1e400"])
    def test_non_finite_gamma(self, diag_file, gram8_file, gamma):
        # these used to print NaN values or a misleading solver error
        for path in (diag_file, gram8_file):
            status, text = _run(["bound", "--input", path, "--s", "1", "--gamma", gamma])
            assert status == 1
            assert "finite positive" in text

    def test_unknown_mask_spec(self, j2_file):
        status, _ = _run(["bound", "--input", j2_file, "--s", "1", "--mask", "bogus"])
        assert status == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--tol-fw", "-1"),
            ("--tol-fw", "nan"),
            ("--tol-fw", "inf"),
            ("--tol-fw", "0"),
            ("--max-iter", "0"),
            ("--max-iter", "-5"),
        ],
    )
    def test_invalid_solver_options(self, j2_file, flag, value):
        status, text = _run(["bound", "--input", j2_file, "--s", "1", flag, value])
        assert status == 1
        assert flag[2:].replace("-", "_") in text

    def test_unknown_flag_exits_invalid(self):
        assert main(["bound", "--nope"]) == 1


def test_main_prints_report(capsys, j2_file):
    assert main(["bound", "--input", j2_file, "--s", "1", "--output", "plain"]) == 0
    out = capsys.readouterr().out
    assert "value" in out


def test_parser_is_built_once_and_keeps_no_state():
    assert _parser() is _parser()
    gap = parse_args(["gap", "--n", "4,6", "--kind", "scaled", "--output", "csv"])
    bound = parse_args(["bound", "--input", "m.txt", "--s", "2", "--gamma", "auto"])
    again = parse_args(["gap", "--n", "8"])
    bound_default = parse_args(["bound", "--input", "m.txt", "--s", "3"])
    assert (gap.n, gap.kind, gap.output) == ((4, 6), "scaled", "csv")
    assert (again.n, again.kind, again.output) == ((8,), "unscaled", "json")
    assert (bound.command, bound.s, bound.gamma, bound.mask) == ("bound", 2, "auto", "none")
    assert (bound_default.s, bound_default.gamma) == (3, "1")
    assert not hasattr(bound, "kind") and not hasattr(gap, "gamma")
