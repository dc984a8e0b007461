"""Command-line front end.

Commands:
    bound   evaluate the relaxation bound at a fixed or auto-chosen scaling
    gamma   optimize the scaling parameter and report the rank regime
    exact   brute-force subset enumeration (small n only)
    gap     plain-versus-masked separation experiments on built-in families
    limit   value of the infinite-scaling program (requires s = rank)

Exit codes: 0 success, 1 parse or validation failure, 2 solver
non-convergence, 3 regime misuse (limit with s != rank).

Reported values are natural-log entropies unless --log-base converts
them at serialization time.  Identical inputs and flags produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from .exact import DEFAULT_ENUMERATION_CAP, exact_mesp
from .gaps import GapKind, GapReportRow, run_gap_experiment
from .instance import Mask, load_matrix, validate
from .linx import DEFAULT_OPTIONS, BoundResult, SolverOptions, solve_linx
from .scaling import RegimeTag, classify_regime, limit_linx_at_infinity, optimize_gamma

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2
EXIT_REGIME_MISUSE = 3

_LOG_DIVISORS = {"e": 1.0, "2": math.log(2.0), "10": math.log(10.0)}

_ROW_FIELDS = tuple(f.name for f in dataclasses.fields(GapReportRow))

# the report and row keys that hold entropies, which --log-base converts
_ENTROPIES = {"value", "duality_gap", "upper_bound", "plain_bound", "masked_bound", "gap",
              "theoretical_floor"}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building the five
    subcommands costs about 20 times as much as one parse."""
    parser = argparse.ArgumentParser(
        prog="linxbound",
        description="Entropy bounds for maximum-entropy subset selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="matrix file path")
            p.add_argument("--s", required=True, type=int, help="subset size")
        p.add_argument("--output", choices=("json", "csv", "plain"), default="json")
        p.add_argument("--log-base", choices=("e", "2", "10"), default="e")
        p.add_argument("--tol-fw", type=float, default=DEFAULT_OPTIONS.tol_fw,
                       help="duality-gap target")
        p.add_argument("--max-iter", type=int, default=DEFAULT_OPTIONS.max_iter,
                       help="derivative evaluations per solve")

    p_bound = sub.add_parser("bound", help="evaluate the bound at a given gamma")
    add_common(p_bound)
    p_bound.add_argument("--gamma", default="1", help="positive scaling, or 'auto'")
    p_bound.add_argument("--mask", default="none", help="none, identity, or file:<path>")

    p_gamma = sub.add_parser("gamma", help="optimize the scaling parameter")
    add_common(p_gamma)
    p_gamma.add_argument("--mask", default="none", help="none, identity, or file:<path>")

    p_exact = sub.add_parser("exact", help="exhaustive subset search")
    add_common(p_exact)
    p_exact.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    p_gap = sub.add_parser("gap", help="bound-separation experiment")
    add_common(p_gap, needs_input=False)
    p_gap.add_argument("--kind", choices=("unscaled", "scaled"), default="unscaled")
    p_gap.add_argument("--n", required=True, help="comma-separated even orders")
    p_gap.add_argument("--c1", type=float, default=0.0)
    p_gap.add_argument("--c2", type=float, default=1.0)

    p_limit = sub.add_parser("limit", help="infinite-scaling limit value")
    add_common(p_limit)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse the command line; the --n list of gap comes out as a tuple of
    ints, and a list that does not parse raises ValueError."""
    ns = _parser().parse_args(argv)
    if ns.command == "gap":
        try:
            ns.n = tuple(int(part) for part in ns.n.split(",") if part.strip())
        except ValueError:
            raise ValueError(f"could not parse --n list {ns.n!r}") from None
        if not ns.n:
            raise ValueError("--n must list at least one order")
    return ns


def _load_mask(spec: str, n: int) -> Mask:
    if spec == "none":
        return Mask.ones(n)
    if spec == "identity":
        return Mask.identity(n)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            return Mask.from_matrix(load_matrix(fh), label=spec)
    raise ValueError(f"unknown mask spec {spec!r}")


def _gamma_value(text: str) -> float:
    """--gamma as a number; solve_linx rejects one that is not finite and
    positive, which exits 1 like any other invalid input."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--gamma must be a number or 'auto', got {text!r}") from None


def _scale_values(report: dict, base: str) -> dict:
    """report with its entropies, and those of its rows, in the log base;
    dividing by 1.0 is exact, so base e changes nothing."""
    div = _LOG_DIVISORS[base]

    def scaled(fields: dict) -> dict:
        # strings stay: the limit command's regime report carries a string value
        return {k: v / div if k in _ENTROPIES and not isinstance(v, str) else v
                for k, v in fields.items()}

    out = scaled(report)
    if "rows" in out:
        out["rows"] = [scaled(row) for row in out["rows"]]
    return out


def _json_num(x: float):
    # JSON has no inf; the degenerate-regime marker goes out as a string
    return "inf" if x == math.inf else x


def _render(report: dict, output: str) -> str:
    if output == "json":
        return json.dumps(report)
    if output == "csv":
        if "rows" in report:
            lines = [",".join(_ROW_FIELDS)]
            for row in report["rows"]:
                lines.append(",".join(str(row[k]) for k in _ROW_FIELDS))
            return "\n".join(lines)
        keys = [k for k in report if k != "rows"]
        flat = [
            ";".join(repr(v) for v in report[k]) if isinstance(report[k], list) else report[k]
            for k in keys
        ]
        return ",".join(keys) + "\n" + ",".join(str(v) for v in flat)
    lines = []
    for key, val in report.items():
        if key == "rows":
            lines.append("rows:")
            lines.append("  " + " ".join(_ROW_FIELDS))
            for row in val:
                lines.append("  " + " ".join(str(row[k]) for k in _ROW_FIELDS))
        elif key == "x_hat":
            lines.append("x_hat = " + " ".join(f"{v:.12g}" for v in val))
        else:
            lines.append(f"{key} = {val}")
    return "\n".join(lines)


def run(config: argparse.Namespace) -> tuple[int, str]:
    """Execute parsed arguments; returns (exit status, report text).

    On failure the text is the error message rather than a report.
    """
    try:
        status, report = _dispatch(config)
    except (ValueError, OSError) as exc:
        return EXIT_INVALID, f"error: {exc}"
    except (ArithmeticError, RuntimeError) as exc:
        return EXIT_NO_CONVERGENCE, f"solver error: {exc}"
    report = _scale_values(report, config.log_base)
    return status, _render(report, config.output)


def _status(converged: bool) -> int:
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def _bound_fields(res: BoundResult) -> dict:
    """The value, x_hat, duality_gap and upper_bound keys of a report on res:
    value is f(x_hat), and upper_bound = value + duality_gap the certified
    bound."""
    return {"value": res.value, "x_hat": res.x_hat.tolist(), "duality_gap": res.duality_gap,
            "upper_bound": res.upper_bound}


def _dispatch(config: argparse.Namespace) -> tuple[int, dict]:
    opts = SolverOptions(tol_fw=config.tol_fw, max_iter=config.max_iter)
    if config.command == "gap":
        kind = GapKind.UNSCALED if config.kind == "unscaled" else GapKind.SCALED
        rows = run_gap_experiment(kind, config.n, config.c1, config.c2, opts)
        payload = [
            {k: _json_num(getattr(r, k)) if k.startswith("gamma") else getattr(r, k)
             for k in _ROW_FIELDS}
            for r in rows
        ]
        return _status(all(r.converged for r in rows)), {"command": "gap", "rows": payload}

    with open(config.input, "r", encoding="utf-8") as fh:
        matrix = load_matrix(fh)
    inst = validate(matrix, config.s)
    base = {"command": config.command, "n": inst.n, "s": config.s}

    if config.command == "exact":
        res = exact_mesp(inst, config.s, cap=config.cap)
        x_hat = [1.0 if i in set(res.best_subset) else 0.0 for i in range(inst.n)]
        return EXIT_OK, {**base, "value": res.value, "x_hat": x_hat}

    if config.command == "limit":
        regime = classify_regime(inst, config.s)
        if regime.tag is not RegimeTag.LIMIT_AT_INFINITY:
            return EXIT_REGIME_MISUSE, {
                **base,
                "regime": regime.tag.value,
                "value": "undefined: limit program requires s = rank",
            }
        res = limit_linx_at_infinity(inst, config.s, opts)
        report = {**base, "gamma": "inf", **_bound_fields(res), "regime": regime.tag.value}
        return _status(res.converged), report

    mask = _load_mask(config.mask, inst.n)

    if config.command == "gamma" or config.gamma == "auto":
        search = optimize_gamma(inst, config.s, mask, opts)
        report = {
            **base,
            "gamma": _json_num(search.gamma_hat),
            "mask": mask.label,
            "value": search.bound_value,
            "regime": search.regime.tag.value,
        }
        if search.best is not None:
            # value is already in place; the other bound fields follow regime
            report.update(_bound_fields(search.best))
        return _status(search.converged), report

    res = solve_linx(inst, config.s, mask, _gamma_value(config.gamma), opts)
    return _status(res.converged), {**base, "gamma": res.gamma, "mask": mask.label, **_bound_fields(res)}


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; fold that into the validation code
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    status, text = run(config)
    print(text, file=sys.stderr if status == EXIT_INVALID else sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
