"""Fast tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

import itertools
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small():
    C = workloads.gram(np.random.default_rng(5), 6)
    return 0.5 * (C + C.T), 3


def test_checker_passes_a_real_bound(small):
    import linxbound

    C, s = small
    res = linxbound.solve_linx(linxbound.validate(linxbound.SymMatrix.from_array(C), s), s)
    brute = checks.brute_force_mesp(C, s)
    assert checks.check_bound(res.value, res.x_hat, res.duality_gap, C, 1.0, s, brute) == []


def test_checker_flags_bound_below_brute_force(small):
    C, s = small
    worst = min(itertools.combinations(range(6), s), key=lambda S: checks.subset_logdet(C, S))
    x = np.zeros(6)
    x[list(worst)] = 1.0
    value = checks.relaxation_value(C, 1.0, s, x)   # exact at a vertex: logdet C[S, S]
    problems = checks.check_bound(value, x, 0.0, C, 1.0, s, checks.brute_force_mesp(C, s))
    assert any("brute-force" in p for p in problems)


@pytest.mark.parametrize("x", [[0.5] * 5 + [0.6], [1.2, 0.9, 0.9, 0.0, 0.0, 0.0]])
def test_checker_flags_infeasible_x_hat(small, x):
    C, s = small
    problems = checks.check_bound(1.0, x, 0.0, C, 1.0, s)
    assert problems and all("x_hat" in p for p in problems)


def test_brute_force_matches_enumeration(small):
    C, s = small
    best = max(checks.subset_logdet(C, S) for S in itertools.combinations(range(6), s))
    assert checks.brute_force_mesp(C, s) == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    first, again, other = (workloads.make_inputs(name, seed) for seed in (7, 7, 8))
    assert list(first) == list(again) == list(other)
    for key in first:
        np.testing.assert_array_equal(first[key], again[key])
    assert any(not np.array_equal(first[key], other[key]) for key in first)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_presentation_keeps_the_problem(name):
    """Signed permutations leave the spectrum, hence the relaxation, unchanged;
    the two failing jobs' inputs do not depend on the seed at all."""
    first, other = workloads.make_inputs(name, 1), workloads.make_inputs(name, 2)
    for key in first:
        a, b = first[key], other[key]
        if key in ("stall", "rank5"):
            np.testing.assert_array_equal(a, b)
        elif a.ndim == 2:
            np.testing.assert_allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), atol=1e-12)
        else:
            np.testing.assert_array_equal(np.sort(a), np.sort(b))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    rounds = [{"wall_s": 1.0, "jobs": [{"s": 0.5, "failed": False, "problems": []}] * 2}]
    assert list(run.end_to_end(rounds, [0.4], 60.0)) == [m["name"] for m in spec["end_to_end"]]
    layers = tracing.Tracer().layer_metrics(overhead_s=0.0, eval_ms=0.0)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]


def test_tracer_counts_and_unpatches(small):
    import linxbound
    import scipy.linalg

    C, s = small
    inst = linxbound.validate(linxbound.SymMatrix.from_array(C), s)
    solve, chol = linxbound.solve_linx, scipy.linalg.cholesky
    tracer = tracing.Tracer()
    with tracer.installed(linxbound):
        res = linxbound.solve_linx(inst, s)
    assert linxbound.solve_linx is solve and scipy.linalg.cholesky is chol
    layers = tracer.layer_metrics(overhead_s=0.0, eval_ms=0.0)
    assert layers["linx.solves"] == 1
    assert layers["linx.iterations"] == res.iterations
    assert layers["linx.factorizations"] >= res.iterations
