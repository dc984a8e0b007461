"""Traced run: spans and counts at the boundaries of the program's modules.

While installed, the tracer replaces each public function in WRAPPED wherever
a module of the package binds it (the package namespace and every module
that imported it by name), so a call from any layer opens a span: name,
start, end, parent span and job.  Leaf kernels are counted, not spanned:
each scipy.linalg.cholesky and lmo_capped_simplex call adds its count and
time to the innermost open span.  Spans stay in memory and are written when
the run ends.  Nothing stays patched after the `installed` block.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("cli", "instance", "linx", "scaling", "gaps", "diagonal", "exact")

# (defining module, function, span name)
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("instance", "load_matrix", "instance.load_matrix"),
    ("instance", "validate", "instance.validate"),
    ("linx", "solve_linx", "linx.solve_linx"),
    ("scaling", "optimize_gamma", "scaling.optimize_gamma"),
    ("scaling", "limit_linx_at_infinity", "scaling.limit_linx_at_infinity"),
    ("gaps", "run_gap_experiment", "gaps.run_gap_experiment"),
    ("diagonal", "solve_diagonal_linx", "diagonal.solve_diagonal_linx"),
    ("exact", "exact_mesp", "exact.exact_mesp"),
)

# name, unit, better; the order in which the traced run reports them
PER_LAYER = (
    ("cli.commands", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("instance.load_s", "s", "lower"),
    ("instance.validate_calls", "count", "lower"),
    ("instance.validate_s", "s", "lower"),
    ("instance.mask_s", "s", "lower"),
    ("linx.solves", "count", "lower"),
    ("linx.unconverged", "count", "lower"),
    ("linx.solve_s", "s", "lower"),
    ("linx.iterations", "count", "lower"),
    ("linx.ms_per_iter", "ms", "lower"),
    ("linx.factorizations", "count", "lower"),
    ("linx.factorizations_per_iter", "1/iter", "lower"),
    ("linx.chol_s", "s", "lower"),
    ("linx.chol_gflop", "Gflop", "lower"),
    ("linx.eval_ms", "ms", "lower"),
    ("linx.lmo_us", "us", "lower"),
    ("scaling.searches", "count", "lower"),
    ("scaling.search_s", "s", "lower"),
    ("scaling.probes", "count", "lower"),
    ("scaling.probes_per_search", "1/search", "lower"),
    ("scaling.probe_s", "s", "lower"),
    ("scaling.limit_s", "s", "lower"),
    ("scaling.limit_iterations", "count", "lower"),
    ("gaps.experiment_s", "s", "lower"),
    ("gaps.rows", "count", "higher"),
    ("diagonal.calls", "count", "lower"),
    ("diagonal.solve_us", "us", "lower"),
    ("exact.calls", "count", "lower"),
    ("exact.subsets", "count", "lower"),
    ("exact.subsets_per_s", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end",
                 "chol", "chol_s", "chol_flop", "lmo", "lmo_s", "info")

    def __init__(self, id_, name, parent, job):
        self.id, self.name, self.parent, self.job = id_, name, parent, job
        self.start = self.end = 0.0
        self.chol = self.lmo = 0
        self.chol_s = self.chol_flop = self.lmo_s = 0.0
        self.info = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


def _result_info(name, args, result) -> dict:
    if name in ("linx.solve_linx", "scaling.limit_linx_at_infinity"):
        return {"iterations": result.iterations, "converged": bool(result.converged)}
    if name == "gaps.run_gap_experiment":
        return {"rows": len(result)}
    if name == "exact.exact_mesp":
        return {"subsets": math.comb(args[0].n, int(args[1]))}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: int | None = None

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, self.stack[-1].id if self.stack else None, self.job)
            self.spans.append(span)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            span.info = _result_info(name, args, result)
            return result

        return wrapper

    def _counted(self, kind, fn):
        def wrapper(*args, **kwargs):
            if not self.stack:   # outside any traced call, e.g. reference solves
                return fn(*args, **kwargs)
            span = self.stack[-1]
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if kind == "chol":
                    span.chol += 1
                    span.chol_s += elapsed
                    span.chol_flop += np.shape(args[0])[0] ** 3 / 3.0
                else:
                    span.lmo += 1
                    span.lmo_s += elapsed

        return wrapper

    @contextmanager
    def installed(self, package):
        import scipy.linalg

        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        bindings = [package, *mods.values()]
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        def patch_everywhere(fn, new):
            for owner in bindings:
                if owner.__dict__.get(fn.__name__) is fn:
                    patch(owner, fn.__name__, new)

        try:
            for mod, attr, name in WRAPPED:
                fn = getattr(mods[mod], attr)
                patch_everywhere(fn, self._spanned(name, fn))
            mask_cls = mods["instance"].Mask
            from_matrix = mask_cls.__dict__["from_matrix"].__func__
            patch(mask_cls, "from_matrix", staticmethod(self._spanned("instance.Mask.from_matrix", from_matrix)))
            lmo = mods["linx"].lmo_capped_simplex
            patch_everywhere(lmo, self._counted("lmo", lmo))
            patch(scipy.linalg, "cholesky", self._counted("chol", scipy.linalg.cholesky))
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def layer_metrics(self, overhead_s: float, eval_ms: float) -> dict[str, float]:
        by = defaultdict(list)
        child_s = defaultdict(float)
        for sp in self.spans:
            by[sp.name].append(sp)
            if sp.parent is not None:
                child_s[sp.parent] += sp.seconds

        def total(name):
            return sum(sp.seconds for sp in by[name])

        def ratio(num, den):
            return num / den if den else 0.0

        solves = by["linx.solve_linx"]
        iterations = sum(sp.info["iterations"] for sp in solves)
        factorizations = sum(sp.chol for sp in solves)
        search_ids = {sp.id for sp in by["scaling.optimize_gamma"]}
        probes = [sp for sp in solves if sp.parent in search_ids]
        searches = len(search_ids)
        subsets = sum(sp.info["subsets"] for sp in by["exact.exact_mesp"])
        lmo_calls = sum(sp.lmo for sp in self.spans)
        values = {
            "cli.commands": len(by["cli.main"]),
            "cli.self_s": sum(sp.seconds - child_s[sp.id] for sp in by["cli.main"]),
            "instance.load_s": total("instance.load_matrix"),
            "instance.validate_calls": len(by["instance.validate"]),
            "instance.validate_s": total("instance.validate"),
            "instance.mask_s": total("instance.Mask.from_matrix"),
            "linx.solves": len(solves),
            "linx.unconverged": sum(not sp.info["converged"] for sp in solves),
            "linx.solve_s": total("linx.solve_linx"),
            "linx.iterations": iterations,
            "linx.ms_per_iter": 1e3 * ratio(total("linx.solve_linx"), iterations),
            "linx.factorizations": factorizations,
            "linx.factorizations_per_iter": ratio(factorizations, iterations),
            "linx.chol_s": sum(sp.chol_s for sp in solves),
            "linx.chol_gflop": sum(sp.chol_flop for sp in solves) / 1e9,
            "linx.eval_ms": eval_ms,
            "linx.lmo_us": 1e6 * ratio(sum(sp.lmo_s for sp in self.spans), lmo_calls),
            "scaling.searches": searches,
            "scaling.search_s": total("scaling.optimize_gamma"),
            "scaling.probes": len(probes),
            "scaling.probes_per_search": ratio(len(probes), searches),
            "scaling.probe_s": sum(sp.seconds for sp in probes),
            "scaling.limit_s": total("scaling.limit_linx_at_infinity"),
            "scaling.limit_iterations": sum(sp.info["iterations"] for sp in by["scaling.limit_linx_at_infinity"]),
            "gaps.experiment_s": total("gaps.run_gap_experiment"),
            "gaps.rows": sum(sp.info["rows"] for sp in by["gaps.run_gap_experiment"]),
            "diagonal.calls": len(by["diagonal.solve_diagonal_linx"]),
            "diagonal.solve_us": 1e6 * ratio(total("diagonal.solve_diagonal_linx"),
                                             len(by["diagonal.solve_diagonal_linx"])),
            "exact.calls": len(by["exact.exact_mesp"]),
            "exact.subsets": subsets,
            "exact.subsets_per_s": ratio(subsets, total("exact.exact_mesp")),
            "trace.overhead_s": overhead_s,
        }
        return {name: values[name] for name, _, _ in PER_LAYER}


def gradient_ms(package, C, s, repeats: int = 7) -> float:
    """Median time of one linx_gradient call at the uniform point, gamma = 1."""
    inst = package.validate(package.SymMatrix.from_array(C), s)
    mask = package.Mask.ones(inst.n)
    x0 = np.full(inst.n, s / inst.n)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        package.linx_gradient(inst, mask, 1.0, x0)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)
