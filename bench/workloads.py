"""Workloads: the inputs made from the seed, and the fixed job list run on them.

Each workload draws its instances from a fixed pool and shows every instance
to the program under a signed permutation drawn from --seed,

    C -> D P C P^T D,   P a permutation, D diagonal with entries +-1.

Principal minors are invariant under this map, so the subset problem, the
relaxation and its optimum are too; a mask M gets the same P and its own
signs, and (D1 C D1) o (D2 M D2) = D (C o M) D with D = D1 D2.  Every seed
therefore poses problems of the same difficulty in a different form, which
the program cannot tell from new ones.  Fresh random instances per seed were
measured first and dropped: the solver's cost differs by more than ten times
between instances of one size (a gamma search takes 0.1 s to 7 s at n = 8 to
16), so a round of fresh instances spread by about 40% between seeds.

Two jobs take inputs that do not depend on the seed, because they fail at
this commit and must fail on every run: `bound` on the seed-0 n = 128 Gram
matrix with s = 64, where the linx engine stalls unconverged, and `gamma` on
the seed-3 rank-5 Gram matrix with n = 12 and s = 7 (s > rank), whose
psi = 14 diagnostic probe stalls.  `gram` repeats tests/helpers.gram_matrix,
so these are the same matrices the tests use.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks

WORKLOADS = ("bound-dense", "gamma-search", "oracle-small")

POOL_SEEDS = {"bound-dense": 1101, "gamma-search": 1102, "oracle-small": 1103}

# bound-dense: each order is solved at s = n/2 and s = n/3, gamma = 1.
DENSE_ORDERS = (32, 32, 48, 48, 64, 64)
IDENTITY_MASKED = (0, 4)   # pool indices also solved with --mask identity, s = n/2
FILE_MASKED = (1, 2)       # pool indices also solved with a random correlation mask
STALL_N, STALL_S = 128, 64

# gamma-search
GAMMA_POOL = ((8, 4), (10, 3), (12, 6), (14, 4), (16, 8), (16, 5))   # (n, s), s < rank
AUTO_CASE = (10, 5)
LIMIT_POOL = ((10, 4), (14, 5), (16, 8))                             # (n, rank), s = rank
GAP_ORDERS = "16,32,64"
RANK5_N, RANK5_R, RANK5_S = 12, 5, 7
PSI_DELTA = 0.05    # neighbours gamma * e^(+-delta) for the convexity check
LARGE_GAMMA = 1e3   # finite scaling whose bound must sit above the limit value

# oracle-small
ORACLE_DENSE = 48   # instances of order 6 + k % 7
ORACLE_DIAG = 16
ORACLE_GAMMAS = (0.5, 1.0, 2.0)


def gram(rng, n, r=None):
    """Random PSD matrix as a Gram product; full rank when r >= n."""
    r = n if r is None else r
    basis = rng.normal(size=(n, r))
    return basis @ basis.T / r


def correlation(rng, n):
    m = gram(rng, n)
    dinv = 1.0 / np.sqrt(np.diagonal(m))
    m = _sym(m * dinv[:, None] * dinv[None, :])
    np.fill_diagonal(m, 1.0)
    return m


def diagonal_entries(rng, n):
    """Log-uniform entries in [0.2, 3] at least 0.05 away from 1, where
    maximizers stop being unique."""
    out = np.empty(n)
    for i in range(n):
        v = 1.0
        while abs(v - 1.0) < 0.05:
            v = math.exp(rng.uniform(math.log(0.2), math.log(3.0)))
        out[i] = v
    return out


def _sym(m):
    return 0.5 * (m + m.T)


def _signed(m, perm, signs):
    return m[np.ix_(perm, perm)] * signs[:, None] * signs[None, :]


def make_inputs(name: str, seed: int) -> dict[str, np.ndarray]:
    """Every array the workload hands the program, keyed by role."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    pool = np.random.default_rng(POOL_SEEDS[name])
    show = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}

    def present(key, mat, mask_key=None, mask=None):
        n = mat.shape[0]
        perm = show.permutation(n)
        out[key] = _signed(_sym(mat), perm, show.choice([-1.0, 1.0], size=n))
        if mask_key is not None:
            out[mask_key] = _signed(mask, perm, show.choice([-1.0, 1.0], size=n))

    if name == "bound-dense":
        for k, n in enumerate(DENSE_ORDERS):
            mat = gram(pool, n)
            if k in FILE_MASKED:
                present(f"C{k}", mat, f"M{k}", correlation(pool, n))
            else:
                present(f"C{k}", mat)
        out["stall"] = _sym(gram(np.random.default_rng(0), STALL_N))
    elif name == "gamma-search":
        for k, (n, _) in enumerate(GAMMA_POOL):
            present(f"G{k}", gram(pool, n))
        present("auto", gram(pool, AUTO_CASE[0]))
        for k, (n, r) in enumerate(LIMIT_POOL):
            present(f"L{k}", gram(pool, n, r))
        out["rank5"] = _sym(gram(np.random.default_rng(3), RANK5_N, RANK5_R))
    else:
        for k in range(ORACLE_DENSE):
            n = 6 + k % 7
            present(f"C{k}", gram(pool, n), f"M{k}", correlation(pool, n))
        for k in range(ORACLE_DIAG):
            d = diagonal_entries(pool, 6 + k % 7)
            out[f"d{k}"] = d[show.permutation(d.size)]
    return out


@dataclass
class Job:
    """One timed call.  `run` makes it; `failed` says whether the program
    reported failure; `check` lists problems in an output that did not fail."""

    name: str
    run: Callable[[], Any]
    failed: Callable[[Any], bool]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    jobs: list[Job]
    largest: tuple[np.ndarray, int]   # (C, s) whose gradient the traced run times


def write_matrix(path: str, mat: np.ndarray) -> None:
    rows = [" ".join(repr(float(v)) for v in row) for row in mat]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mat.shape[0]}\n" + "\n".join(rows) + "\n")


def _once(make):
    """make() evaluated on first use: reference values for the checks are not
    part of set-up."""
    box = []

    def get():
        if not box:
            box.append(make())
        return box[0]

    return get


def _cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue()


def _cli_job(cli, name, argv, check_report) -> Job:
    def check(output):
        try:
            report = json.loads(output[1])
        except ValueError:
            return [f"unparsable report {output[1][:200]!r}"]
        return check_report(report)

    return Job(name, lambda: _cli_call(cli, argv), lambda output: output[0] != 0, check)


def _expect(report: dict, **fields) -> list[str]:
    return [
        f"{key} is {report.get(key)!r}, expected {want!r}"
        for key, want in fields.items()
        if report.get(key) != want
    ]


class _Reference:
    """Bounds the checks compare against, from the package's own solver.

    Built from functions captured before any tracing wraps the package, so
    reference solves never show up in the traced layers.  Cached per gamma,
    because every round repeats the same jobs."""

    def __init__(self, lb, C, s):
        validate, from_array = lb.validate, lb.SymMatrix.from_array
        self.inst = _once(lambda: validate(from_array(C), s))
        self.solve = lb.solve_linx
        self.s = s
        self.cache = {}

    def bound(self, gamma):
        if gamma not in self.cache:
            self.cache[gamma] = self.solve(self.inst(), self.s, None, gamma)
        return self.cache[gamma]


def _gamma_checks(ref: _Reference, gamma, value) -> list[str]:
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and gamma > 0):
        return [f"gamma {gamma!r} is not a finite positive number"]
    r1 = ref.bound(1.0)
    out = checks.not_above(value, r1.value, r1.duality_gap, "the gamma = 1 bound")
    for sign in (1.0, -1.0):
        r = ref.bound(gamma * math.exp(sign * PSI_DELTA))
        out += checks.not_above(value, r.value, r.duality_gap, f"the bound at gamma*e^{sign * PSI_DELTA:+g}")
    return out


def build(name: str, inputs: dict[str, np.ndarray], workdir: str, lb, cli) -> Workload:
    """Job list for one workload; writes the matrix and mask files it needs."""
    if name == "oracle-small":
        return _oracle_small(inputs, lb)
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for key, mat in inputs.items():
        paths[key] = os.path.join(workdir, f"{key}.txt")
        write_matrix(paths[key], mat)
    if name == "bound-dense":
        return _bound_dense(inputs, paths, cli)
    return _gamma_search(inputs, paths, lb, cli)


def _bound_job(cli, key, path, A, s, mask_spec, mask_label):
    n = A.shape[0]

    def check_report(rep):
        out = _expect(rep, command="bound", n=n, s=s, mask=mask_label)
        return out + checks.check_bound(rep.get("value"), rep.get("x_hat"), rep.get("duality_gap"), A, 1.0, s)

    argv = ["bound", "--input", path, "--s", str(s), "--gamma", "1", "--mask", mask_spec]
    return _cli_job(cli, f"bound {key} n={n} s={s} mask={mask_spec.split(':')[0]}", argv, check_report)


def _bound_dense(inputs, paths, cli) -> Workload:
    jobs = []
    for k, n in enumerate(DENSE_ORDERS):
        C = inputs[f"C{k}"]
        for s in (n // 2, n // 3):
            jobs.append(_bound_job(cli, f"C{k}", paths[f"C{k}"], C, s, "none", "J"))
        if k in IDENTITY_MASKED:
            jobs.append(_bound_job(cli, f"C{k}", paths[f"C{k}"], np.diag(np.diagonal(C)), n // 2, "identity", "I"))
        if k in FILE_MASKED:
            spec = f"file:{paths[f'M{k}']}"
            jobs.append(_bound_job(cli, f"C{k}", paths[f"C{k}"], C * inputs[f"M{k}"], n // 2, spec, spec))
    jobs.append(_bound_job(cli, "stall", paths["stall"], inputs["stall"], STALL_S, "none", "J"))
    return Workload(jobs, (inputs["stall"], STALL_S))


def _gamma_search(inputs, paths, lb, cli) -> Workload:
    jobs = []
    for k, (n, s) in enumerate(GAMMA_POOL):
        C = inputs[f"G{k}"]
        brute = _once(lambda C=C, s=s: checks.brute_force_mesp(C, s))
        ref = _Reference(lb, C, s)

        def check_gamma(rep, n=n, s=s, brute=brute, ref=ref):
            out = _expect(rep, command="gamma", n=n, s=s, regime="InteriorOptimum")
            value = rep.get("value")
            if not (isinstance(value, float) and math.isfinite(value)):
                return out + [f"value {value!r} is not finite"]
            out += checks.not_below(value, brute(), "brute-force MESP")
            return out + _gamma_checks(ref, rep.get("gamma"), value)

        argv = ["gamma", "--input", paths[f"G{k}"], "--s", str(s)]
        jobs.append(_cli_job(cli, f"gamma G{k} n={n} s={s}", argv, check_gamma))

    n, s = AUTO_CASE
    C = inputs["auto"]
    brute = _once(lambda: checks.brute_force_mesp(C, s))
    ref = _Reference(lb, C, s)

    def check_auto(rep, n=n, s=s, C=C, brute=brute, ref=ref):
        out = _expect(rep, command="bound", n=n, s=s, regime="InteriorOptimum")
        gamma, value = rep.get("gamma"), rep.get("value")
        bound = checks.check_bound(value, rep.get("x_hat"), rep.get("duality_gap"), C,
                                   gamma if isinstance(gamma, float) else math.nan, s, brute())
        return out + bound + ([] if bound else _gamma_checks(ref, gamma, value))

    argv = ["bound", "--input", paths["auto"], "--s", str(s), "--gamma", "auto"]
    jobs.append(_cli_job(cli, f"bound auto n={n} s={s}", argv, check_auto))

    for k, (n, r) in enumerate(LIMIT_POOL):
        C = inputs[f"L{k}"]
        brute = _once(lambda C=C, r=r: checks.brute_force_mesp(C, r))
        ref = _Reference(lb, C, r)

        def check_limit(rep, n=n, r=r, brute=brute, ref=ref):
            out = _expect(rep, command="limit", n=n, s=r, gamma="inf", regime="LimitAtInfinity")
            value, gap = rep.get("value"), rep.get("duality_gap")
            if not (isinstance(value, float) and math.isfinite(value) and isinstance(gap, float)):
                return out + [f"value {value!r} or gap {gap!r} is not a finite number"]
            out += checks.feasibility(rep.get("x_hat"), n, r)
            out += checks.not_below(value + gap, brute(), "brute-force MESP")
            big = ref.bound(LARGE_GAMMA)
            return out + checks.not_above(value, big.value, big.duality_gap, f"the bound at gamma={LARGE_GAMMA:g}")

        argv = ["limit", "--input", paths[f"L{k}"], "--s", str(r)]
        jobs.append(_cli_job(cli, f"limit L{k} n={n} s={r}", argv, check_limit))

    orders = [int(v) for v in GAP_ORDERS.split(",")]

    def check_gap(rep):
        rows = rep.get("rows") or []
        out = _expect(rep, command="gap")
        if [row.get("n") for row in rows] != orders:
            return out + [f"rows cover n={[row.get('n') for row in rows]}, expected {orders}"]
        for row in rows:
            if row.get("converged") is not True:
                out.append(f"row n={row['n']} did not converge")
            out += checks.not_below(row["gap"], row["theoretical_floor"], f"the floor at n={row['n']}")
        return out

    argv = ["gap", "--kind", "scaled", "--n", GAP_ORDERS]
    jobs.append(_cli_job(cli, f"gap scaled n={GAP_ORDERS}", argv, check_gap))

    def check_rank5(rep):
        out = _expect(rep, command="gamma", n=RANK5_N, s=RANK5_S, gamma="inf", regime="UnboundedBelow")
        return out + ([] if rep.get("value") == -math.inf else [f"value {rep.get('value')!r} is not -inf"])

    argv = ["gamma", "--input", paths["rank5"], "--s", str(RANK5_S)]
    jobs.append(_cli_job(cli, f"gamma n={RANK5_N} s={RANK5_S} rank={RANK5_R}", argv, check_rank5))

    n, s = GAMMA_POOL[4]
    return Workload(jobs, (inputs["G4"], s))


def _oracle_small(inputs, lb) -> Workload:
    """Per instance, in the order a branch-and-bound node makes them: validate,
    build the correlation mask, enumerate, then bound at three scalings under
    the J, I and correlation masks.  Diagonal instances go to the closed form."""
    jobs = []
    for k in range(ORACLE_DENSE):
        jobs += _oracle_instance(k, inputs[f"C{k}"], inputs[f"M{k}"], lb)
    for k in range(ORACLE_DIAG):
        d = inputs[f"d{k}"]
        s = d.size // 2
        A = np.diag(d)
        brute = _once(lambda A=A, s=s: checks.brute_force_mesp(A, s))

        def check_diag(sol, A=A, s=s, brute=brute):
            return checks.check_bound(sol.value, sol.x_hat, 0.0, A, 1.0, s, brute())

        jobs.append(Job(f"diagonal#{k} n={d.size} s={s}",
                        lambda d=d, s=s: lb.solve_diagonal_linx(d, s), lambda sol: False, check_diag))
    C = max((inputs[f"C{k}"] for k in range(ORACLE_DENSE)), key=len)
    return Workload(jobs, (C, C.shape[0] // 2))


def _oracle_instance(k, C, M, lb) -> list[Job]:
    n = C.shape[0]
    s = n // 2 if k % 2 == 0 else n // 3
    sym, msym = lb.SymMatrix.from_array(C), lb.SymMatrix.from_array(M)
    masks = {"J": lb.Mask.ones(n), "I": lb.Mask.identity(n)}
    hadamard = {"J": C, "I": np.diag(np.diagonal(C)), "corr": C * M}
    made = {}
    brute = _once(lambda: checks.brute_force_mesp(C, s))
    spectrum = _once(lambda: np.linalg.eigvalsh(C)[::-1])
    tag = f"#{k} n={n} s={s}"

    def validate():
        made["inst"] = lb.validate(sym, s)
        return made["inst"]

    def check_validate(inst):
        w = spectrum()
        out = []
        if float(np.max(np.abs(inst.eigvals - np.maximum(w, 0.0)))) > 1e-9 * max(1.0, w[0]):
            out.append("eigenvalues differ from eigvalsh")
        if inst.rank != int(np.count_nonzero(w > 1e-9 * w[0])):
            out.append(f"rank {inst.rank} differs from eigvalsh count")
        return out

    def mask():
        masks["corr"] = lb.Mask.from_matrix(msym, label="corr")
        return masks["corr"]

    def check_mask(m):
        return [] if np.array_equal(m.matrix.entries, M) else ["mask differs from its input"]

    def check_exact(res):
        out = []
        if abs(res.value - brute()) > checks.SAME_TOL * max(1.0, abs(brute())):
            out.append(f"exact value {res.value!r} differs from brute force {brute()!r}")
        sub = res.best_subset
        if len(set(sub)) != s or min(sub) < 0 or max(sub) >= n:
            out.append(f"subset {sub} is not an s-subset")
        elif abs(checks.subset_logdet(C, sub) - res.value) > checks.SAME_TOL * max(1.0, abs(res.value)):
            out.append(f"subset {sub} does not attain the reported value")
        return out

    jobs = [
        Job(f"validate{tag}", validate, lambda inst: False, check_validate),
        Job(f"mask{tag}", mask, lambda m: False, check_mask),
        Job(f"exact{tag}", lambda: lb.exact_mesp(made["inst"], s), lambda res: False, check_exact),
    ]
    for gamma in ORACLE_GAMMAS:
        for key, A in hadamard.items():
            def check_solve(res, A=A, gamma=gamma):
                return checks.check_bound(res.value, res.x_hat, res.duality_gap, A, gamma, s, brute())

            jobs.append(Job(f"solve{tag} gamma={gamma:g} mask={key}",
                            lambda key=key, gamma=gamma: lb.solve_linx(made["inst"], s, masks[key], gamma),
                            lambda res: not res.converged, check_solve))
    return jobs
