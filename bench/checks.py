"""Reference computations made apart from the program, and the output checks
built on them.

Nothing here imports linxbound: every reference value comes from its
definition, through numpy's LU-based slogdet and eigvalsh rather than the
Cholesky factorizations the program uses.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Agreement of one quantity computed two ways (objective at x_hat, exact
# value against brute force): rounding only.
SAME_TOL = 1e-8
# Inequalities that hold for the true optimum but are tested on solver
# output, which the program's own gap target (1e-8 * max(1, |f(x0)|))
# lets sit slightly below it.
BOUND_TOL = 1e-7
FEAS_TOL = 1e-9


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _slack(tol: float, *values: float) -> float:
    return tol * max([1.0] + [abs(v) for v in values if math.isfinite(v)])


def brute_force_mesp(C: np.ndarray, s: int) -> float:
    """max over all s-subsets S of log det C[S, S]; -inf when all are singular."""
    n = C.shape[0]
    subsets = np.array(list(itertools.combinations(range(n), s)), dtype=np.intp)
    sign, logdet = np.linalg.slogdet(C[subsets[:, :, None], subsets[:, None, :]])
    logdet = np.where(sign > 0, logdet, -np.inf)
    return float(np.max(logdet))


def subset_logdet(C: np.ndarray, subset) -> float:
    idx = np.asarray(subset, dtype=np.intp)
    sign, logdet = np.linalg.slogdet(C[np.ix_(idx, idx)])
    return float(logdet) if sign > 0 else -math.inf


def relaxation_value(A: np.ndarray, gamma: float, s: int, x) -> float:
    """0.5 * (logdet(gamma A Diag(x) A + Diag(e - x)) - s log gamma), A = C o M."""
    x = np.asarray(x, dtype=float)
    F = gamma * (A * x) @ A + np.diag(1.0 - x)
    sign, logdet = np.linalg.slogdet(0.5 * (F + F.T))
    if sign <= 0:
        return -math.inf
    return 0.5 * (float(logdet) - s * math.log(gamma))


def uniform_floor(A: np.ndarray, gamma: float, s: int) -> float:
    """Relaxation value at x = (s/n) e, from the spectrum of A."""
    lam = np.linalg.eigvalsh(A)
    p = s / A.shape[0]
    return 0.5 * (float(np.sum(np.log(p * gamma * lam * lam + 1.0 - p))) - s * math.log(gamma))


def feasibility(x, n: int, s: int) -> list[str]:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        return [f"x_hat has shape {x.shape}, expected ({n},)"]
    out = []
    if not np.all(np.isfinite(x)):
        out.append("x_hat has non-finite entries")
    elif float(x.min()) < -FEAS_TOL or float(x.max()) > 1.0 + FEAS_TOL:
        out.append(f"x_hat leaves [0, 1]: min {x.min():.3g}, max {x.max():.3g}")
    if abs(float(x.sum()) - s) > FEAS_TOL * max(1, s):
        out.append(f"x_hat sums to {x.sum():.12g}, expected {s}")
    return out


def check_bound(value, x_hat, gap, A, gamma, s, brute=None) -> list[str]:
    """A bound at fixed gamma: feasible x_hat, value equal to the objective at
    x_hat, not below the uniform point, and certified bound not below MESP."""
    n = A.shape[0]
    if not (_is_number(value) and math.isfinite(value)):
        return [f"value {value!r} is not a finite number"]
    if not (_is_number(gap) and gap >= 0.0):
        return [f"duality gap {gap!r} is not a non-negative number"]
    out = feasibility(x_hat, n, s)
    if out:
        return out
    f_x = relaxation_value(A, gamma, s, x_hat)
    if not abs(f_x - value) <= _slack(SAME_TOL, value):
        out.append(f"value {value!r} differs from objective at x_hat {f_x!r}")
    floor = uniform_floor(A, gamma, s)
    if value < floor - _slack(BOUND_TOL, floor):
        out.append(f"value {value!r} is below the uniform-point value {floor!r}")
    if brute is not None and value + gap < brute - _slack(BOUND_TOL, brute):
        out.append(f"certified bound {value + gap!r} is below brute-force MESP {brute!r}")
    return out


def not_above(value: float, ref_value: float, ref_gap: float, what: str) -> list[str]:
    """value must not exceed the certified bound ref_value + ref_gap."""
    if value > ref_value + ref_gap + _slack(BOUND_TOL, value, ref_value):
        return [f"value {value!r} exceeds {what} {ref_value + ref_gap!r}"]
    return []


def not_below(value: float, ref: float, what: str) -> list[str]:
    if value < ref - _slack(BOUND_TOL, value, ref):
        return [f"value {value!r} is below {what} {ref!r}"]
    return []
