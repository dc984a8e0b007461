"""Closed-form bound machinery for diagonal matrices, plus 2x2 formulas.

linx.solve_linx answers every diagonal C o M with solve_diagonal_linx;
this module imports nothing from linx.

For C = Diag(d) the relaxation objective separates per coordinate:

    f(x) = 0.5 * sum_i log( (d_i^2 - 1) x_i + 1 ),

so maximizers have an explicit description.  With d sorted non-increasing
there is a maximizer that is sorted non-increasing and constant across
equal diagonal entries; entries split into G = {d_i > 1} (coordinates
pushed up), E = {d_i = 1} (flat), and L = {d_i < 1} (pushed down), and
each homogeneous block is either binary or determined by a piecewise
linear pivot equation in the s-th coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import _check_s, _freeze

UNIT_SNAP = 1e-12   # |d_i - 1| below this counts as exactly 1


@dataclass(frozen=True, eq=False)
class DiagonalSolution:
    """Maximizer for a diagonal instance; x_hat is in the caller's
    original coordinate order."""

    x_hat: np.ndarray
    value: float


def _check_d(d) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("d must be a nonempty vector")
    if np.any(d <= 0.0):
        raise ValueError("all diagonal entries must be positive")
    return d


def _snap_units(d: np.ndarray) -> np.ndarray:
    return np.where(np.abs(d - 1.0) <= UNIT_SNAP, 1.0, d)


def solve_xs_equation(d, s: int) -> float:
    """Interior pivot coordinate for a homogeneous block.

    d must be sorted non-increasing with all entries > 1 or all < 1, and
    the block must actually be interior, i.e. the breakpoint gap
    1/(d_{s+1}^2 - 1) - 1/(d_s^2 - 1) must be below 1; otherwise the
    maximizer is binary and this raises.  Solves

        sum_{i<s} min(1, t + c_s - c_i) + t
            + sum_{i>s} max(0, t + c_s - c_i) = s,
        c_i = 1/(d_i^2 - 1),

    whose left side is continuous and piecewise linear in t with slope at
    least 1, exactly: by linear interpolation between its breaks in [0, 1].
    """
    d = _snap_units(_check_d(d))
    n = d.size
    s = _check_s(s, n)
    if np.any(np.diff(d) > 0.0):
        raise ValueError("d must be sorted non-increasing")
    if not (np.all(d > 1.0) or np.all(d < 1.0)):
        raise ValueError("d must lie entirely above or entirely below 1")
    c = 1.0 / (d * d - 1.0)
    if c[s] - c[s - 1] >= 1.0:
        raise ValueError("binary block: the pivot equation has no interior root")
    return _pivot_root(c, s)


def _pivot_root(c: np.ndarray, s: int) -> float:
    """Root t of solve_xs_equation's pivot equation, from its c, for a
    block that is interior: c_{s+1} - c_s < 1, checked by the caller."""
    # c is non-decreasing, so term i is clip(t + c_s - c_i, 0, 1).  On
    # [0, 1] it is 1 where c_i - c_s <= -1 and 0 where c_i - c_s >= 1; the
    # shifts w = c_i - c_s in between put breaks at w and w + 1, and the
    # left side is linear between breaks, so interpolating its inverse
    # through them is exact.  Prefix sums give it at every break.
    shift = c - c[s - 1]
    w = shift[(shift > -1.0) & (shift < 1.0)]
    t = np.concatenate(([0.0, 1.0], w, w + 1.0))
    t = np.unique(t[(t >= 0.0) & (t <= 1.0)])
    lo = np.searchsorted(w, t - 1.0, side="right")  # terms j < lo are 1
    hi = np.searchsorted(w, t)                       # terms j >= hi are 0
    total = np.concatenate(([0.0], np.cumsum(w)))
    lhs = np.count_nonzero(shift <= -1.0) + lo + ((hi - lo) * t - (total[hi] - total[lo]))
    return float(np.interp(s, lhs, t))


def _solve_homogeneous(d: np.ndarray, s: int):
    """Maximizer for a block with every entry on one side of 1.

    1 <= s <= n; s = n comes up when the budget takes the whole G block.
    """
    n = d.size
    if s == n:
        return np.ones(n)
    c = 1.0 / (d * d - 1.0)
    if c[s] - c[s - 1] >= 1.0:
        x = np.zeros(n)
        x[:s] = 1.0
        return x
    t = _pivot_root(c, s)
    x = np.clip(t + c[s - 1] - c, 0.0, 1.0)
    # one linear correction spreads the rounding residual over the
    # interior coordinates, tightening e.x = s to rounding error
    interior = (x > 0.0) & (x < 1.0)
    k = int(np.count_nonzero(interior))
    if k:
        x[interior] += (s - float(x.sum())) / k
    return x


def solve_diagonal_linx(d, s: int) -> DiagonalSolution:
    """Closed-form maximizer of the relaxation for C = Diag(d), gamma = 1.

    d need not be sorted; it is sorted internally (stable, |d_i - 1| is
    snapped at 1e-12) and the permutation is undone on output.  When the
    budget lands strictly inside E the leftover mass is spread uniformly
    there, a deterministic choice among the many maximizers.
    """
    d = _check_d(d)
    n = d.size
    s = _check_s(s, n)
    perm = np.argsort(-d, kind="stable")
    ds = _snap_units(d[perm])
    n_g = int(np.count_nonzero(ds > 1.0))
    n_e = int(np.count_nonzero(ds == 1.0))
    if s <= n_g:
        xs = np.concatenate([_solve_homogeneous(ds[:n_g], s), np.zeros(n - n_g)])
    elif s <= n_g + n_e:
        xs = np.concatenate(
            [np.ones(n_g), np.full(n_e, (s - n_g) / n_e), np.zeros(n - n_g - n_e)]
        )
    else:
        xs = np.concatenate([np.ones(n_g + n_e), _solve_homogeneous(ds[n_g + n_e :], s - n_g - n_e)])
    x = np.empty(n)
    x[perm] = xs
    value = 0.5 * float(np.sum(np.log((d * d - 1.0) * x + 1.0)))
    return DiagonalSolution(x_hat=_freeze(x), value=value)


def check_uniform_optimality(d, s: int, x, tol: float = 1e-8) -> bool:
    """First-order test for a sorted maximizer of the diagonal problem.

    With q_i = (d_i^2 - 1) / ((d_i^2 - 1) x_i + 1), a maximizer must have
    q non-increasing (every exchange direction e_j - e_i with i < j is
    non-improving), with equality across coordinates strictly inside
    (0, 1).  d must be sorted non-increasing and x feasible.
    """
    d = _check_d(d)
    x = np.asarray(x, dtype=float)
    n = d.size
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    if np.any(np.diff(d) > 0.0):
        raise ValueError("d must be sorted non-increasing")
    s = _check_s(s, n)
    if np.any(x < -1e-10) or np.any(x > 1.0 + 1e-10) or abs(float(x.sum()) - s) > 1e-8:
        raise ValueError("x is not feasible")
    q = (d * d - 1.0) / ((d * d - 1.0) * x + 1.0)
    running_min = np.minimum.accumulate(q)
    if np.any(q[1:] > running_min[:-1] + tol):
        return False
    strict = 1e-9
    interior = q[(x > strict) & (x < 1.0 - strict)]
    if interior.size > 1 and float(interior.max() - interior.min()) > tol:
        return False
    return True


def optimal_gamma_diagonal(d, s: int) -> float:
    """Scaling that forces a binary maximizer for diagonal instances: 1/d_s^2.

    At this gamma the scaled bound is tight, equal to the sum of the top
    s values of log d_i.  d must be sorted non-increasing.
    """
    d = _check_d(d)
    if np.any(np.diff(d) > 0.0):
        raise ValueError("d must be sorted non-increasing")
    s = int(s)
    if not 0 < s <= d.size:
        raise ValueError(f"need 0 < s <= n, got s={s}, n={d.size}")
    return float(1.0 / d[s - 1] ** 2)


def _check_2x2_psd(a: float, b: float, c: float) -> tuple[float, float, float]:
    # order so a >= b; the formulas below assume it
    if a < b:
        a, b = b, a
    scale = max(1.0, abs(a), abs(b), c * c)
    if b < -1e-12 * scale or a * b - c * c < -1e-10 * scale:
        raise ValueError(f"[[{a}, {c}], [{c}, {b}]] is not positive semidefinite")
    return float(a), float(b), float(c)


def optimal_mask_2x2(a: float, b: float, c: float) -> float:
    """Off-diagonal entry m* of an optimal 2x2 mask for s = 1.

    The masked bound depends on the mask only through (c^2 m^2 + 1 - ab)^2,
    so m* minimizes that quartic over [-1, 1]:

        c = 0           -> anything; 0 is returned
        (ab-1)/c^2 >= 1 -> +-1;      1 is returned
        (ab-1)/c^2 <= 0 -> 0
        otherwise       -> +-sqrt((ab-1)/c^2); the positive root is returned
    """
    a, b, c = _check_2x2_psd(a, b, c)
    if c == 0.0:
        return 0.0
    ratio = (a * b - 1.0) / (c * c)
    if ratio >= 1.0:
        return 1.0
    if ratio <= 0.0:
        return 0.0
    return math.sqrt(ratio)


def optimal_gamma_2x2(a: float, b: float, c: float) -> float:
    """Scaling that forces a binary maximizer for a PD 2x2 instance, s = 1:

        gamma = (a^2 - c^2) / (ab - c^2)^2   with a >= b.
    """
    a, b, c = _check_2x2_psd(a, b, c)
    det = a * b - c * c
    if det <= 1e-14 * max(1.0, a * b, c * c):
        raise ValueError("matrix is singular: ab = c^2")
    if b <= 0.0:
        raise ValueError("matrix is not positive definite")
    return (a * a - c * c) / det**2

