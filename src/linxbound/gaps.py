"""Block-diagonal families where identity masking beats no masking by
an amount linear in n, and the experiment harness that measures it.

Two families, both with s = n/2:

  * maskgap: n/2 identical 2x2 blocks with every entry sqrt(2)/2.  At
    gamma = 1 the unmasked bound exceeds the identity-masked bound by at
    least (1/4) log(4/3) per matrix row.

  * scaledgap: n/4 blocks [[1, c1], [c1, 1]] plus n/4 blocks
    [[1, c2], [c2, 1]] with c1^2 != c2^2.  The separation survives
    optimizing gamma on both sides; with (c1, c2) = (0, 1) the floor
    constant is about 0.024036 per row, attained at gamma = (1+sqrt(3))/2.

The masked side of both experiments is solve_linx (unscaled) or
optimize_gamma (scaled) with the identity mask, which answer the
diagonal C o I by its closed form, exactly; the unmasked side is the
actual solver value,
always at least the uniform-point floor, so the reported gaps are
realized, not just guaranteed.  gap_lower_bound_2x2 gives the guaranteed
gain of the optimal 2x2 mask for s = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diagonal import _check_2x2_psd, optimal_mask_2x2
from .instance import Mask, SymMatrix, validate
from .linx import DEFAULT_OPTIONS, NEG_INF, SolverOptions, solve_linx
from .scaling import optimize_gamma

DEFAULT_N_CAP = 1024  # largest order per row, a guard: a scaled row takes
                      # about 3.3 s there at one BLAS thread on 2 vCPUs

UNSCALED_FLOOR_PER_N = 0.25 * math.log(4.0 / 3.0)


class GapKind(Enum):
    UNSCALED = "Unscaled"
    SCALED = "Scaled"


@dataclass(frozen=True)
class GapReportRow:
    n: int
    plain_bound: float
    masked_bound: float
    gap: float
    theoretical_floor: float
    gamma_plain: float
    gamma_masked: float
    converged: bool


def _blocks_2x2(diag: float, off) -> np.ndarray:
    """Block-diagonal matrix of the 2x2 blocks [[diag, c], [c, diag]], one
    per entry c of off, in order."""
    mat = diag * np.eye(2 * len(off))
    rows = np.arange(len(mat))
    mat[rows, rows ^ 1] = np.repeat(off, 2)
    return mat


def build_maskgap_instance(n: int) -> SymMatrix:
    """Block-diagonal matrix of n/2 all-(sqrt(2)/2) 2x2 blocks.

    Eigenvalues are sqrt(2) with multiplicity n/2 and 0 with multiplicity
    n/2; the diagonal is constant sqrt(2)/2.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and at least 2, got {n}")
    v = math.sqrt(2.0) / 2.0
    return SymMatrix.from_array(_blocks_2x2(v, np.full(n // 2, v)))


def build_scaledgap_instance(n: int, c1: float = 0.0, c2: float = 1.0) -> SymMatrix:
    """Block-diagonal matrix of n/4 unit-diagonal blocks per correlation.

    Requires n divisible by 4, |c1| <= 1, |c2| <= 1, and c1^2 != c2^2
    (equal squares collapse the two block kinds into one and kill the
    floor).
    """
    if n < 4 or n % 4:
        raise ValueError(f"n must be a positive multiple of 4, got {n}")
    if c1 * c1 > 1.0 or c2 * c2 > 1.0:
        raise ValueError("block correlations must satisfy c^2 <= 1")
    if c1 * c1 == c2 * c2:
        raise ValueError("need c1^2 != c2^2")
    return SymMatrix.from_array(_blocks_2x2(1.0, np.repeat([c1, c2], n // 4)))


def scaled_gap_floor(c1: float, c2: float) -> tuple[float, float]:
    """Per-row floor constant for the scaled experiment.

    Minimizes the two-block uniform-point expression, the sum over both
    block kinds of log(a g + b + 1/(4g)) with a = (1 - c^2)^2 / 4 and
    b = (1 + c^2) / 2, over g = gamma > 0.  The minimizer is the positive
    root of the stationarity quartic

        2 a1 a2 g^4 + (a1 b2 + a2 b1) g^3 - (b1 + b2) g / 4 - 1/8 = 0,

    the only one, as its coefficients change sign once.  Returns
    (gamma_hat, b) where the guaranteed gap is b * n.  For (0, 1):
    gamma_hat = (1 + sqrt(3))/2 and b ~ 0.024036.
    """
    if c1 * c1 == c2 * c2:
        raise ValueError("need c1^2 != c2^2")
    a1, a2 = (0.25 * (1.0 - c * c) ** 2 for c in (c1, c2))
    b1, b2 = (0.5 * (1.0 + c * c) for c in (c1, c2))
    roots = np.roots([2.0 * a1 * a2, a1 * b2 + a2 * b1, 0.0, -0.25 * (b1 + b2), -0.125])
    g = float(roots[(roots.imag == 0.0) & (roots.real > 0.0)].real[0])
    total = math.log(a1 * g + b1 + 0.25 / g) + math.log(a2 * g + b2 + 0.25 / g)
    return g, total / 8.0


def run_gap_experiment(
    kind: GapKind,
    n_list,
    c1: float = 0.0,
    c2: float = 1.0,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> list[GapReportRow]:
    """Measure plain-versus-masked bounds on the gap families, s = n/2.

    Unscaled: both sides are solve_linx at gamma = 1.  Scaled: both sides
    are the best of optimize_gamma, which s = n/2 < rank puts in the
    interior regime; the masked side is diagonal, where the search takes
    the exact optimal scaling 1/d_s^2 and the scaled bound is tight (sum of
    the top s log-diagonals; identically 0 for the unit-diagonal family).
    A row reads the value, gamma and convergence of the two results, and
    converges when both sides do.  Rows are reported in increasing n; an
    order above DEFAULT_N_CAP is refused.
    """
    rows = []
    for n in sorted(int(n) for n in n_list):
        if n > DEFAULT_N_CAP:
            raise ValueError(f"n={n} exceeds the cap {DEFAULT_N_CAP}")
        s = n // 2
        masks = (Mask.ones(n), Mask.identity(n))
        if kind is GapKind.UNSCALED:
            inst = validate(build_maskgap_instance(n), s)
            plain, masked = (solve_linx(inst, s, m, 1.0, opts) for m in masks)
            floor = UNSCALED_FLOOR_PER_N * n
        elif kind is GapKind.SCALED:
            inst = validate(build_scaledgap_instance(n, c1, c2), s)
            plain, masked = (optimize_gamma(inst, s, m, opts).best for m in masks)
            floor = scaled_gap_floor(c1, c2)[1] * n
        else:
            raise ValueError(f"unknown experiment kind: {kind!r}")
        rows.append(
            GapReportRow(
                n=n,
                plain_bound=plain.value,
                masked_bound=masked.value,
                gap=plain.value - masked.value,
                theoretical_floor=floor,
                gamma_plain=plain.gamma,
                gamma_masked=masked.gamma,
                converged=plain.converged and masked.converged,
            )
        )
    return rows


def gap_lower_bound_2x2(a: float, b: float, c: float) -> float:
    """Guaranteed improvement of the optimally masked 2x2 bound, s = 1.

    Combines the uniform-point lower bound on the unmasked side (written
    through the eigenvalue identities lam1 + lam2 = a + b and
    lam1 lam2 = ab - c^2) with the achieved masked value:

        0.5 * log( ((c^2 + 1 - ab)^2 + (a + b)^2) / (4 g) ),
        g = exp(2 * masked bound at the optimal mask).
    """
    a, b, c = _check_2x2_psd(a, b, c)
    if b <= 0.0:
        raise ValueError("diagonal entries must be positive")
    off = optimal_mask_2x2(a, b, c) * c
    masked_value = solve_linx(validate(SymMatrix.from_array([[a, off], [off, b]]), 1), 1).value
    if masked_value == NEG_INF:
        raise ValueError("masked bound is degenerate for this input")
    g = math.exp(2.0 * masked_value)
    num = (c * c + 1.0 - a * b) ** 2 + (a + b) ** 2
    return 0.5 * math.log(num / (4.0 * g))
