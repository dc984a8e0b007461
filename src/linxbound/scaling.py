"""Scaling-parameter optimization and rank-regime classification.

How the scaled bound behaves as gamma varies is governed entirely by how
the subset size s compares with rank(C):

    s < rank   the bound blows up as gamma -> 0 and gamma -> inf, and it
               is convex in psi = log(gamma), so a finite optimal gamma
               exists and one-dimensional search finds it;
    s = rank   the bound is non-increasing in gamma with a finite limit,
               computed here by a single auxiliary concave program;
    s > rank   the bound sinks to -inf as gamma grows, so no optimal
               gamma exists (every subset of size s is singular).

The search works in psi space on the sign of the exact slope, which each
probe's maximizer gives by the envelope theorem (_LinxProblem.psi_slope):
it expands a bracket until the slope changes sign, then bisects it.  Any
probe whose maximizer comes out binary ends the search immediately:
exactness at binary points makes that gamma globally optimal.  The limit
program supplies its own value, gradient and Hessian and is maximized by
the same barrier engine as the linx bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diagonal import optimal_gamma_2x2, optimal_gamma_diagonal
from .instance import Instance, Mask, SymMatrix, _freeze, validate
from .linx import (
    DEFAULT_OPTIONS,
    BoundResult,
    NEG_INF,
    SolverOptions,
    _cho_inverse,
    _cholesky,
    _LinxProblem,
    _logdet,
    _maximize_capped_simplex,
    certify_gamma_optimal,
    solve_linx,
)

PSI_TOL = 1e-6          # bisection bracket width on psi
PSI_LIMIT = 60.0        # expansion guard; far beyond any sane scaling


class RegimeTag(Enum):
    INTERIOR_OPTIMUM = "InteriorOptimum"
    LIMIT_AT_INFINITY = "LimitAtInfinity"
    UNBOUNDED_BELOW = "UnboundedBelow"


@dataclass(frozen=True)
class GammaRegime:
    tag: RegimeTag
    rank: int
    s: int


@dataclass(frozen=True, eq=False)
class GammaSearchResult:
    """Outcome of the scaling search.

    gamma_hat is math.inf for the two degenerate regimes.  psi_trace
    records every inner evaluation as (psi, bound) pairs, in evaluation
    order.  converged reports whether every inner solve met its gap
    target.  best is the inner solve at gamma_hat (the certified probe,
    or else the one of least value), and None in the two degenerate
    regimes.
    """

    gamma_hat: float
    bound_value: float
    psi_trace: tuple[tuple[float, float], ...]
    regime: GammaRegime
    converged: bool
    best: BoundResult | None = None


def classify_regime(inst: Instance, s: int) -> GammaRegime:
    s = int(s)
    if not 0 < s < inst.n:
        raise ValueError(f"need 0 < s < n, got s={s}, n={inst.n}")
    if s < inst.rank:
        tag = RegimeTag.INTERIOR_OPTIMUM
    elif s == inst.rank:
        tag = RegimeTag.LIMIT_AT_INFINITY
    else:
        tag = RegimeTag.UNBOUNDED_BELOW
    return GammaRegime(tag=tag, rank=inst.rank, s=s)


class _LimitProblem:
    """Objective of the infinite-scaling program, in eigenbasis terms.

    With C = Q Lam Q^T of rank s and P(x) = Q^T Diag(x) Q, maximize

        0.5 * ( logdet(Lam_s P_s(x) Lam_s) + logdet(I - P_rest(x)) )

    over P(n, s), where P_s is the leading s x s block of P and P_rest
    the trailing block.  With Rs = Qs P_s^-1 Qs^T and R2 = Q2 (I -
    P_rest)^-1 Q2^T, the gradient is 0.5 * (diag(Rs) - diag(R2)) and the
    Hessian -0.5 * (Rs o Rs + R2 o R2); the program runs on the same
    barrier engine as the linx bound.
    """

    def __init__(self, inst: Instance, s: int):
        self.Qs = inst.eigvecs[:, :s]
        self.Q2 = inst.eigvecs[:, s:]
        self.const = 2.0 * float(np.sum(np.log(inst.eigvals[:s])))

    def derivatives(self, x):
        ps = self.Qs.T @ (self.Qs * x[:, None])
        m2 = -(self.Q2.T @ (self.Q2 * x[:, None]))
        m2.flat[:: m2.shape[0] + 1] += 1.0
        lp = _cholesky(ps)
        lm = _cholesky(m2)
        if lp is None or lm is None:
            return NEG_INF, None, None
        rs = self.Qs @ _cho_inverse(lp) @ self.Qs.T
        r2 = self.Q2 @ _cho_inverse(lm) @ self.Q2.T
        val = 0.5 * (self.const + _logdet(lp) + _logdet(lm))
        grad = 0.5 * (np.diagonal(rs) - np.diagonal(r2))
        return val, grad, -0.5 * (rs * rs + r2 * r2)


def limit_linx_at_infinity(
    inst: Instance, s: int, opts: SolverOptions = DEFAULT_OPTIONS
) -> BoundResult:
    """Value of the scaled bound in the gamma -> inf limit, for s = rank(C)."""
    s = int(s)
    if not 0 < s < inst.n:
        raise ValueError(f"need 0 < s < n, got s={s}, n={inst.n}")
    if s != inst.rank:
        raise ValueError(f"limit program requires s = rank, got s={s}, rank={inst.rank}")
    problem = _LimitProblem(inst, s)
    x, f, gap, iters, converged = _maximize_capped_simplex(problem, inst.n, s, opts)
    return BoundResult(
        value=f,
        x_hat=_freeze(x),
        duality_gap=gap,
        gamma=math.inf,
        mask_id="J",
        iterations=iters,
        converged=converged,
    )


class _Certified(Exception):
    """Raised by a probe whose maximizer certifies its gamma optimal."""


def _candidate_gammas(eff: Instance, s: int):
    """Closed-form scalings worth probing before any search.

    Diagonal matrices have the exact optimum 1/d_s^2; nonsingular 2x2
    matrices have (a^2 - c^2)/(ab - c^2)^2.  Both produce binary
    maximizers, so hitting one ends the search via the certificate.
    """
    a = eff.C.entries
    if not np.any(a - np.diag(np.diagonal(a))):
        d_sorted = np.sort(eff.d)[::-1]
        yield optimal_gamma_diagonal(d_sorted, s)
    elif eff.n == 2 and float(eff.eigvals[-1]) > 0.0:
        try:
            yield optimal_gamma_2x2(a[0, 0], a[1, 1], a[0, 1])
        except ValueError:
            pass


def optimize_gamma(
    inst: Instance,
    s: int,
    mask: Mask | None = None,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> GammaSearchResult:
    """Minimize the scaled bound over gamma > 0 for the masked instance.

    The regime (and the limit program, when it applies) is keyed to the
    rank of the masked matrix C o M, since that is the matrix the bound
    actually sees.  In the interior regime the search expands a bracket
    in psi = log(gamma) until the exact slope changes sign, then bisects
    it down to PSI_TOL, one solve per slope; the best evaluated probe is
    returned, so the reported bound never exceeds any trace entry.
    """
    s = int(s)
    mask = Mask.ones(inst.n) if mask is None else mask
    if not np.any(mask.matrix.entries != 1.0):
        eff = inst
    else:
        eff = validate(SymMatrix.from_array(inst.C.entries * mask.matrix.entries), s)
    regime = classify_regime(eff, s)
    trace: list[tuple[float, float]] = []
    all_converged = True
    best: BoundResult | None = None

    def probe(psi: float, check_certificate: bool) -> BoundResult:
        nonlocal all_converged, best
        try:
            res = solve_linx(inst, s, mask, math.exp(psi), opts)
        except ArithmeticError as exc:
            raise ArithmeticError(f"inner solve failed at psi={psi:.6g}: {exc}") from exc
        all_converged = all_converged and res.converged
        trace.append((psi, res.value))
        if best is None or res.value < best.value:
            best = res
        if check_certificate and certify_gamma_optimal(res, opts.tol_binary):
            best = res
            raise _Certified
        return res

    if regime.tag is RegimeTag.UNBOUNDED_BELOW:
        for psi in (0.0, 7.0, 14.0):
            probe(psi, check_certificate=False)
        return GammaSearchResult(
            gamma_hat=math.inf,
            bound_value=NEG_INF,
            psi_trace=tuple(trace),
            regime=regime,
            converged=all_converged,
        )

    if regime.tag is RegimeTag.LIMIT_AT_INFINITY:
        lim = limit_linx_at_infinity(eff, s, opts)
        return GammaSearchResult(
            gamma_hat=math.inf,
            bound_value=lim.value,
            psi_trace=tuple(trace),
            regime=regime,
            converged=lim.converged,
        )

    def slope(psi: float) -> float:
        res = probe(psi, check_certificate=True)
        return _LinxProblem(inst, mask, res.gamma, s).psi_slope(res.x_hat)

    try:
        for gamma0 in _candidate_gammas(eff, s):
            probe(math.log(gamma0), check_certificate=True)

        lo, hi = -2.0, 2.0
        while slope(lo) >= 0.0:
            lo *= 2.0
            if lo < -PSI_LIMIT:
                raise RuntimeError(f"bracket expansion ran away (psi={lo:.3g})")
        while slope(hi) <= 0.0:
            hi *= 2.0
            if hi > PSI_LIMIT:
                raise RuntimeError(f"bracket expansion ran away (psi={hi:.3g})")

        while hi - lo > PSI_TOL:
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                hi = mid
            else:
                lo = mid
    except _Certified:
        pass

    return GammaSearchResult(
        gamma_hat=best.gamma,
        bound_value=best.value,
        psi_trace=tuple(trace),
        regime=regime,
        converged=all_converged,
        best=best,
    )
