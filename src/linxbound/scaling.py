"""Scaling-parameter optimization and rank-regime classification.

How the scaled bound behaves as gamma varies is governed entirely by how
the subset size s compares with rank(C):

    s < rank   the bound blows up as gamma -> 0 and gamma -> inf, and it
               is convex in psi = log(gamma), so a finite optimal gamma
               exists and the saddle search below finds it;
    s = rank   the bound is non-increasing in gamma with a finite limit,
               computed here by a single auxiliary concave program;
    s > rank   the bound sinks to -inf as gamma grows, so no optimal
               gamma exists (every subset of size s is singular).

In the interior regime the bound is min over psi = log(gamma) of max over
x of f(x, psi), and f is concave in x and convex in psi, so the search is
one convex-concave saddle problem, and each input takes one path to it
and yields one result:

    separable C o M   (diagonal C, or the identity mask) one closed-form
                      solve at gamma = 1/d_s^2, where the bound is the sum
                      of the s largest log d_i, the subset optimum itself;
    otherwise         the barrier engine carries psi next to x and takes
                      joint Newton steps on (x, psi) until the linearization
                      gap and |df/dpsi| both meet their targets; that saddle
                      point (x, psi) is the reported bound at gamma = e^psi,
                      certified in the eigenbasis of C o M, and nothing is
                      solved after it.

Both paths are one call of linx._solve on the masked instance that
instance._masked forms once per search, the same solve that solve_linx
makes at a fixed gamma.

The limit program is the linx evaluator's split form at gamma = 1 (see
_limit_problem and linx._LinxProblem), so it needs no linear algebra of its
own and is maximized by the same barrier engine as the linx bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .diagonal import optimal_gamma_diagonal
from .instance import Instance, Mask, _check_s, _masked
from .linx import (
    DEFAULT_OPTIONS,
    BoundResult,
    NEG_INF,
    SolverOptions,
    _LinxProblem,
    _maximize_capped_simplex,
    _result,
    _solve,
)


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
    """Outcome of the scaling search: its regime, and best, the one result
    it computed.

    best is the closed-form solve of a separable C o M or the saddle
    solve, at the optimal gamma, in the interior regime, and the limit
    program's solve, at gamma = inf and labelled with the search's mask, in
    the s = rank regime.  It is None only in the s > rank regime, where
    nothing runs and the bound is -inf.  gamma_hat, bound_value and
    converged read best: its gamma, value and convergence (the gap target
    met, and for the saddle solve the slope target too), or inf, -inf and
    True when best is None.
    """

    regime: GammaRegime
    best: BoundResult | None = None

    @property
    def gamma_hat(self) -> float:
        return math.inf if self.best is None else self.best.gamma

    @property
    def bound_value(self) -> float:
        return NEG_INF if self.best is None else self.best.value

    @property
    def converged(self) -> bool:
        return self.best is None or self.best.converged


def classify_regime(inst: Instance, s: int) -> GammaRegime:
    s = _check_s(s, inst.n)
    if s < inst.rank:
        tag = RegimeTag.INTERIOR_OPTIMUM
    elif s == inst.rank:
        tag = RegimeTag.LIMIT_AT_INFINITY
    else:
        tag = RegimeTag.UNBOUNDED_BELOW
    return GammaRegime(tag=tag, rank=inst.rank, s=s)


def _limit_problem(inst: Instance, s: int) -> _LinxProblem:
    """The infinite-scaling program for s = rank(C), as a split-form
    _LinxProblem.

    With C = Q Lam Q^T of rank s, U = Q Diag(1_s, 0), V = Q - U and
    P(x) = Q^T X Q, F(x) = U^T X U + V^T (I - X) V is block-diag(P_s(x),
    I - P_rest(x)), with P_s the leading s x s block of P and P_rest the
    trailing one.  So the program maximizes

        0.5 * ( logdet(Lam_s P_s(x) Lam_s) + logdet(I - P_rest(x)) )

    over P(n, s), with shift = -2 sum_{i <= s} log lam_i.
    """
    U = inst.eigvecs * (np.arange(inst.n) < s)
    shift = -2.0 * float(np.sum(np.log(inst.eigvals[:s])))
    return _LinxProblem.split(U, inst.eigvecs - U, s, shift)


def limit_linx_at_infinity(
    inst: Instance, s: int, opts: SolverOptions = DEFAULT_OPTIONS
) -> BoundResult:
    """Value of the scaled bound in the gamma -> inf limit, for s = rank(C)."""
    s = _check_s(s, inst.n)
    if s != inst.rank:
        raise ValueError(f"limit program requires s = rank, got s={s}, rank={inst.rank}")
    return _result(_maximize_capped_simplex(_limit_problem(inst, s), opts), math.inf, "J")


def optimize_gamma(
    inst: Instance,
    s: int,
    mask: Mask | None = None,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> GammaSearchResult:
    """Minimize the scaled bound over gamma > 0 for the masked instance.

    The regime (and the limit program, when it applies) is keyed to the
    rank of the masked matrix C o M, since that is the matrix the bound
    actually sees; instance._masked forms it, with its spectrum, once.  In
    the s = rank regime best is limit_linx_at_infinity of C o M, at
    gamma = inf, labelled with mask; in the s > rank regime nothing is
    solved and best is None.  In the interior regime best is one
    linx._solve of C o M, started at the gamma that is optimal for the
    diagonal of C o M, which makes it independent of the scale of C.  A
    separable C o M takes the closed form there, gamma = 1/d_s^2, with
    iterations 0.  Any other input, n = 2 included, runs the barrier
    engine with psi = log(gamma) carried next to x, and finds the saddle
    point (x, psi) of f, max over x and min over psi, by joint Newton
    steps: a long one where the joint Newton decrement does not grow, and
    the damped one otherwise, as in a fixed-gamma solve.  It stops when
    the linearization gap meets opts' target and |df/dpsi| <=
    linx.SLOPE_TOL.  That point is best, the result at gamma = e^psi: its
    x, steps and convergence, and f and the gap evaluated there once more
    in the eigenbasis of C o M; nothing is solved after it.  A mask whose
    order is not inst's raises ValueError.
    """
    s = int(s)
    mask = Mask.ones(inst.n) if mask is None else mask
    eff = _masked(inst, mask)
    regime = classify_regime(eff, s)

    if regime.tag is RegimeTag.UNBOUNDED_BELOW:
        return GammaSearchResult(regime)
    if regime.tag is RegimeTag.LIMIT_AT_INFINITY:
        best = replace(limit_linx_at_infinity(eff, s, opts), mask_id=mask.label)
    else:
        gamma_diag = optimal_gamma_diagonal(np.sort(eff.d)[::-1], s)
        best = _solve(eff, s, gamma_diag, mask.label, opts, search=True)
    return GammaSearchResult(regime, best)
