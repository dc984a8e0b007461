"""Masked, scaled log-determinant relaxation over the capped simplex.

For an instance C, subset size s, mask M, and scaling gamma > 0, the bound
is the maximum over P(n, s) = {x : e.x = s, 0 <= x <= e} of

    f(x) = 0.5 * ( logdet F(x) - s * log(gamma) ),
    F(x) = gamma * (C o M) Diag(x) (C o M) + Diag(e - x),

where o is the Hadamard product.  f is concave; at a binary x with
support S the value collapses to logdet C[S, S], so the relaxation is
exact on vertices (the basis of the binary scaling certificate).

The maximizer is found by a log-barrier method.  F is affine in x, so
-2 f is self-concordant, and so is the barrier function

    psi_t(x) = -2 t f(x) - sum log x_i - sum log(1 - x_i),   t >= 1,

on the hyperplane e.x = s.  A Newton step dx whose decrement lam is at
least 1/4 first tries the long step: the full step, or 0.7 of the way to
the box boundary when that is shorter, kept when the Newton decrement
there is no larger than lam.  Otherwise, and for every step with a smaller
lam, it takes the damped step x + dx / (1 + lam): self-concordance
guarantees that it stays inside the box and decreases psi_t.  Once an
iterate is centred (lam < 1/4) the weight t grows by a fixed factor, until
t is so large that the gap there is below the tolerance up to rounding.
Before t grows, every centred iterate after the first predicts the face of
the optimum from its ratio to the previous one (a Tapia indicator: a
coordinate headed for a bound shrinks its distance to it about as fast as
t grows, an interior one keeps its value), fixes those coordinates at
their bounds, and runs a few equality-constrained Newton steps on f alone
over the rest, or over the whole polytope when nothing is fixed.  A point
of that face which meets the tolerance ends the solve, so coordinates that
belong at 0 or 1 come out exactly there, and an interior optimum is
reached without driving t to 1/tol.  Convergence is certified
independently of the method by the standard linearization gap max_v
grad(x) . (v - x) over the vertices v of P(n, s), which upper-bounds the
suboptimality of x.  The value and gap that a result reports are
evaluated once more at its x, in the eigenbasis of C o M (see _certify),
where large gamma does not round them away.

When C o M is diagonal the objective separates, and solve_linx returns
the closed-form maximizer of diagonal.solve_diagonal_linx instead: with
a = diag(C o M), gamma a_i^2 = (sqrt(gamma) a_i)^2, so the program is the
unscaled one of Diag(sqrt(gamma) a), shifted by -s log(gamma) / 2.

The scaling search runs the same engine with psi = log(gamma) as one more,
free, variable: f is convex in psi, so it takes joint Newton steps to the
saddle point, max over x and min over psi (see _maximize_capped_simplex).
A saddle point has no merit function to descend, but the long-step rule
needs none: it compares Newton decrements, so the joint steps try the
same long step, with the decrement max(lam, mu) of x and psi together.

Everything here is a pure function of its inputs; solves on shared
instances may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .diagonal import solve_diagonal_linx
from .instance import Instance, Mask, _check_s, _freeze

NEG_INF = float("-inf")

_CENTRED = 0.25      # Newton decrement below which an iterate counts as centred
_BOX_FRACTION = 0.7  # share of the longest step inside the box that a long step takes
_KEEP = 1.0          # largest ratio of a long step's Newton decrement to the last that keeps it
_T_GROWTH = 8.0      # barrier weight factor per centred iterate
_RATIO = 0.4         # drop in distance to a bound between centred iterates that fixes x_i
_FACE_STEPS = 4      # Newton steps allowed on a predicted face
_TIE = 1e-9          # relative slack within which coordinates meet a bound in one ratio test
_PSI_RUNAWAY = 60.0  # distance from its start at which a carried psi has run away

SLOPE_TOL = 1e-7     # target for |f_psi| when psi is carried
TOL_FEAS = 1e-10     # largest rounding drift of e.x away from s that is accepted
TOL_BINARY = 1e-6    # distance to {0, 1} within which a coordinate counts as binary


@dataclass(frozen=True)
class SolverOptions:
    """The two knobs of the barrier solver, and the only place their
    defaults live (the CLI's --tol-fw and --max-iter read them here).

    tol_fw is the absolute target for the linearization (Frank-Wolfe)
    duality gap; None means 1e-8 * max(1, |f(x0)|), fixed at the uniform
    start x0.  max_iter caps the derivatives calls (evaluations of f and
    its derivatives) of one solve, and a result's iterations is their
    count: every trial step, a rejected long step too, every face step and
    a face finish's projected point make one call.
    A tol_fw not finite and positive or a max_iter below 1 is rejected.
    """

    tol_fw: float | None = None
    max_iter: int = 5000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.tol_fw is not None and not (math.isfinite(self.tol_fw) and self.tol_fw > 0.0):
            raise ValueError(f"tol_fw must be a finite positive number, got {self.tol_fw}")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, eq=False)
class BoundResult:
    value: float
    x_hat: np.ndarray
    duality_gap: float
    gamma: float
    mask_id: str
    iterations: int
    converged: bool

    @property
    def upper_bound(self) -> float:
        """Certified bound on the relaxation's maximum: value + duality_gap."""
        return self.value + self.duality_gap


def lmo_capped_simplex(g, s: int) -> np.ndarray:
    """Vertex of P(n, s) maximizing g . x.

    Puts ones on the s largest components of g; ties go to the lowest
    index, which keeps the solver deterministic.
    """
    g = np.asarray(g, dtype=float)
    s = _check_s(s, g.shape[0])
    v = np.zeros(g.shape[0])
    v[np.argsort(-g, kind="stable")[:s]] = 1.0
    return v


def _fw_gap(g, x, s: int) -> float:
    """Linearization gap max_v g.(v - x) over the vertices v of P(n, s)."""
    return float(g @ (lmo_capped_simplex(g, s) - x))


def _gap_tol(opts: SolverOptions, f0: float) -> float:
    """Gap target of a solve whose objective is f0 at the uniform start."""
    return opts.tol_fw if opts.tol_fw is not None else 1e-8 * max(1.0, abs(f0))


def _check_gamma(gamma) -> float:
    """gamma as a float; raises ValueError unless it is finite and positive."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be a finite positive number, got {gamma}")
    return float(gamma)


def _check_mask(mask: Mask, n: int) -> None:
    """Raises ValueError unless mask has order n."""
    if mask.n != n:
        raise ValueError(f"mask order {mask.n} does not match instance order {n}")


def _is_ones(mask: Mask) -> bool:
    """Whether mask is all ones, so that C o M = C."""
    return not np.any(mask.matrix.entries != 1.0)


def _is_diagonal(A) -> bool:
    """Whether A = C o M has no nonzero off-diagonal entry, so f separates."""
    return not np.any(A - np.diag(np.diagonal(A)))


def _result(out, gamma: float, mask_id: str) -> BoundResult:
    """BoundResult from a solve's (x, f, gap, iterations, converged, psi)."""
    x, f, gap, iters, converged, _ = out
    return BoundResult(
        value=f,
        x_hat=_freeze(x),
        duality_gap=gap,
        gamma=float(gamma),
        mask_id=mask_id,
        iterations=iters,
        converged=converged,
    )


def _cholesky(mat):
    """Lower Cholesky factor, or None when mat is not positive definite."""
    try:
        return sla.cholesky(mat, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _logdet(chol) -> float:
    return 2.0 * float(np.log(chol.diagonal()).sum())


def _cho_inverse(chol):
    """Inverse of L L^T from its lower Cholesky factor L (upper part zero)."""
    linv, _ = sla.lapack.dtrtri(chol, lower=1)
    return linv.T @ linv


class _LinxProblem:
    """Evaluation machinery for one (instance, mask, gamma) triple, or
    for another program of the same split form.

    It evaluates f(x) = 0.5 * (logdet F(x) - shift) for

        F(x) = gamma U^T X U + V^T (I - X) V,    X = Diag(x),

    where V absent means V = I.  One factorization per iterate serves the
    objective, the gradient and the Hessian.  With W = F^-1, K = U W U^T,
    P = U W V^T and N = V W V^T,

        grad = 0.5 * (gamma diag(K) - diag(N)),
        hess = -0.5 * (gamma^2 K o K - gamma (P o P + P^T o P^T) + N o N).

    The linx program is U = A = C o M, V = I (so P = A W and N = W) and
    shift = s log(gamma).  split builds the other forms: the gamma -> inf
    limit program of scaling.py is one of them.

    With V = I the same W and P give the derivatives in psi = log(gamma):
    with d = e - x, dF/dpsi = F - Diag(d), so

        f_psi    = 0.5 * (n - s - d . diag(W)),
        f_psipsi = 0.5 * (d . diag(W) - d . (W o W) d),
        f_xpsi   = 0.5 * (diag(W) + gamma (P o P) d - (W o W) d).

    They hold for V = I only; no split problem is given a psi.

    A diagonal A takes the same formulas; solve_linx and the scaling
    search send it to the closed form instead, but linx_objective and
    linx_gradient evaluate it here.  A gamma that is not finite and
    positive is rejected here, for every caller.
    """

    V = None

    def __init__(self, inst: Instance, mask: Mask, gamma: float, s: int):
        _check_mask(mask, inst.n)
        self.U = self.Ut = inst.C.entries * mask.matrix.entries  # A^T = A
        self.n = inst.n
        self.gamma = _check_gamma(gamma)
        self.s = s
        self.shift = s * math.log(self.gamma)

    @classmethod
    def split(cls, U, V, s: int, shift: float):
        """The problem f(x) = 0.5 * (logdet F(x) - shift) of
        F(x) = U^T X U + V^T (I - X) V, at gamma = 1."""
        problem = cls.__new__(cls)
        problem.U, problem.Ut, problem.V = U, U.T, V
        problem.n, problem.gamma, problem.s, problem.shift = U.shape[0], 1.0, s, shift
        return problem

    def derivatives(self, x, psi=None):
        """(value, gradient, Hessian) of f at x; (-inf, None, None) where
        F(x) is not positive definite.

        Given psi, f is taken at gamma = e^psi instead of the problem's
        own gamma, and a fourth entry (f_psi, f_psipsi, f_xpsi) follows.
        """
        if psi is None:
            gam, shift = self.gamma, self.shift
        else:
            gam, shift = math.exp(psi), self.s * psi
        V = self.V
        F = gam * ((self.Ut * x) @ self.U)
        if V is None:
            F.flat[:: self.n + 1] += 1.0 - x
        else:
            F += (V.T * (1.0 - x)) @ V
        chol = _cholesky(F)
        if chol is None:
            return NEG_INF, None, None
        W = _cho_inverse(chol)
        UW = self.U @ W
        K = UW @ self.Ut
        P, N = (UW, W) if V is None else (UW @ V.T, V @ W @ V.T)
        NN, PP, ndiag = N * N, P * P, N.diagonal()
        grad = 0.5 * (gam * K.diagonal() - ndiag)
        hess = -0.5 * (gam * gam * (K * K) - gam * (PP + PP.T) + NN)
        out = (0.5 * (_logdet(chol) - shift), grad, hess)
        if psi is None:
            return out
        d = 1.0 - x
        dw, wwd = float(d @ ndiag), NN @ d
        f_psi = 0.5 * (self.n - self.s - dw)
        f_pp = 0.5 * (dw - float(d @ wwd))
        f_xp = 0.5 * (ndiag + gam * (PP @ d) - wwd)
        return out + ((f_psi, f_pp, f_xp),)


def linx_objective(inst: Instance, mask: Mask, gamma: float, x) -> float:
    """Objective value at x; -inf when F(x) is not positive definite.

    The -s log(gamma) correction uses sum(x) rounded to the nearest
    integer: s is a fixed property of the feasible set, so it must not
    drift when x is perturbed off the simplex (finite-difference probes
    rely on this).
    """
    x = np.asarray(x, dtype=float)
    return _LinxProblem(inst, mask, gamma, round(float(x.sum()))).derivatives(x)[0]


def linx_gradient(inst: Instance, mask: Mask, gamma: float, x) -> np.ndarray:
    """Analytic gradient: 0.5 * (gamma [A F^-1 A]_ii - [F^-1]_ii), A = C o M.

    Raises when F(x) is not positive definite.
    """
    x = np.asarray(x, dtype=float)
    _, grad, _ = _LinxProblem(inst, mask, gamma, round(float(x.sum()))).derivatives(x)
    if grad is None:
        raise np.linalg.LinAlgError("F(x) is not positive definite")
    return grad


def _kkt_step(grad, H, border=None):
    """Minimizer of grad.dx + dx.H.dx / 2 on e.dx = 0, and its decrement.

    Returns (dx, dpsi, lam, mu).  Without border, dpsi = mu = 0.  With
    border = (g_psi, h_psipsi, h_xpsi), h_psipsi <= 0, a free scalar psi
    joins x and the step is the Newton step to the saddle point, min over
    dx and max over dpsi, of the quadratic model with the extra terms
    g_psi dpsi + dpsi h_xpsi.dx + h_psipsi dpsi^2 / 2.  Its decrement
    mu = |dpsi| max(1, sqrt(-h_psipsi)) also counts the plain length of
    dpsi: at fixed x the bound is a sum of terms log(1 + e^psi k_i), whose
    third derivative in psi is bounded by their second but not by its
    power 3/2, so a long step can be short in the Hessian norm.

    The system is solved by LAPACK dgesv (LU with partial pivoting).  Its
    info > 0 means an exactly zero pivot, i.e. H is singular; that raises
    np.linalg.LinAlgError.
    """
    # H dx + h_xpsi dpsi + nu e = -grad with e.dx = 0, from one LU solve
    # with two right-hand sides, or three when psi is carried
    rhs = np.empty((grad.shape[0], 2 if border is None else 3), order="F")
    rhs[:, 0] = grad
    rhs[:, 1] = 1.0
    if border is not None:
        rhs[:, 2] = border[2]
    _, _, sol, info = sla.lapack.dgesv(H, rhs, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"KKT matrix is singular (U[{info - 1}, {info - 1}] = 0)")
    a, b, *c = sol.T
    dx = (a.sum() / b.sum()) * b - a
    if border is None:
        return dx, 0.0, math.sqrt(max(-float(grad @ dx), 0.0)), 0.0
    g_psi, h_pp, h_xp = border
    dc = (c[0].sum() / b.sum()) * b - c[0]  # the x response to a unit dpsi
    schur = h_pp + float(h_xp @ dc)        # <= 0; 0 where the psi-map is flat
    dpsi = -(g_psi + float(h_xp @ dx)) / schur if schur != 0.0 else 0.0
    dx = dx + dpsi * dc
    lam = math.sqrt(max(-float((grad + dpsi * h_xp) @ dx), 0.0))
    return dx, dpsi, lam, abs(dpsi) * max(1.0, math.sqrt(max(-h_pp, 0.0)))


def _newton_step(x, point, t: float):
    """Newton step of psi_t at an evaluated point, restricted to e.dx = 0:
    (dx, dpsi, lam, mu), with dpsi = mu = 0 unless psi is carried."""
    _, g, hess, *mixed = point
    u = 1.0 - x
    H = -2.0 * t * hess
    H.flat[:: x.shape[0] + 1] += 1.0 / (x * x) + 1.0 / (u * u)
    border = tuple(-2.0 * t * v for v in mixed[0]) if mixed else None
    return _kkt_step(-2.0 * t * g - 1.0 / x + 1.0 / u, H, border)


def _slope(point) -> float:
    """|f_psi| at an evaluated point; 0 when psi is not carried."""
    return abs(point[3][0]) if len(point) == 4 else 0.0


def _met(point, x, s: int, tol: float) -> bool:
    """Whether the gap target, and the slope target if psi is carried, hold."""
    return _fw_gap(point[1], x, s) <= tol and _slope(point) <= SLOPE_TOL


def _reproject(x, s: int):
    """Move x onto e.x = s in proportion to x(1 - x), which keeps 0 and 1."""
    w = x * (1.0 - x)
    return x + (s - float(x.sum())) / float(w.sum()) * w


def _face_newton(evaluate, x, prev, point, psi, s: int, tol: float):
    """Newton on f over the face of P(n, s) that x approaches.

    The face comes from Tapia indicators, the ratios of x to the previous
    centred iterate prev: along the central path a coordinate headed for
    0 shrinks about _T_GROWTH-fold per growth of t, while an interior one
    keeps its value.  So x_i is fixed at 0 when x_i < 1/2 and x_i <
    _RATIO * prev_i, and at 1 likewise in 1 - x.  The rest are re-projected
    onto e.y = s and take up to _FACE_STEPS equality-constrained Newton
    steps of -2 f, which is self-concordant, jointly with psi when it is
    carried, damped by 1/(1 + max(lam, mu)) while that maximum is at least
    _CENTRED.  With nothing fixed the face is the whole polytope: y starts
    at x, whose evaluated point is reused, and the try ends at the first
    step that would need damping.  A step that would take a free
    coordinate out of (0, 1) is cut at the boundary by a ratio test, once
    per try, and every coordinate that lands there is fixed.

    The projected point (none when nothing is fixed) and each step cost
    one evaluate(y, psi) call.  Returns (y, psi, point) for the first
    point that meets the targets, and None when the face has no interior,
    F(y) is not positive definite or evaluate gives up, the free block is
    singular, a second step needs the ratio test or the steps run out.
    """
    low = (x < 0.5) & (x < _RATIO * prev)
    high = (x > 0.5) & (1.0 - x < _RATIO * (1.0 - prev))
    free = ~(low | high)
    whole = bool(free.all())
    y = np.where(high, 1.0, np.where(low, 0.0, x))
    cut = False
    for steps in range(_FACE_STEPS + 1):
        k, m = int(free.sum()), s - int(y[~free].sum())
        if not (0 < m < k or m == k == 0):
            break
        if steps or not whole:
            if k:
                y = _reproject(y, s)
                if not (y[free].min() > 0.0 and y[free].max() < 1.0):
                    break  # also catches a step that is not finite
            point = evaluate(y, psi)
            if not np.isfinite(point[0]):
                break
            if _met(point, y, s, tol):
                return y, psi, point
        if k == 0 or steps == _FACE_STEPS:
            break
        _, g, hess, *mixed = point
        border = None
        if mixed:
            f_psi, f_pp, f_xp = mixed[0]
            border = (-2.0 * f_psi, -2.0 * f_pp, -2.0 * f_xp[free])
        try:
            dy, dpsi, lam, mu = _kkt_step(-2.0 * g[free], -2.0 * hess[free][:, free], border)
        except np.linalg.LinAlgError:
            break
        dec = max(lam, mu)
        if dec >= _CENTRED and whole:
            break
        damp = 1.0 + dec if dec >= _CENTRED else 1.0
        step = dy / damp
        yf = y[free] + step
        if yf.min() > 0.0 and yf.max() < 1.0:
            y[free] = yf
        elif cut:
            break
        else:
            # ratio test: stop where the first free coordinate meets its
            # bound, and fix every coordinate that meets one there
            cut = True
            yf = y[free]
            with np.errstate(divide="ignore"):
                reach = np.where(step < 0.0, yf, 1.0 - yf) / np.abs(step)
            alpha = float(reach.min())
            hit = reach <= alpha * (1.0 + _TIE)
            step *= alpha
            dpsi *= alpha
            yf += step
            yf[hit] = step[hit] > 0.0
            y[free] = yf
            free[free] = ~hit
        if psi is not None:
            psi += dpsi / damp
    return None


def _trial(evaluate, x, dx, psi, dpsi, psi0, s: int):
    """The point (y, psi + dpsi, its evaluation) for y = x + dx re-projected
    onto e.y = s; None when y is not strictly inside the box or f is not
    finite there (so also once evaluate has spent its budget).  Raises
    RuntimeError when psi + dpsi lies farther than _PSI_RUNAWAY from psi0,
    a test made after the box test."""
    y = _reproject(x + dx, s)
    if not (y.min() > 0.0 and y.max() < 1.0):
        return None
    if psi is not None:
        psi += dpsi
        if not abs(psi - psi0) <= _PSI_RUNAWAY:
            raise RuntimeError(f"scaling search ran away (psi={psi:.3g})")
    point = evaluate(y, psi)
    return (y, psi, point) if np.isfinite(point[0]) else None


def _maximize_capped_simplex(problem, opts: SolverOptions, psi=None):
    """Barrier-method core shared by the bound solvers.

    problem.derivatives(x) returns the value, gradient and Hessian of the
    concave objective over P(problem.n, problem.s): a _LinxProblem, of the
    linx program or of another split form F(x) = U^T X U + V^T (I - X) V.
    Every call goes through one counting closure, evaluate: its count is
    the result's iterations, and once opts.max_iter calls are spent it
    makes no more and returns the undefined point (-inf, None, None),
    which ends the solve as any undefined point does.

    A Newton step dx whose decrement lam is at least _CENTRED first tries
    the long step alpha = min(1, _BOX_FRACTION * alpha_box), with
    alpha_box the longest step along dx inside the open box, when alpha
    exceeds 1/(1 + lam).  It evaluates the trial point and its Newton step
    at the same t, and keeps the trial when that step's decrement is at
    most _KEEP * lam, i.e. does not grow; the kept trial's evaluation and
    step are the next iteration's.  Every other step, and the one after a
    rejected trial, is the damped step dx / (1 + lam), which
    self-concordance keeps inside the box and descending.  So each trial,
    kept or rejected, costs one derivatives call.  Each centred iterate
    but the first tries _face_newton on the face that its ratio to the
    previous centred iterate predicts, and returns that face's point when
    it meets the tolerance; otherwise t grows and the barrier goes on from
    x.  Stops when the linearization gap meets the tolerance, when the
    damped step has no point (max_iter derivatives calls are spent, f is
    undefined there, or rounding pushes it out of the open box), or when
    a centred iterate misses the tolerance with t above 8 n / tol (the gap
    there is below n / (2 t) up to rounding, so a larger t cannot help).

    Given a starting psi, problem.derivatives(x, psi) must also return
    the psi-derivatives (as _LinxProblem's does for V = I, the linx
    program; a split-form problem such as the limit program is never
    given a psi), and the engine finds the saddle point, max over x and
    min over psi, of f(x, psi), which is convex in psi.  Each step, the
    face finish's too, is then the joint Newton step (dx, dpsi), and
    max(lam, mu), with mu the decrement of the psi block, takes lam's
    place above: in the damping, in the long step's rule (which moves psi
    by alpha dpsi and is rejected when that puts psi farther than
    _PSI_RUNAWAY from its start) and in the centring test, so t grows when
    both decrements are below _CENTRED.  There is no cap on t, and the
    solve stops only when also |f_psi| <= SLOPE_TOL.  A damped step that
    puts psi farther than _PSI_RUNAWAY from its start raises RuntimeError.

    Returns (x, f, gap, iterations, converged, psi), psi None when it is
    not carried.
    """
    n, s = problem.n, problem.s
    calls = 0

    def evaluate(y, psi):
        nonlocal calls
        if calls == opts.max_iter:
            return NEG_INF, None, None
        calls += 1
        return problem.derivatives(y, psi)

    x, psi0, prev = np.full(n, s / n), psi, None
    point = evaluate(x, psi)
    if not np.isfinite(point[0]):
        raise ArithmeticError("objective is undefined at the uniform start point")
    tol = _gap_tol(opts, point[0])
    t_cap = 8.0 * n / tol
    t = 1.0
    step = None  # a kept long step's Newton step, computed at the same t
    while not _met(point, x, s, tol):
        dx, dpsi, lam, mu = step or _newton_step(x, point, t)
        if max(lam, mu) < _CENTRED:
            if prev is not None:
                face = _face_newton(evaluate, x, prev, point, psi, s, tol)
                if face is not None:
                    x, psi, point = face
                    break
            if psi is None and t > t_cap:
                break  # the gap is below n / (2 t) < tol here up to rounding
            prev = x
            t *= _T_GROWTH
            dx, dpsi, lam, mu = _newton_step(x, point, t)
        dec = max(lam, mu)
        damp = 1.0 + dec
        if dec >= _CENTRED:
            alpha = min(1.0, _BOX_FRACTION / float(np.maximum(-dx / x, dx / (1.0 - x)).max()))
            # a long step that would run psi away is rejected; only a damped one raises
            held = psi is None or abs(psi + alpha * dpsi - psi0) <= _PSI_RUNAWAY
            if alpha > 1.0 / damp and held:
                # the long step, kept when the Newton decrement does not grow there
                trial = _trial(evaluate, x, alpha * dx, psi, alpha * dpsi, psi0, s)
                if trial is not None:
                    stepn = _newton_step(trial[0], trial[2], t)
                    if max(stepn[2], stepn[3]) <= _KEEP * dec:
                        (x, psi, point), step = trial, stepn
                        continue
        trial = _trial(evaluate, x, dx / damp, psi, dpsi / damp, psi0, s)
        if trial is None:
            break  # x is the last good iterate
        (x, psi, point), step = trial, None
    gap = _fw_gap(point[1], x, s)
    converged = gap <= tol and _slope(point) <= SLOPE_TOL
    drift = s - float(x.sum())
    if drift != 0.0:
        if abs(drift) > TOL_FEAS:
            raise ArithmeticError(f"iterate left the simplex (drift {drift:.3g})")
        j = int(np.argmax(np.minimum(x, 1.0 - x)))
        if 0.0 <= x[j] + drift <= 1.0:
            x[j] += drift
    return x, point[0], max(gap, 0.0), calls, converged, psi


def _certify(out, gamma: float, s: int, eigvals, eigvecs):
    """The engine's out with f and the gap re-evaluated once at (x, gamma),
    in the eigenbasis of A = C o M = Q Diag(lam) Q^T.

    With d = sqrt(gamma lam^2 + 1), U = Q Diag(sqrt(gamma) lam / d) and
    V = Q Diag(1 / d), F(x) = Q Diag(d) G Diag(d) Q^T for the split form
    G = U^T X U + V^T (I - X) V = L L^T, none of whose entries exceeds 1
    in magnitude.  So f = 0.5 * (logdet G + sum log d^2 - s log gamma) and

        grad = 0.5 * (colsum((L^-1 U^T)^2) - colsum((L^-1 V^T)^2)),

    from one triangular solve.  The dense F of the engine rounds away its
    small eigenvalues once gamma lam_1^2 dwarfs 1; G does not, so this f
    and gap certify the bound there too.  Where G is not positive definite
    in floating point, out stands.
    """
    x, n = out[0], out[0].shape[0]
    d = np.sqrt(gamma * eigvals * eigvals + 1.0)
    V = eigvecs / d
    U = V * (math.sqrt(gamma) * eigvals)
    chol = _cholesky((U.T * x) @ U + (V.T * (1.0 - x)) @ V)
    if chol is None:
        return out
    z, _ = sla.lapack.dtrtrs(chol, np.concatenate((U.T, V.T), axis=1), lower=1)
    cols = (z * z).sum(axis=0)
    grad = 0.5 * (cols[:n] - cols[n:])
    f = 0.5 * (_logdet(chol) + 2.0 * float(np.log(d).sum()) - s * math.log(gamma))
    return (x, f, max(_fw_gap(grad, x, s), 0.0)) + out[3:]


def solve_linx(
    inst: Instance,
    s: int,
    mask: Mask | None = None,
    gamma: float = 1.0,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> BoundResult:
    """Maximize the relaxation objective over P(n, s).

    mask=None means the all-ones mask (no masking).  The engine's x_hat,
    iterations and converged are reported with the value and duality_gap
    of _certify at x_hat, whose eigenpairs are inst's for the all-ones mask
    and one eigh of C o M otherwise.  On hitting the iteration cap the last
    iterate is returned with converged=False; its duality_gap still
    upper-bounds how far the value can be below the true bound.  A
    diagonal C o M takes the closed form (see the module docstring):
    iterations is 0, max_iter does not apply, and duality_gap is the
    linearization gap at the closed-form maximizer.
    """
    if mask is None:
        mask = Mask.ones(inst.n)
    s = _check_s(s, inst.n)
    problem = _LinxProblem(inst, mask, gamma, s)
    if not _is_diagonal(problem.U):
        out = _maximize_capped_simplex(problem, opts)
        spectrum = (inst.eigvals, inst.eigvecs) if _is_ones(mask) else np.linalg.eigh(problem.U)
        return _result(_certify(out, problem.gamma, s, *spectrum), gamma, mask.label)
    a = problem.U.diagonal()
    x = solve_diagonal_linx(math.sqrt(problem.gamma) * a, s).x_hat
    coef = problem.gamma * a * a - 1.0

    def value(y):
        return 0.5 * (float(np.log(coef * y + 1.0).sum()) - problem.shift)

    gap = max(_fw_gap(0.5 * coef / (coef * x + 1.0), x, s), 0.0)
    tol = _gap_tol(opts, value(np.full(inst.n, s / inst.n)))
    return _result((x, value(x), gap, 0, gap <= tol, None), gamma, mask.label)


def certify_gamma_optimal(result: BoundResult) -> bool:
    """True when the converged maximizer is within TOL_BINARY of binary.

    Because the relaxation is exact at binary points, a binary maximizer
    at some gamma pins the scaled bound to a value no scaling can beat,
    so that gamma is globally optimal.  Non-converged results never
    certify.
    """
    if not result.converged:
        return False
    x = result.x_hat
    return bool(np.all(np.minimum(x, 1.0 - x) <= TOL_BINARY))
