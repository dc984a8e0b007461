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

    psi_t(x) = -2 t f(x) - sum log x_i - sum log(1 - x_i),   t >= 8,

on the hyperplane e.x = s, from t = 8.  A Newton step dx whose decrement
lam is at least 1/4 first tries the long step: the full step, or 0.7 of
the way to the box boundary when that is shorter, kept when the Newton
decrement there is no larger than lam.  Otherwise, and for every step with a smaller
lam, it takes the damped step x + dx / (1 + lam): self-concordance
guarantees that it stays inside the box and decreases psi_t.  Once an
iterate is centred (lam < 1/4) the weight t grows by a fixed factor, but
never past the t at which the gap there is below the tolerance, or below
the rounding floor 8 n eps max(1, |f0|) of f, f0 its value at the uniform
start.  A solve whose target lies below that floor is never converged.
Before t grows, every centred iterate after the first predicts the face of
the optimum from its ratio to the previous one (a Tapia indicator: a
coordinate headed for a bound shrinks its distance to it about as fast as
t grows, an interior one keeps its value), fixes those coordinates at
their bounds, and takes equality-constrained Newton steps on f alone
over the rest, or over the whole polytope when nothing is fixed, until
Newton's decrement says the face's optimum is reached.  A point of that
face which meets the tolerance ends the solve, so coordinates that
belong at 0 or 1 come out exactly there, and an interior optimum is
reached without driving t to 1/tol.  Convergence is certified
independently of the method by the standard linearization gap max_v
grad(x) . (v - x) over the vertices v of P(n, s), which upper-bounds the
suboptimality of x.

Every evaluation, the engine's and that of the public evaluators
linx_objective and linx_gradient, is one _LinxProblem: it factors Q^T F Q
in the eigenbasis Q of C o M, where a large gamma does not round away the
small eigenvalues, and gamma = inf in it is the limit program of
scaling.py.  A problem is immutable: what gamma does not change is built
once, and an evaluation at psi scales it exactly as a problem built at
gamma = e^psi does.  A result's value, gap and x_hat are the engine's last
evaluation.

C o M and its spectrum come from one place, instance._masked, and every
bound, at any gamma in (0, inf], from one solve, _solve, the only caller of
the engine: solve_linx calls it at the given gamma, limit_linx_at_infinity
at gamma = inf, and optimize_gamma at gamma = inf or, in its interior
regime, with psi carried.  When C o M is diagonal and gamma finite the
objective separates, and _solve returns the closed-form maximizer of
diagonal.solve_diagonal_linx instead, and its value: with a = diag(C o M),
gamma a_i^2 = (sqrt(gamma) a_i)^2, so the program is the unscaled one of
Diag(sqrt(gamma) a), shifted by -s log(gamma) / 2.

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
from .instance import Instance, Mask, _check_s, _freeze, _masked

NEG_INF = float("-inf")

_CENTRED = 0.25      # Newton decrement below which an iterate counts as centred
_BOX_FRACTION = 0.7  # share of the longest step inside the box that a long step takes
_T_GROWTH = 8.0      # barrier weight factor per centred iterate
_RATIO = 0.4         # drop in distance to a bound between centred iterates that fixes x_i
_TIE = 1e-9          # relative slack within which coordinates meet a bound in one ratio test
_PSI_RUNAWAY = 60.0  # distance from its start at which a carried psi has run away
_EPS = float(np.finfo(float).eps)  # unit of the rounding floor 8 n _EPS max(1, |f0|)

SLOPE_TOL = 1e-7     # target for |f_psi| when psi is carried
TOL_FEAS = 1e-10     # largest rounding drift of e.x away from s that is accepted
TOL_BINARY = 1e-6    # distance to {0, 1} within which a coordinate counts as binary


@dataclass(frozen=True)
class SolverOptions:
    """The two knobs of the barrier solver, and the only place their
    defaults live (the --tol-fw and --max-iter of the CLI's solving
    commands read them here).

    tol_fw is the absolute target for the linearization (Frank-Wolfe)
    duality gap; None means 1e-8 * max(1, |f(x0)|), fixed at the uniform
    start x0 of an engine solve, and at the maximizer x0 itself for the
    closed form of a diagonal C o M.  An engine solve whose tol_fw lies
    below the rounding floor 8 n eps max(1, |f(x0)|) of f is never
    reported converged: a gap that small is rounding, not a certificate.  The default lies above the
    floor for every n < 5e6.  max_iter caps the derivatives calls
    (evaluations of f and its derivatives) of one solve, and a result's
    iterations is their count: every trial step, a rejected long step too,
    every face step and a face finish's projected point make one call.
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
    """Gap target of a solve whose objective is f0 at the uniform start,
    or at the maximizer for the closed form."""
    return opts.tol_fw if opts.tol_fw is not None else 1e-8 * max(1.0, abs(f0))


def _check_gamma(gamma) -> float:
    """gamma as a float; raises ValueError unless it is finite and positive."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be a finite positive number, got {gamma}")
    return float(gamma)


class _LinxProblem:
    """Evaluation machinery for the linx program of one masked instance,
    A = C o M = eff.C = Q Diag(lam) Q^T, at one gamma in (0, inf].

    With u = sqrt(gamma) lam and v = e, F(x) = gamma A X A + I - X is
    Q G(x) Q^T for

        G(x) = (u u^T - v v^T) o (Q^T X Q) + Diag(v^2),    X = Diag(x),

    so f(x) = 0.5 * (logdet G(x) - shift) with shift = s log(gamma).  G
    keeps the small eigenvalues that a dense F rounds away once gamma
    lam_1^2 dwarfs 1, because the eigenbasis separates them; a diagonal
    scaling of G would not help, since it leaves Cholesky's accuracy as it
    is.  One Cholesky factor G = L L^T per iterate serves the objective,
    the gradient and the Hessian: with
    [Z_u | Z_v] = L^-1 [Diag(u) Q^T | Diag(v) Q^T], K = Z_u^T Z_u,
    P = Z_u^T Z_v and N = Z_v^T Z_v,

        grad = 0.5 * (diag(K) - diag(N)),
        hess = -0.5 * (K o K - (P o P + P^T o P^T) + N o N).

    In terms of W = F^-1 these are K = gamma A W A, P = sqrt(gamma) A W and
    N = W, so they are the derivatives of the dense logdet F.

    gamma = inf is the limit program of s = rank(A): u is lam on the s
    nonzero eigenvalues and 0 elsewhere, v = e - 1_s and shift = 0.  Then
    G(x) is block-diag(Lam_s P_s(x) Lam_s, I - P_rest(x)) for P(x) = Q^T X
    Q, and f(x) = 0.5 * logdet G(x).

    The derivatives in psi = log(gamma) keep the form they take in F,
    because N = W and P o P = gamma (A W) o (A W): with dF/dpsi =
    F - Diag(e - x),

        f_psi    = 0.5 * (n - s - (e - x) . diag(N)),
        f_psipsi = 0.5 * ((e - x) . diag(N) - (e - x) . (N o N) (e - x)),
        f_xpsi   = 0.5 * (diag(N) + (P o P) (e - x) - (N o N) (e - x)).

    What gamma does not change is built once, in __init__: the rows
    (u0, v) = (lam, e), or (lam on the top s, e - 1_s) at gamma = inf, and
    [Diag(u0) Q^T | Diag(v) Q^T].  _scaled(gamma) scales them, and the
    arrays at the problem's own gamma are kept in _fixed; a psi evaluation
    scales them at e^psi, so it is the same computation as a problem built
    at gamma = e^psi.  A problem is never changed after __init__.  A
    diagonal A takes the same formulas; at a finite gamma _solve sends it
    to the closed form instead.  It knows nothing of masks: eff comes
    masked, and gamma checked, from its caller.
    """

    def __init__(self, eff: Instance, gamma: float, s: int):
        n = eff.n
        self.n, self.s, self.Q = n, s, eff.eigvecs
        top = np.arange(n) < s
        u0, v = (top * eff.eigvals, 1.0 - top) if gamma == math.inf else (eff.eigvals, np.ones(n))
        self._rows = np.array((u0, v))
        # [Q Diag(u0); Q Diag(v)] transposed, in the Fortran order LAPACK takes
        self._rhs = (self.Q * self._rows[:, None, :]).reshape(2 * n, n).T
        self._fixed = self._scaled(gamma)

    def _scaled(self, gamma):
        """(u u^T - v v^T, v^2, [Diag(u) Q^T | Diag(v) Q^T], shift) at gamma,
        u = sqrt(gamma) u0, or u = u0 and shift = 0 at gamma = inf."""
        factor, shift = (1.0, 0.0) if gamma == math.inf else (gamma, self.s * math.log(gamma))
        rows = self._rows
        rhs = self._rhs.copy(order="F")
        rhs[:, : self.n] *= math.sqrt(factor)
        return (rows.T * (factor, -1.0)) @ rows, rows[1] * rows[1], rhs, shift

    def derivatives(self, x, psi=None):
        """(value, gradient, Hessian) of f at x; (-inf, None, None) where
        G(x) is not positive definite.

        Given psi, f is taken at gamma = e^psi instead of the problem's
        own gamma, and a fourth entry (f_psi, f_psipsi, f_xpsi) follows.
        """
        n = self.n
        uv, v2, rhs, shift = self._fixed if psi is None else self._scaled(math.exp(psi))
        G = uv * ((self.Q.T * x) @ self.Q)
        G.flat[:: n + 1] += v2
        try:
            chol = sla.cholesky(G, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            return NEG_INF, None, None
        linv, _ = sla.lapack.dtrtri(chol, lower=1)
        z = sla.blas.dtrmm(1.0, linv, rhs, lower=1)
        zu, zv = z[:, :n], z[:, n:]
        K, P, N = zu.T @ zu, zu.T @ zv, zv.T @ zv
        NN, PP, ndiag = N * N, P * P, N.diagonal()
        grad = 0.5 * (K.diagonal() - ndiag)
        hess = -0.5 * (K * K - (PP + PP.T) + NN)
        out = (0.5 * (2.0 * float(np.log(chol.diagonal()).sum()) - shift), grad, hess)
        if psi is None:
            return out
        y = 1.0 - x
        dw, wwd = float(y @ ndiag), NN @ y
        f_psi = 0.5 * (n - self.s - dw)
        f_pp = 0.5 * (dw - float(y @ wwd))
        f_xp = 0.5 * (ndiag + PP @ y - wwd)
        return out + ((f_psi, f_pp, f_xp),)


def _public_point(inst: Instance, mask: Mask, gamma: float, x):
    """_LinxProblem.derivatives for the public evaluators, with s = sum(x)
    rounded to the nearest integer: s is a fixed property of the feasible
    set, so it must not drift when x is perturbed off the simplex
    (finite-difference probes rely on this)."""
    x = np.asarray(x, dtype=float)
    problem = _LinxProblem(_masked(inst, mask), _check_gamma(gamma), round(float(x.sum())))
    return problem.derivatives(x)


def linx_objective(inst: Instance, mask: Mask, gamma: float, x) -> float:
    """Objective value at x; -inf when F(x) is not positive definite.

    It is the solver's own evaluation, so at a result's x_hat and gamma it
    returns that result's value: bit for bit for an engine result, to
    rounding for the closed form of a diagonal C o M.
    """
    return _public_point(inst, mask, gamma, x)[0]


def linx_gradient(inst: Instance, mask: Mask, gamma: float, x) -> np.ndarray:
    """Analytic gradient: 0.5 * (gamma [A F^-1 A]_ii - [F^-1]_ii), A = C o M,
    from the evaluation of linx_objective.

    Raises when F(x) is not positive definite.
    """
    grad = _public_point(inst, mask, gamma, x)[1]
    if grad is None:
        raise np.linalg.LinAlgError("F(x) is not positive definite")
    return grad


def _kkt_step(grad, H, border=None):
    """Minimizer of grad.dx + dx.H.dx / 2 on e.dx = 0, and its decrement.

    Returns (dx, dpsi, dec), dec = max(lam, mu) with lam = sqrt(dx.H.dx)
    the decrement of x.  Without border, dpsi = mu = 0.  With
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
        return dx, 0.0, math.sqrt(max(-float(grad @ dx), 0.0))
    g_psi, h_pp, h_xp = border
    dc = (c[0].sum() / b.sum()) * b - c[0]  # the x response to a unit dpsi
    schur = h_pp + float(h_xp @ dc)        # <= 0; 0 where the psi-map is flat
    dpsi = -(g_psi + float(h_xp @ dx)) / schur if schur != 0.0 else 0.0
    dx = dx + dpsi * dc
    lam = math.sqrt(max(-float((grad + dpsi * h_xp) @ dx), 0.0))
    return dx, dpsi, max(lam, abs(dpsi) * max(1.0, math.sqrt(max(-h_pp, 0.0))))


def _newton_step(x, point, t: float):
    """Newton step of psi_t at an evaluated point, restricted to e.dx = 0:
    (dx, dpsi, dec) as _kkt_step gives it, dpsi = 0 unless psi is carried."""
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


def _face_newton(evaluate, x, prev, point, psi, s: int, tol: float, floor: float):
    """Newton on f over the face of P(n, s) that x approaches.

    The face comes from Tapia indicators, the ratios of x to the previous
    centred iterate prev: along the central path a coordinate headed for
    0 shrinks about _T_GROWTH-fold per growth of t, while an interior one
    keeps its value.  So x_i is fixed at 0 when x_i < 1/2 and x_i <
    _RATIO * prev_i, and at 1 likewise in 1 - x.  The rest are re-projected
    onto e.y = s and take equality-constrained Newton steps of -2 f, which
    is self-concordant, jointly with psi when it is carried.  Newton
    converges fast only where the decrement dec = max(lam, mu) is below
    _CENTRED, so the try ends at the first step whose decrement is not;
    outside that region the barrier does better.  Inside it, a full step
    taken from dec^2 <= max(tol, floor) lands within about dec^2 of the
    face's optimum, so a point reached so that misses the targets shows
    the face is wrong, and the try ends there too.  floor is the engine's
    rounding floor of f, below which rounding can hold dec up.  With
    nothing fixed the face is the whole polytope, and y starts at x, whose
    evaluated point is reused.  Each step is the full one, or, by a ratio
    test, the part of it that ends where the first free coordinate meets
    its bound, and every coordinate that meets one there is fixed.

    The projected point (none when nothing is fixed) and each step cost
    one evaluate(y, psi) call, and evaluate's budget is the only bound on
    their number.  Returns (y, psi, point) for the first point that meets
    the targets, and None when the face has no interior, F(y) is not
    positive definite or evaluate gives up, the free block is singular, a
    step is not centred, or a point reached from dec^2 <= max(tol, floor)
    misses the targets.
    """
    low = (x < 0.5) & (x < _RATIO * prev)
    high = (x > 0.5) & (1.0 - x < _RATIO * (1.0 - prev))
    free = ~(low | high)
    stale = not free.all()  # whether y still needs evaluating
    y = np.where(high, 1.0, np.where(low, 0.0, x))
    dec = math.inf  # no step taken yet
    while True:
        k, m = int(free.sum()), s - int(y[~free].sum())
        if not (0 < m < k or m == k == 0):
            return None
        if stale:
            if k:
                y = _reproject(y, s)
                if not (y[free].min() > 0.0 and y[free].max() < 1.0):
                    return None  # also catches a step that is not finite
            point = evaluate(y, psi)
            if not np.isfinite(point[0]):
                return None
            if _met(point, y, s, tol):
                return y, psi, point
            if k == 0 or dec * dec <= max(tol, floor):
                return None  # a vertex, or y is within about dec^2 of the face's optimum
        _, g, hess, *mixed = point
        border = None
        if mixed:
            f_psi, f_pp, f_xp = mixed[0]
            border = (-2.0 * f_psi, -2.0 * f_pp, -2.0 * f_xp[free])
        try:
            dy, dpsi, dec = _kkt_step(-2.0 * g[free], -2.0 * hess[free][:, free], border)
        except np.linalg.LinAlgError:
            return None
        if dec >= _CENTRED:
            return None
        # ratio test: the full step, or the step to where the first free
        # coordinate meets its bound; every coordinate that meets one is fixed
        yf = y[free]
        with np.errstate(divide="ignore"):
            reach = np.where(dy < 0.0, yf, 1.0 - yf) / np.abs(dy)
        alpha = min(1.0, float(reach.min()))
        hit = reach <= alpha * (1.0 + _TIE)
        dy *= alpha
        yf += dy
        yf[hit] = dy[hit] > 0.0
        y[free] = yf
        free[free] = ~hit
        if psi is not None:
            psi += alpha * dpsi
        stale = True


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
    """Barrier-method core behind _solve, its only caller.

    problem.derivatives(x) returns the value, gradient and Hessian of the
    concave objective over P(problem.n, problem.s): a _LinxProblem, of the
    linx program at a finite gamma or of the limit program at gamma = inf.
    Every call goes through one counting closure, evaluate: its count is
    the result's iterations, and once opts.max_iter calls are spent it
    makes no more and returns the undefined point (-inf, None, None),
    which ends the solve as any undefined point does.

    A Newton step dx whose decrement lam is at least _CENTRED first tries
    the long step alpha = min(1, _BOX_FRACTION * alpha_box), with
    alpha_box the longest step along dx inside the open box (infinite, so
    alpha = 1, when dx = 0 and only psi moves), when alpha exceeds
    1/(1 + lam).  It evaluates the trial point and its Newton step
    at the same t, and keeps the trial when that step's decrement is at
    most lam, i.e. does not grow; the kept trial's evaluation and step are
    the next iteration's.  Every other step, and the one after a
    rejected trial, is the damped step dx / (1 + lam), which
    self-concordance keeps inside the box and descending.  So each trial,
    kept or rejected, costs one derivatives call.  Each centred iterate
    but the first tries _face_newton on the face that its ratio to the
    previous centred iterate predicts, and returns that face's point when
    it meets the tolerance; otherwise t grows and the barrier goes on from
    x.  Stops when the linearization gap meets the tolerance, when the
    damped step has no point (max_iter derivatives calls are spent, f is
    undefined there, or rounding pushes it out of the open box), or when
    a centred iterate misses the tolerance and growing t would take it
    past the cap t_cap = 8 n / max(tol, floor), so t never exceeds it.  t
    starts at _T_GROWTH: a centring at t = 1 would only give the first face
    try its reference point.  floor = 8 n eps max(1, |f0|), f0 the value at
    the uniform start, is the rounding floor of f: the gap at a centred
    iterate is below n / (2 t) up to rounding, and once t |f| eps is about
    1 the rounding of psi_t swamps the Newton decrement, so no iterate
    would centre again and the solve would run to max_iter.  The cap holds
    with psi carried too.  A gap below a tol under the floor is rounding,
    so such a solve is never converged.

    Given a starting psi, problem.derivatives(x, psi) must also return
    the psi-derivatives (the limit program is never given a psi), and the
    engine finds the saddle point, max over x and min over psi, of
    f(x, psi), which is convex in psi.  Each step, the face finish's too,
    is then the joint Newton step (dx, dpsi), and its decrement
    max(lam, mu), the dec of _kkt_step with mu that of the psi block, takes
    lam's place above: in the damping, in the long step's rule (which moves psi
    by alpha dpsi and is rejected when that puts psi farther than
    _PSI_RUNAWAY from its start) and in the centring test, so t grows when
    both decrements are below _CENTRED.  The solve converges only when
    also |f_psi| <= SLOPE_TOL.  A damped step that
    puts psi farther than _PSI_RUNAWAY from its start raises RuntimeError.

    Returns (x, f, gap, iterations, converged, psi) of the last evaluated
    point, psi None when it is not carried; an x whose sum has drifted
    from s by more than TOL_FEAS raises ArithmeticError.
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
    floor = 8.0 * n * _EPS * max(1.0, abs(point[0]))
    t_cap = 8.0 * n / max(tol, floor)
    t = _T_GROWTH
    step = None  # a kept long step's Newton step, computed at the same t
    while not _met(point, x, s, tol):
        dx, dpsi, dec = step or _newton_step(x, point, t)
        if dec < _CENTRED:
            if prev is not None:
                face = _face_newton(evaluate, x, prev, point, psi, s, tol, floor)
                if face is not None:
                    x, psi, point = face
                    break
            if t * _T_GROWTH > t_cap:
                break  # the gap is below n / (2 t) < tol, or rounding would swamp psi_t
            prev = x
            t *= _T_GROWTH
            dx, dpsi, dec = _newton_step(x, point, t)
        damp = 1.0 + dec
        if dec >= _CENTRED:
            # reach is 0 when only psi moves, and then the whole step is tried
            reach = float(np.maximum(-dx / x, dx / (1.0 - x)).max())
            alpha = _BOX_FRACTION / max(_BOX_FRACTION, reach)
            # a long step that would run psi away is rejected; only a damped one raises
            held = psi is None or abs(psi + alpha * dpsi - psi0) <= _PSI_RUNAWAY
            if alpha > 1.0 / damp and held:
                # the long step, kept when the Newton decrement does not grow there
                trial = _trial(evaluate, x, alpha * dx, psi, alpha * dpsi, psi0, s)
                if trial is not None:
                    stepn = _newton_step(trial[0], trial[2], t)
                    if stepn[2] <= dec:
                        (x, psi, point), step = trial, stepn
                        continue
        trial = _trial(evaluate, x, dx / damp, psi, dpsi / damp, psi0, s)
        if trial is None:
            break  # x is the last good iterate
        (x, psi, point), step = trial, None
    drift = s - float(x.sum())
    if abs(drift) > TOL_FEAS:
        raise ArithmeticError(f"iterate left the simplex (drift {drift:.3g})")
    gap = _fw_gap(point[1], x, s)
    converged = tol >= floor and gap <= tol and _slope(point) <= SLOPE_TOL
    return x, point[0], max(gap, 0.0), calls, converged, psi


def _solve(eff: Instance, s: int, gamma: float, label: str, opts: SolverOptions,
           search: bool = False) -> BoundResult:
    """The bound of A = C o M = eff.C at gamma in (0, inf], labelled label:
    the one solve behind solve_linx, limit_linx_at_infinity and
    optimize_gamma, and the one place a BoundResult is built.

    gamma comes checked from the caller.  A diagonal A at a finite gamma
    takes the closed form (see the module docstring): value is
    solve_diagonal_linx's value less s log(gamma) / 2, iterations is 0,
    max_iter does not apply, duality_gap is the linearization gap at the
    closed-form maximizer, and the default gap target comes from value
    itself, since there is no uniform start.  Otherwise the barrier engine
    runs, gamma = inf being the limit program of s = rank(A), with psi =
    log(gamma) carried next to x as its start when search is set, and the
    result is at gamma = e^psi of its last point.  Its value, x_hat and
    duality_gap all come from the engine's last evaluation, the one that
    linx_objective and linx_gradient repeat at (x_hat, gamma) bit for bit;
    for the closed form they repeat them to rounding.  On hitting the
    iteration cap, or the cap on t, or with a target below the rounding
    floor, the last iterate is returned with converged=False; its
    duality_gap still upper-bounds how far the value can be below the true
    bound.
    """
    if gamma < math.inf and not np.any(eff.C.entries - np.diag(eff.d)):
        sol = solve_diagonal_linx(math.sqrt(gamma) * eff.d, s)
        x, f, iters = sol.x_hat, sol.value - 0.5 * s * math.log(gamma), 0
        coef = gamma * eff.d * eff.d - 1.0
        gap = max(_fw_gap(0.5 * coef / (coef * x + 1.0), x, s), 0.0)
        converged = gap <= _gap_tol(opts, f)
    else:
        psi = math.log(gamma) if search else None
        x, f, gap, iters, converged, psi = _maximize_capped_simplex(
            _LinxProblem(eff, gamma, s), opts, psi)
        gamma = gamma if psi is None else math.exp(psi)
    return BoundResult(value=f, x_hat=_freeze(x), duality_gap=gap, gamma=gamma,
                       mask_id=label, iterations=iters, converged=converged)


def solve_linx(
    inst: Instance,
    s: int,
    mask: Mask | None = None,
    gamma: float = 1.0,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> BoundResult:
    """Maximize the relaxation objective over P(n, s) at gamma.

    mask=None means the all-ones mask (no masking).  This is _solve of
    instance._masked(inst, mask): the barrier engine's result, or the
    closed form of a diagonal C o M.  Its value and duality_gap are those
    that linx_objective and linx_gradient give at x_hat: bit for bit for an
    engine result, to rounding for the closed form.
    """
    s = _check_s(s, inst.n)
    mask = Mask.ones(inst.n) if mask is None else mask
    return _solve(_masked(inst, mask), s, _check_gamma(gamma), mask.label, opts)


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
