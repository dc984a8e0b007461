"""Shared random-instance generators, solver shortcuts and test oracles for
the test suite."""

import math

import numpy as np

from linxbound import Mask, linx
from linxbound.instance import _freeze, _masked
from linxbound.linx import (
    DEFAULT_OPTIONS,
    TOL_FEAS,
    BoundResult,
    _LinxProblem,
    _maximize_capped_simplex,
)


def gram_matrix(rng, n, r=None):
    """Random PSD matrix as a Gram product; full rank when r >= n."""
    r = n if r is None else r
    basis = rng.normal(size=(n, r))
    return basis @ basis.T / r


def correlation_matrix(rng, n):
    """Random PSD matrix with unit diagonal."""
    m = gram_matrix(rng, n)
    dinv = 1.0 / np.sqrt(np.diagonal(m))
    return m * dinv[:, None] * dinv[None, :]


def diagonal_entries(rng, n, lo=0.2, hi=3.0, margin=0.05):
    """Random positive diagonals, kept away from 1.

    Entries within `margin` of 1 create flat coordinates where the
    maximizer is not unique, which makes x-hat comparisons between the
    closed form and the iterative solver ill-posed.
    """
    out = np.empty(n)
    for i in range(n):
        while True:
            v = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            if abs(v - 1.0) >= margin:
                out[i] = v
                break
    return out


def ill_conditioned(seed):
    """(C, s) of the ill-conditioned family: n in [4, 32] and s in [1, n)
    drawn from default_rng(seed), then C = Q Diag(logspace(0, -8, n)) Q^T
    with Q orthogonal from the QR of a normal draw.  Its optimal scalings
    reach 1e11 to 1e15, where a dense F = gamma A X A + I - X rounds away
    the small eigenvalues."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 33))
    s = int(rng.integers(1, n))
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return (q * np.logspace(0.0, -8.0, n)) @ q.T, s


def random_pd_2x2(rng):
    b = rng.normal(size=(2, 2))
    c = b @ b.T + 0.05 * np.eye(2)
    return float(c[0, 0]), float(c[1, 1]), float(c[0, 1])


def hessian_error(problem, x, h=1e-6):
    """Relative error of problem.derivatives' Hessian at x against central
    differences of its own gradient, scaled as in acceptance criterion 03."""
    _, _, hess = problem.derivatives(x)
    fd = np.empty_like(hess)
    for i in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[:, i] = (problem.derivatives(xp)[1] - problem.derivatives(xm)[1]) / (2.0 * h)
    return float(np.max(np.abs(hess - fd)) / max(1.0, np.max(np.abs(fd))))


def interior_point(rng, n, s):
    """Uniform point plus a small perturbation, strictly inside the box."""
    z = rng.uniform(-1.0, 1.0, size=n)
    z -= z.mean()
    return np.clip(s / n + 0.2 * min(s / n, 1 - s / n) * z, 0.01, 0.99)


def count_derivative_calls(monkeypatch):
    """Counts every _LinxProblem.derivatives call from now on, in a
    one-element list that the caller may reset."""
    calls = [0]
    derivatives = _LinxProblem.derivatives

    def counted(self, *args):
        calls[0] += 1
        return derivatives(self, *args)

    monkeypatch.setattr(_LinxProblem, "derivatives", counted)
    return calls


def linx_problem(inst, mask, gamma, s):
    """The engine's evaluator of the linx program of C o M at gamma."""
    return _LinxProblem(_masked(inst, mask), gamma, s)


def dense_point(inst, mask, gamma, x):
    """(f, grad) at x from the dense F = gamma A X A + I - X, A = C o M: a
    reference that numpy computes without the eigenbasis, accurate where
    gamma lam^2 is moderate."""
    A = inst.C.entries * mask.matrix.entries
    F = gamma * (A * x) @ A + np.diag(1.0 - x)
    W = np.linalg.inv(F)
    f = 0.5 * (np.linalg.slogdet(F)[1] - round(float(x.sum())) * math.log(gamma))
    return f, 0.5 * (gamma * np.diagonal(A @ W @ A) - np.diagonal(W))


def engine_solve(inst, s, mask=None, gamma=1.0, opts=DEFAULT_OPTIONS):
    """solve_linx by the barrier engine alone, also where C o M is diagonal.

    solve_linx answers a diagonal C o M by its closed form; this keeps the
    engine's face finish and iteration cap tested on such separable inputs.
    """
    mask = Mask.ones(inst.n) if mask is None else mask
    x, f, gap, iters, converged, _ = _maximize_capped_simplex(
        linx_problem(inst, mask, gamma, s), opts)
    return BoundResult(value=f, x_hat=_freeze(x), duality_gap=gap, gamma=gamma,
                       mask_id=mask.label, iterations=iters, converged=converged)


def reject_long_steps(monkeypatch):
    """Rejects every long trial of the engine from now on: each still costs
    its evaluation, as a trial whose Newton decrement grows does, and the
    damped step follows it.

    A damped trial is told from a long one by its step, which is the last
    Newton step divided by 1 + its decrement max(lam, mu)."""
    newton_step, trial = linx._newton_step, linx._trial
    last = [None]

    def recorded(*args):
        last[0] = newton_step(*args)
        return last[0]

    def rejecting(evaluate, x, dx, *rest):
        out = trial(evaluate, x, dx, *rest)
        dx_last, _, dec = last[0]
        return out if np.array_equal(dx, dx_last / (1.0 + dec)) else None

    monkeypatch.setattr(linx, "_newton_step", recorded)
    monkeypatch.setattr(linx, "_trial", rejecting)


def is_feasible(x, s):
    """Membership test for P(n, s) up to TOL_FEAS."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -TOL_FEAS) or np.any(x > 1.0 + TOL_FEAS):
        return False
    return abs(float(x.sum()) - s) <= TOL_FEAS


def eigenvalue_lower_bound(inst, s):
    """Value of the relaxation at the uniform point, via the spectrum:

        0.5 * sum_i log( (s/n) lambda_i^2 + 1 - s/n ).

    Always a valid lower bound on the (unscaled, unmasked) relaxation.
    """
    p = s / inst.n
    w = inst.eigvals
    return 0.5 * float(np.sum(np.log(p * w * w + 1.0 - p)))
