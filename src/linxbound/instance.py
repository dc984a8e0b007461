"""Covariance-matrix ingestion, validation, and spectral precomputation.

Matrix file format: the first non-comment line holds the order n, followed
by n lines of n whitespace- or comma-separated reals.  Lines starting with
'#' are comments.  Matrices are symmetrized on load; asymmetry beyond a
small relative tolerance is rejected rather than silently averaged.

All types here are immutable after construction (arrays are marked
read-only), so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_SYM = 1e-8     # asymmetry tolerance, relative to max |entry|
TOL_PSD = 1e-10    # eigenvalue negativity band, relative to max(1, lambda_1)
TOL_RANK = 1e-9    # numerical-rank cutoff, relative to lambda_1
TOL_RECON = 1e-10  # eigendecomposition round-trip check, relative to max(1, lambda_1)


def _freeze(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric real matrix of order n >= 1."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def from_array(raw) -> "SymMatrix":
        """Validate and symmetrize a square array.

        Asymmetry up to TOL_SYM * max|entry| is averaged away; anything
        larger raises ValueError.
        """
        a = np.asarray(raw, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix order must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = float(np.max(np.abs(a)))
        asym = float(np.max(np.abs(a - a.T)))
        if asym > TOL_SYM * scale:
            raise ValueError(
                f"matrix is asymmetric: max |A - A^T| = {asym:.3g} exceeds "
                f"{TOL_SYM:g} * max|entry| = {TOL_SYM * scale:.3g}"
            )
        return SymMatrix(_freeze(0.5 * (a + a.T)))

    @staticmethod
    def identity(n: int) -> "SymMatrix":
        return SymMatrix(_freeze(np.eye(n)))

    @staticmethod
    def all_ones(n: int) -> "SymMatrix":
        return SymMatrix(_freeze(np.ones((n, n))))

    @staticmethod
    def from_diagonal(d) -> "SymMatrix":
        return SymMatrix(_freeze(np.diag(np.asarray(d, dtype=float))))


def load_matrix(text) -> SymMatrix:
    """Parse a matrix from a string or readable file object."""
    if hasattr(text, "read"):
        text = text.read()
    lines = [ln.strip() for ln in str(text).splitlines()]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        raise ValueError("empty matrix input")
    try:
        n = int(data[0])
    except ValueError:
        raise ValueError(f"first line must be the matrix order, got {data[0]!r}") from None
    if n < 1:
        raise ValueError(f"matrix order must be positive, got {n}")
    if len(data) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(data) - 1}")
    values = np.empty((n, n))
    for k in range(1, n + 1):
        parts = data[k].replace(",", " ").split()
        if len(parts) != n:
            raise ValueError(f"row {k}: expected {n} values, found {len(parts)}")
        try:
            values[k - 1] = parts
        except ValueError:
            raise ValueError(f"row {k}: could not parse {data[k]!r}") from None
    return SymMatrix.from_array(values)


@dataclass(frozen=True, eq=False)
class Mask:
    """Correlation matrix used for Hadamard masking: PSD with unit diagonal."""

    matrix: SymMatrix
    label: str = "custom"

    @property
    def n(self) -> int:
        return self.matrix.n

    @staticmethod
    def ones(n: int) -> "Mask":
        """The all-ones mask, i.e. no masking at all."""
        return Mask(SymMatrix.all_ones(n), label="J")

    @staticmethod
    def identity(n: int) -> "Mask":
        """The identity mask; it keeps only the diagonal of the target."""
        return Mask(SymMatrix.identity(n), label="I")

    @staticmethod
    def from_matrix(sym: SymMatrix, label: str = "custom") -> "Mask":
        m = np.array(sym.entries)
        dev = float(np.max(np.abs(np.diagonal(m) - 1.0)))
        if dev > 1e-8:
            raise ValueError(f"mask diagonal must be all ones (max deviation {dev:.3g})")
        np.fill_diagonal(m, 1.0)
        w = np.linalg.eigvalsh(m)
        lo = float(w[0])
        if lo < -TOL_PSD * max(1.0, float(w[-1])):
            raise ValueError(f"mask is not positive semidefinite (min eigenvalue {lo:.3g})")
        return Mask(SymMatrix(_freeze(m)), label=label)


@dataclass(frozen=True, eq=False)
class Instance:
    """Validated input matrix together with its spectral data.

    eigvals are sorted non-increasing and clamped to be nonnegative;
    eigvecs holds the matching orthonormal eigenvectors as columns, so
    C = Q diag(eigvals) Q^T up to TOL_RECON.  rank counts eigenvalues
    above the relative cutoff TOL_RANK, which downstream regime logic
    relies on being deterministic.
    """

    C: SymMatrix
    eigvals: np.ndarray
    eigvecs: np.ndarray
    rank: int
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.C.n


def _check_s(s, n: int) -> int:
    """s as an int; raises ValueError unless 0 < s < n."""
    s = int(s)
    if not 0 < s < n:
        raise ValueError(f"need 0 < s < n, got s={s}, n={n}")
    return s


def validate(C: SymMatrix, s: int) -> Instance:
    """Check that (C, s) is a usable input and precompute its spectrum.

    Requires 0 < s < n, positive diagonal, and C positive semidefinite
    within TOL_PSD.  s larger than rank(C) is accepted; the scaling module
    classifies that case as degenerate rather than rejecting it here.
    """
    _check_s(s, C.n)
    return _spectral(C)


def _masked(inst: Instance, mask: Mask) -> Instance:
    """The instance of C o M, the matrix that the bound sees.

    inst itself for the all-ones mask; otherwise C o M with validate's
    checks of its diagonal, PSD-ness and eigendecomposition, and its own
    spectrum.  Raises ValueError unless mask has inst's order.
    """
    if mask.n != inst.n:
        raise ValueError(f"mask order {mask.n} does not match instance order {inst.n}")
    if not np.any(mask.matrix.entries != 1.0):
        return inst
    return _spectral(SymMatrix(_freeze(inst.C.entries * mask.matrix.entries)))


def _spectral(C: SymMatrix) -> Instance:
    """validate's body, which needs no s."""
    d = np.diagonal(C.entries)
    if np.any(d <= 0.0):
        raise ValueError("all diagonal entries must be positive")
    w, Q = np.linalg.eigh(C.entries)
    w = w[::-1].copy()
    Q = Q[:, ::-1].copy()
    lam1 = float(w[0])
    tol_psd = TOL_PSD * max(1.0, lam1)
    if float(w[-1]) < -tol_psd:
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {float(w[-1]):.3g})"
        )
    w[w < 0.0] = 0.0
    rank = int(np.count_nonzero(w > TOL_RANK * lam1)) if lam1 > 0.0 else 0
    recon = float(np.max(np.abs((Q * w) @ Q.T - C.entries)))
    if recon > TOL_RECON * max(1.0, lam1):
        raise ValueError(f"eigendecomposition failed to reproduce the matrix ({recon:.3g})")
    return Instance(C=C, eigvals=_freeze(w), eigvecs=_freeze(Q), rank=rank, d=_freeze(d))
