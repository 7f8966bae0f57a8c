"""SPD operators and metric linear algebra.

Everything downstream measures vectors in the inner product induced by a
symmetric positive definite (SPD) operator A: ``(x, y)_A = (A x, y)``.
This module wraps the two storage layouts we actually need (dense
symmetric and symmetric tridiagonal), factors them once, and exposes
norms, solves with an explicit residual guarantee, and extreme
eigenvalues.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

__all__ = [
    "DimensionMismatchError",
    "NotSpdError",
    "SpdOperator",
    "dirichlet_laplacian",
    "inner_product",
    "a_inner_product",
    "a_norm",
    "dual_norm",
    "spd_solve",
    "extreme_eigenvalues",
    "pencil_eigenvalue",
]

# Pivots of the Cholesky factor below this fraction of the largest
# diagonal entry are treated as loss of positive definiteness.
PIVOT_RTOL = 1e-14

# Largest dimension for which extreme eigenvalues of a dense matrix are
# computed by full symmetric eigendecomposition.
DENSE_EIG_LIMIT = 4096

# Relative residual guaranteed by spd_solve / SpdOperator.solve.
SOLVE_RTOL = 1e-12
_MAX_REFINE = 6


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


class NotSpdError(ValueError):
    """A matrix required to be symmetric positive definite is not."""


def as_vector(x, dim=None):
    """Coerce ``x`` to a finite 1-D float64 array, validating length."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected length {dim}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def _check_symmetric(m, rtol=1e-12):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale == 0.0:
        return
    if np.max(np.abs(m - m.T)) > rtol * scale:
        raise NotSpdError("matrix is not symmetric")


class SpdOperator:
    """A symmetric positive definite matrix with a cached Cholesky factor.

    Two storage layouts are supported: a full dense symmetric matrix, or
    a symmetric tridiagonal matrix held as (diagonal, off-diagonal)
    bands.  The factorization happens eagerly in the constructor so that
    a non-SPD input fails fast, with a pivot check at relative threshold
    ``PIVOT_RTOL`` against the largest diagonal entry.

    Instances are treated as immutable; do not modify the underlying
    arrays after construction.
    """

    def __init__(self, matrix=None, *, _bands=None):
        if (matrix is None) == (_bands is None):
            raise ValueError("pass exactly one of a dense matrix or bands")
        if matrix is not None:
            m = np.array(matrix, dtype=np.float64)
            _check_symmetric(m)
            if not np.all(np.isfinite(m)):
                raise ValueError("matrix contains non-finite entries")
            # Work on the exactly symmetrized copy so (Ax, y) == (x, Ay)
            # holds to the last bit.
            m = 0.5 * (m + m.T)
            self._dense = m
            self._diag = None
            self._off = None
            self._factor = self._cholesky_dense(m)
        else:
            diag, off = _bands
            diag = as_vector(diag)
            off = as_vector(off)
            if off.size != diag.size - 1:
                raise DimensionMismatchError(
                    "off-diagonal band must be one shorter than the diagonal"
                )
            self._dense = None
            self._diag = diag
            self._off = off
            self._factor = self._cholesky_banded(diag, off)

    # -- construction -------------------------------------------------

    @classmethod
    def from_dense(cls, matrix):
        """Wrap a dense symmetric positive definite matrix."""
        return cls(matrix)

    @classmethod
    def tridiagonal(cls, diag, off):
        """Wrap a symmetric tridiagonal SPD matrix given its bands."""
        return cls(_bands=(diag, off))

    @classmethod
    def identity(cls, n):
        """The n-by-n identity, banded; its Cholesky factor is itself."""
        if n < 1:
            raise ValueError("dimension must be positive")
        eye = cls.__new__(cls)
        eye._dense, eye._diag, eye._off = None, np.ones(n), np.zeros(n - 1)
        eye._factor = np.array([np.zeros(n), np.ones(n)], order="F")  # as LAPACK's
        return eye

    def _cholesky_dense(self, m):
        try:
            c, low = sla.cho_factor(m, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError(f"Cholesky factorization failed: {exc}") from exc
        pivots = np.diag(c) ** 2
        if np.min(pivots) <= PIVOT_RTOL * np.max(np.diag(m)):
            raise NotSpdError("matrix is numerically singular (tiny Cholesky pivot)")
        return (c, low)

    def _cholesky_banded(self, diag, off):
        n = diag.size
        ab = np.zeros((2, n))
        ab[0, 1:] = off
        ab[1, :] = diag
        try:
            factor = sla.cholesky_banded(ab, lower=False, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError(f"Cholesky factorization failed: {exc}") from exc
        pivots = factor[1, :] ** 2
        if np.min(pivots) <= PIVOT_RTOL * np.max(diag):
            raise NotSpdError("matrix is numerically singular (tiny Cholesky pivot)")
        return factor

    # -- basic queries ------------------------------------------------

    @property
    def dimension(self):
        return self._diag.size if self._dense is None else self._dense.shape[0]

    @property
    def is_banded(self):
        return self._dense is None

    @property
    def shape(self):
        n = self.dimension
        return (n, n)

    def dense(self):
        """Return the operator as a dense ndarray (copy for banded storage)."""
        if self._dense is not None:
            return self._dense
        m = np.diag(self._diag)
        n = self.dimension
        if n > 1:
            idx = np.arange(n - 1)
            m[idx, idx + 1] = self._off
            m[idx + 1, idx] = self._off
        return m

    def diagonal(self):
        if self._dense is not None:
            return np.diag(self._dense).copy()
        return self._diag.copy()

    @property
    def bands(self):
        """(diagonal, off-diagonal) arrays; only for banded storage."""
        if self._dense is not None:
            raise ValueError("operator is stored densely, not as bands")
        return self._diag, self._off

    # -- action -------------------------------------------------------

    def matvec(self, x):
        x = as_vector(x, self.dimension)
        if self._dense is not None:
            return self._dense @ x
        y = self._diag * x
        if x.size > 1:
            y[:-1] += self._off * x[1:]
            y[1:] += self._off * x[:-1]
        return y

    def __matmul__(self, x):
        return self.matvec(x)

    def _raw_solve(self, b):
        if self._dense is not None:
            return sla.cho_solve(self._factor, b, check_finite=False)
        return sla.cho_solve_banded((self._factor, False), b, check_finite=False)

    def solve(self, b):
        """Solve ``A x = b`` to relative residual ``SOLVE_RTOL``.

        One Cholesky backsolve followed by iterative refinement until
        ``||A x - b|| <= SOLVE_RTOL * max(1, ||b||)``.  Refinement almost
        never triggers except for badly conditioned operators; when the
        target is below the float64 backward-error floor the best
        refined iterate is returned instead.
        """
        b = as_vector(b, self.dimension)
        x = self._raw_solve(b)
        bound = SOLVE_RTOL * max(1.0, float(np.linalg.norm(b)))
        for _ in range(_MAX_REFINE):
            r = b - self.matvec(x)
            if np.linalg.norm(r) <= bound:
                return x
            x = x + self._raw_solve(r)
        r = b - self.matvec(x)
        resid = float(np.linalg.norm(r))
        if resid <= bound:
            return x
        floor = 8.0 * np.finfo(np.float64).eps * (
            np.linalg.norm(b) + self._norm_inf() * np.linalg.norm(x)
        )
        if resid <= floor:
            return x
        raise NotSpdError(
            "iterative refinement stalled "
            f"(residual {resid:.3e}, bound {bound:.3e})"
        )

    def _norm_inf(self):
        if self._dense is not None:
            return float(np.max(np.sum(np.abs(self._dense), axis=1)))
        row = np.abs(self._diag)
        e = np.abs(self._off)
        row[:-1] += e
        row[1:] += e
        return float(row.max())

    def upper_factor(self):
        """Upper-triangular U with ``A = U^T U``, a scipy.sparse CSR array."""
        import scipy.sparse as sp

        if self._dense is not None:
            return sp.csr_array(np.tril(self._factor[0]).T)
        f, n = self._factor, self.dimension
        return sp.diags_array([f[1], f[0, 1:]], offsets=[0, 1], shape=(n, n), format="csr")

    def extreme_eigenvalues(self):
        """Smallest and largest eigenvalue as ``(lo, hi)``."""
        if self._dense is not None:
            return extreme_eigenvalues(self._dense)
        n = self.dimension
        ab = np.zeros((2, n))
        ab[0, 1:] = self._off
        ab[1, :] = self._diag
        lo = sla.eig_banded(
            ab, lower=False, eigvals_only=True, select="i", select_range=(0, 0)
        )[0]
        hi = sla.eig_banded(
            ab, lower=False, eigvals_only=True, select="i", select_range=(n - 1, n - 1)
        )[0]
        return float(lo), float(hi)

    def __repr__(self):
        kind = "banded" if self.is_banded else "dense"
        return f"SpdOperator({kind}, n={self.dimension})"


def dirichlet_laplacian(n, scale=1.0):
    """The n-by-n tridiagonal matrix ``scale * tridiag(-1, 2, -1)``.

    This is the stiffness matrix of the 1-D Laplacian with homogeneous
    Dirichlet boundary conditions on a uniform grid (up to scaling), and
    serves as the default metric for multilevel decompositions.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if scale <= 0:
        raise ValueError("scale must be positive")
    return SpdOperator.tridiagonal(
        2.0 * scale * np.ones(n), -scale * np.ones(max(n - 1, 0))
    )


def _operator_or_matrix(a):
    """Accept an SpdOperator or an array; return something with matvec/solve."""
    if isinstance(a, SpdOperator):
        return a
    return SpdOperator.from_dense(a)


def _dense(m):
    """An operator or array as a dense float64 array."""
    return m.dense() if isinstance(m, SpdOperator) else np.asarray(m, dtype=np.float64)


def inner_product(x, y):
    """Euclidean inner product with shape validation."""
    x = as_vector(x)
    y = as_vector(y, x.size)
    return float(np.dot(x, y))


def a_inner_product(a, x, y):
    """Inner product ``(A x, y)`` in the metric of the SPD operator ``a``."""
    a = _operator_or_matrix(a)
    x = as_vector(x, a.dimension)
    y = as_vector(y, a.dimension)
    return float(np.dot(a.matvec(x), y))


def a_norm(a, x):
    """Norm ``sqrt((A x, x))`` induced by the SPD operator ``a``.

    A tiny negative radicand from roundoff is clamped to zero; a
    meaningfully negative one means the operator is not positive
    definite and raises ``NotSpdError``.
    """
    a = _operator_or_matrix(a)
    x = as_vector(x, a.dimension)
    ax = a.matvec(x)
    v = float(np.dot(ax, x))
    if v < 0.0:
        scale = float(np.dot(np.abs(ax), np.abs(x)))
        if v < -1e-12 * max(scale, np.finfo(float).tiny):
            raise NotSpdError(f"negative energy ({v:.3e}); metric is not SPD")
        v = 0.0
    return float(np.sqrt(v))


def dual_norm(a, g):
    """Dual norm ``sqrt((g, A^{-1} g))`` of a gradient-like vector."""
    a = _operator_or_matrix(a)
    g = as_vector(g, a.dimension)
    v = float(np.dot(g, a.solve(g)))
    if v < 0.0:
        # Same clamping policy as a_norm; the solve can only lose a few ulps.
        if v < -1e-12 * max(float(np.dot(np.abs(g), np.abs(g))), np.finfo(float).tiny):
            raise NotSpdError(f"negative dual energy ({v:.3e}); metric is not SPD")
        v = 0.0
    return float(np.sqrt(v))


def spd_solve(a, b):
    """Solve ``A x = b`` for SPD ``a`` with a relative-residual guarantee.

    Guarantees ``||A x - b|| <= 1e-12 * max(1, ||b||)`` or raises.
    """
    return _operator_or_matrix(a).solve(b)


def extreme_eigenvalues(m, metric=None, dense_limit=DENSE_EIG_LIMIT):
    """Smallest and largest eigenvalue of a symmetric matrix or pencil.

    With ``metric`` A, those of ``m x = lambda A x``: exactly (1, 1) when
    ``m`` is ``metric``.  Banded operators (and a pencil of two, n >= 3)
    have banded paths without a size limit; otherwise a dense
    eigensolve, refused beyond ``dense_limit``.
    """
    if m is metric:
        return 1.0, 1.0
    if metric is None and isinstance(m, SpdOperator):
        return m.extreme_eigenvalues()
    if metric is not None and np.shape(metric) != np.shape(m):
        raise DimensionMismatchError("operator and metric dimensions disagree")
    both = isinstance(m, SpdOperator) and isinstance(metric, SpdOperator)
    if both and m.is_banded and metric.is_banded and m.dimension >= 3:
        lo = pencil_eigenvalue(m.matvec, metric, inverse=m._raw_solve)
        return lo, pencil_eigenvalue(m.matvec, metric, "LA")
    m = _dense(m)
    _check_symmetric(m)
    if m.shape[0] > dense_limit:
        raise ValueError(
            f"dense eigendecomposition refused for n={m.shape[0]} > {dense_limit}; "
            "use banded storage or raise dense_limit"
        )
    w = sla.eigh(m, None if metric is None else _dense(metric), eigvals_only=True)
    return float(w[0]), float(w[-1])


def pencil_eigenvalue(apply, metric, which="SA", tol=0.0, inverse=None):
    """One extreme eigenvalue of the pencil ``K x = lambda A x`` by ARPACK.

    Lanczos in the A-inner product: ``apply`` multiplies by K, ``which``
    is "SA" or "LA"; with ``inverse`` (a solve with K) the smallest by
    shift-invert at 0.  ``tol`` is the relative accuracy (0: machine
    precision).  The start vector is fixed, so calls repeat bitwise, and
    not mirror-symmetric, so it meets every eigenvector of a symmetric
    problem.  Raises ``ValueError`` if ARPACK does not converge.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = metric.dimension

    def op(f):
        return LinearOperator((n, n), matvec=f, dtype=np.float64)

    if inverse is None:
        solve = dict(Minv=op(metric._raw_solve), which=which)
    else:
        solve = dict(sigma=0.0, OPinv=op(inverse), which="LM")
    try:
        w = eigsh(
            op(apply), k=1, M=op(metric.matvec), tol=tol,
            v0=np.linspace(1.0, 2.0, n), return_eigenvectors=False, **solve,
        )
    except ArpackNoConvergence as exc:
        raise ValueError(f"Lanczos did not converge: {exc}") from exc
    return float(w[0])
