"""Convex objectives with gradients.

The solvers only ever call ``value`` and ``gradient``; quadratic
objectives additionally expose their (possibly semidefinite) Hessian so
the iteration engines can maintain gradients incrementally.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    DimensionMismatchError,
    NotSpdError,
    SpdOperator,
    as_vector,
    dirichlet_laplacian,
)

__all__ = [
    "Objective",
    "QuadraticObjective",
    "NesterovWorstObjective",
    "nesterov_worst",
    "nesterov_matrix_form",
    "quadratic_minimizer",
    "load_quadratic_problem",
    "save_quadratic_problem",
]


class Objective:
    """Base class for differentiable convex objectives on R^n.

    Attributes
    ----------
    dimension : int
    known_minimum : float or None
        The optimal value, when available in closed form.
    hessian : SpdOperator or None
        Constant Hessian, when the objective is quadratic and strongly
        convex.  Semidefinite quadratics keep this ``None`` and expose
        the matrix through ``hessian_matvec`` only.
    """

    dimension = 0
    known_minimum = None
    hessian = None

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def hessian_matvec(self, v):
        """Product of the (constant) Hessian with ``v``; None-equivalent
        for non-quadratic objectives."""
        raise NotImplementedError

    @property
    def is_quadratic(self):
        return False

    @property
    def strongly_convex(self):
        return self.hessian is not None


class QuadraticObjective(Objective):
    """f(x) = 1/2 (H x, x) - (b, x) for symmetric positive semidefinite H.

    ``hessian`` may be an SpdOperator (strongly convex case) or a dense
    symmetric positive semidefinite array.  In the semidefinite case
    solvers that need invertibility must be told explicitly that this is
    intended (see ``run_solver(allow_semidefinite=...)``).
    """

    def __init__(self, hessian, rhs, known_minimum=None):
        if isinstance(hessian, SpdOperator):
            self._op = hessian
            self._semidefinite_matrix = None
        else:
            m = np.array(hessian, dtype=np.float64)
            try:
                self._op = SpdOperator.from_dense(m)
                self._semidefinite_matrix = None
            except NotSpdError:
                # Keep the symmetrized matrix; definiteness is only
                # required by operations that actually invert it.
                self._semidefinite_matrix = 0.5 * (m + m.T)
                self._op = None
        n = (
            self._op.dimension
            if self._op is not None
            else self._semidefinite_matrix.shape[0]
        )
        self.dimension = n
        self.rhs = as_vector(rhs, n)
        self.known_minimum = known_minimum

    @property
    def hessian(self):
        return self._op

    @property
    def hessian_matrix(self):
        """Dense or operator form of H, also in the semidefinite case."""
        if self._op is not None:
            return self._op
        return self._semidefinite_matrix

    @property
    def is_quadratic(self):
        return True

    def hessian_matvec(self, v):
        if self._op is not None:
            return self._op.matvec(v)
        return self._semidefinite_matrix @ as_vector(v, self.dimension)

    def value(self, x):
        x = as_vector(x, self.dimension)
        return 0.5 * float(np.dot(self.hessian_matvec(x), x)) - float(
            np.dot(self.rhs, x)
        )

    def gradient(self, x):
        x = as_vector(x, self.dimension)
        return self.hessian_matvec(x) - self.rhs


class NesterovWorstObjective(QuadraticObjective):
    """The classic worst-case smooth convex quadratic on R^n.

    With curvature parameter L and active length r <= n,

        f(x) = (L/4) * (x_1^2 + sum_{i<r} (x_i - x_{i+1})^2 + x_r^2 - x_1),

    which equals 1/2 (H x, x) - (b, x) for H = (L/2) * tridiag(-1, 2, -1)
    on the leading r coordinates (zero elsewhere) and b = (L/4) e_1.
    For r = n the Hessian is SPD; for r < n it is only semidefinite and
    the objective stays convex with a flat tail.

    The optimal value is (L/16) * (-1 + 1/(r+1)); for r = n the unique
    minimizer is x*_i = (1/2) * (1 - i/(n+1)).

    ``value`` and ``gradient`` are computed from the difference formula
    above rather than through the stored matrix, so the two routes can
    be cross-checked against each other.
    """

    def __init__(self, n, r=None, lipschitz=2.0):
        if n < 1:
            raise ValueError("dimension must be positive")
        r = n if r is None else int(r)
        if not 1 <= r <= n:
            raise ValueError(f"active length r={r} must satisfy 1 <= r <= n={n}")
        if lipschitz <= 0:
            raise ValueError("curvature parameter must be positive")
        L = float(lipschitz)
        b = np.zeros(n)
        b[0] = L / 4.0
        if r == n:
            hess = dirichlet_laplacian(n, scale=L / 2.0)
        else:
            hess = np.zeros((n, n))
            t = dirichlet_laplacian(r, scale=L / 2.0).dense()
            hess[:r, :r] = t
        known = (L / 16.0) * (-1.0 + 1.0 / (r + 1.0))
        super().__init__(hess, b, known_minimum=known)
        self.active_length = r
        self.curvature = L

    def value(self, x):
        x = as_vector(x, self.dimension)
        xr = x[: self.active_length]
        q = xr[0] ** 2 + xr[-1] ** 2
        if xr.size > 1:
            q += float(np.sum(np.diff(xr) ** 2))
        return (self.curvature / 4.0) * (q - xr[0])

    def gradient(self, x):
        x = as_vector(x, self.dimension)
        r = self.active_length
        xr = x[:r]
        core = 2.0 * xr.copy()
        if r > 1:
            core[:-1] -= xr[1:]
            core[1:] -= xr[:-1]
        g = np.zeros(self.dimension)
        g[:r] = (self.curvature / 2.0) * core
        g[0] -= self.curvature / 4.0
        return g

    def minimizer(self):
        """Closed-form minimizer; only defined for the SPD case r = n."""
        if self.active_length != self.dimension:
            raise ValueError("minimizer is not unique for r < n")
        n = self.dimension
        i = np.arange(1, n + 1, dtype=np.float64)
        return 0.5 * (1.0 - i / (n + 1.0))


def nesterov_worst(n, r=None, lipschitz=2.0):
    """Construct the worst-case smooth quadratic benchmark objective."""
    return NesterovWorstObjective(n, r=r, lipschitz=lipschitz)


def nesterov_matrix_form(n, lipschitz=2.0):
    """Return ``(H, b)`` with H = (L/2) tridiag(-1,2,-1), b = (L/4) e_1.

    This is the full-rank (r = n) matrix form of the benchmark; used to
    cross-check the difference-formula implementation.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if lipschitz <= 0:
        raise ValueError("curvature parameter must be positive")
    b = np.zeros(n)
    b[0] = lipschitz / 4.0
    return dirichlet_laplacian(n, scale=lipschitz / 2.0), b


def quadratic_minimizer(objective):
    """Exact minimizer ``H^{-1} b`` of a strongly convex quadratic."""
    if not isinstance(objective, QuadraticObjective):
        raise TypeError("quadratic_minimizer needs a QuadraticObjective")
    if objective.hessian is None:
        raise NotSpdError(
            "objective Hessian is semidefinite; no unique minimizer to compute"
        )
    return objective.hessian.solve(objective.rhs)


# -- file formats ------------------------------------------------------
#
# Matrix file: first line "N nnz", then nnz lines "i j value" giving the
# upper triangle (including the diagonal) with 1-based indices.  The
# right-hand side file holds N reals, one per line.


def _parse_floats(path):
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            try:
                vals.append(float(s))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: expected a number, got {s!r}") from exc
    return np.asarray(vals, dtype=np.float64)


def load_quadratic_problem(matrix_path, rhs_path):
    """Load a quadratic objective from triplet matrix and rhs files.

    The matrix file stores the upper triangle (1-based ``i j value``
    lines under an ``N nnz`` header); symmetry is implied.  A matrix
    with entries only on the diagonal and first superdiagonal that
    factors as SPD is kept in tridiagonal storage; anything else is
    dense (and may be semidefinite).  Raises on
    malformed headers, out-of-range or lower-triangle indices, duplicate
    entries, or an rhs of the wrong length.
    """
    with open(matrix_path) as fh:
        lines = [
            ln.strip()
            for ln in fh
            if ln.strip() and not ln.strip().startswith("#")
        ]
    if not lines:
        raise ValueError(f"{matrix_path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{matrix_path}: header must be 'N nnz', got {lines[0]!r}")
    n, nnz = int(header[0]), int(header[1])
    if n < 1 or nnz < 0:
        raise ValueError(f"{matrix_path}: invalid header values N={n}, nnz={nnz}")
    if len(lines) - 1 != nnz:
        raise ValueError(
            f"{matrix_path}: header promises {nnz} entries, found {len(lines) - 1}"
        )
    entries = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"{matrix_path}: malformed entry {ln!r}")
        i, j, v = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{matrix_path}: index out of range in {ln!r}")
        if i > j:
            raise ValueError(
                f"{matrix_path}: lower-triangle entry {ln!r}; store the upper triangle"
            )
        if (i, j) in entries:
            raise ValueError(f"{matrix_path}: duplicate entry for ({i + 1}, {j + 1})")
        entries[i, j] = v
    rhs = _parse_floats(rhs_path)
    if rhs.size != n:
        raise DimensionMismatchError(
            f"{rhs_path}: expected {n} values, found {rhs.size}"
        )
    if all(j - i <= 1 for i, j in entries):
        diag, off = np.zeros(n), np.zeros(n - 1)
        for (i, j), v in entries.items():
            (diag if i == j else off)[i] = v
        try:
            return QuadraticObjective(SpdOperator.tridiagonal(diag, off), rhs)
        except NotSpdError:
            pass  # not SPD as bands: the dense path decides
    m = np.zeros((n, n))
    for (i, j), v in entries.items():
        m[i, j] = v
        m[j, i] = v
    return QuadraticObjective(m, rhs)


def save_quadratic_problem(objective, matrix_path, rhs_path):
    """Write a quadratic objective in the triplet format of
    ``load_quadratic_problem`` (upper triangle, 1-based indices)."""
    if not isinstance(objective, QuadraticObjective):
        raise TypeError("save_quadratic_problem needs a QuadraticObjective")
    h = objective.hessian_matrix
    m = h.dense() if isinstance(h, SpdOperator) else h
    n = objective.dimension
    entries = []
    for i in range(n):
        for j in range(i, n):
            if m[i, j] != 0.0:
                entries.append((i + 1, j + 1, m[i, j]))
    with open(matrix_path, "w") as fh:
        fh.write(f"{n} {len(entries)}\n")
        for i, j, v in entries:
            fh.write(f"{i} {j} {float(v)!r}\n")
    with open(rhs_path, "w") as fh:
        for v in objective.rhs:
            fh.write(f"{float(v)!r}\n")
