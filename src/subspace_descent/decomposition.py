"""Space decompositions: coordinates, blocks, and multilevel nodal hats.

A decomposition is a finite family of low-dimensional subspaces of R^n,
each given by a sparse prolongation (basis columns living on a small
support set), together with a metric operator A.  Each subspace carries
its Galerkin local matrix ``A_i = P_i^T A P_i`` and a local Lipschitz
constant used for step sizes and sampling weights.

A :class:`Decomposition` stores the family in flat arrays, so the
multilevel hats cost O(n log n) time and memory; :class:`Subspace` is
the per-subspace view.  Energies under a tridiagonal operator come from
its bands, which are never densified.

Index convention: all supports, basis rows, and subspace indices are
0-based throughout the package.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.linalg as sla

from .linalg import (
    DENSE_EIG_LIMIT,
    DimensionMismatchError,
    SpdOperator,
    a_norm,
    as_vector,
    dirichlet_laplacian,
)

__all__ = [
    "Subspace",
    "Decomposition",
    "coordinate_decomposition",
    "block_decomposition",
    "multilevel_nodal_decomposition",
    "galerkin_local_matrix",
    "local_lipschitz_quadratic",
    "rcd_column_lipschitz",
    "with_quadratic_lipschitz",
    "with_local_lipschitz",
    "stability_constant",
    "export_decomposition",
]


def _galerkin(m, support, basis):
    """``B^T M[S, S] B`` as a dense (k, k) array; banded M stays banded."""
    if isinstance(m, SpdOperator) and m.is_banded:
        d, e = m.bands
        out = basis.T @ (d[support, None] * basis)
        p = np.flatnonzero(np.diff(support) == 1)
        cross = basis[p].T @ (e[support[p], None] * basis[p + 1])
        return out + (cross + cross.T)
    m = m.dense() if isinstance(m, SpdOperator) else np.asarray(m, dtype=np.float64)
    return basis.T @ m[np.ix_(support, support)] @ basis


def _energies(m, offsets, rows, vals):
    """``v^T M v`` for each run ``offsets[i]:offsets[i+1]`` of (rows, vals).

    Two segment sums over the bands for tridiagonal M, else one dense
    Galerkin product per run.
    """
    starts = offsets[:-1]
    if not (isinstance(m, SpdOperator) and m.is_banded):
        runs = zip(starts.tolist(), offsets[1:].tolist())
        return np.array(
            [_galerkin(m, rows[a:b], vals[a:b, None])[0, 0] for a, b in runs]
        )
    d, e = m.bands
    pair = np.diff(rows) == 1
    pair[offsets[1:-1] - 1] = False  # no pairs across runs
    p = np.flatnonzero(pair)
    cross = np.zeros(rows.size)
    cross[p] = e[rows[p]] * (vals[p] * vals[p + 1])
    out = np.add.reduceat(d[rows] * (vals * vals), starts)
    return out + 2.0 * np.add.reduceat(cross, starts)


def _frozen(a, dtype):
    a = np.asarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


class Subspace:
    """One subspace of a decomposition.

    Parameters
    ----------
    ambient_dimension : int
    support : array of int
        Strictly increasing 0-based row indices where basis columns are
        nonzero.
    basis : (len(support), k) array
        Basis columns restricted to the support; must have full column
        rank k >= 1.
    local_matrix : SpdOperator
        The k-by-k local SPD matrix (normally the Galerkin product with
        the decomposition metric).
    local_lipschitz : float
        Smoothness constant of the objective restricted to this
        subspace, measured against ``local_matrix``; defaults to 1.
    level : int
        Grid level for multilevel constructions (finest = largest);
        0 for flat families like coordinates and blocks.

    Instances are treated as immutable; the views a Decomposition hands
    out share its arrays.
    """

    __slots__ = (
        "ambient_dimension",
        "support",
        "basis",
        "local_lipschitz",
        "level",
        "_local",
        "_scalar",
    )

    def __init__(
        self,
        ambient_dimension,
        support,
        basis,
        local_matrix,
        local_lipschitz=1.0,
        level=0,
    ):
        support = np.asarray(support, dtype=np.intp)
        if support.ndim != 1 or support.size == 0:
            raise ValueError("support must be a nonempty 1-D index array")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support indices must be strictly increasing")
        if support[0] < 0 or support[-1] >= ambient_dimension:
            raise ValueError("support index out of range")
        basis = np.asarray(basis, dtype=np.float64)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.shape[0] != support.size:
            raise DimensionMismatchError(
                "basis must have one row per support index"
            )
        k = basis.shape[1]
        if not isinstance(local_matrix, SpdOperator):
            local_matrix = SpdOperator.from_dense(np.atleast_2d(local_matrix))
        if local_matrix.dimension != k:
            raise DimensionMismatchError(
                f"local matrix is {local_matrix.dimension}-dim, basis has {k} columns"
            )
        if k == 1:
            if not np.any(basis):
                raise ValueError("basis columns are linearly dependent")
        elif np.linalg.matrix_rank(basis) != k:
            raise ValueError("basis columns are linearly dependent")
        if not local_lipschitz > 0:
            raise ValueError("local Lipschitz constant must be positive")
        self.ambient_dimension = int(ambient_dimension)
        self.support = support
        self.basis = basis
        self._local = local_matrix
        self.local_lipschitz = float(local_lipschitz)
        self.level = int(level)
        # Scalar fast path for one-dimensional subspaces.
        self._scalar = float(local_matrix.dense()[0, 0]) if k == 1 else None

    @classmethod
    def _view(cls, n, support, basis, scalar, local, lipschitz, level):
        """Unvalidated view on arrays a Decomposition already holds."""
        s = object.__new__(cls)
        s.ambient_dimension, s.support, s.basis = n, support, basis
        s.local_lipschitz, s.level, s._local = lipschitz, level, local
        s._scalar = scalar if local is None else None
        return s

    @property
    def local_matrix(self):
        """The k-by-k local SPD matrix (built on first use in k = 1 views)."""
        if self._local is None:
            self._local = SpdOperator.from_dense([[self._scalar]])
        return self._local

    @property
    def dimension(self):
        """Number of basis columns k (not the ambient dimension)."""
        return self.basis.shape[1]

    @property
    def column(self):
        """Support-restricted basis vector; only for k = 1."""
        if self.dimension != 1:
            raise ValueError("column is only defined for one-dimensional subspaces")
        return self.basis[:, 0]

    def restrict(self, full):
        """Apply ``P_i^T`` to a full-space vector."""
        return self.basis.T @ full[self.support]

    def prolong(self, coeffs):
        """Apply ``P_i`` to local coefficients, returning a full vector."""
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=np.float64))
        out = np.zeros(self.ambient_dimension)
        out[self.support] = self.basis @ coeffs
        return out

    def add_prolonged(self, x, coeffs):
        """In-place ``x += P_i @ coeffs``."""
        x[self.support] += self.basis @ np.atleast_1d(coeffs)

    def prolongation_dense(self):
        """The full (n, k) prolongation matrix."""
        p = np.zeros((self.ambient_dimension, self.dimension))
        p[self.support, :] = self.basis
        return p

    def galerkin(self, operator):
        """``P_i^T M P_i`` as a dense (k, k) array, for any symmetric M."""
        return _galerkin(operator, self.support, self.basis)

    def solve_local(self, v):
        """Solve ``A_i w = v`` in the local matrix."""
        if self._scalar is not None:
            return np.atleast_1d(np.asarray(v, dtype=np.float64)) / self._scalar
        return self.local_matrix.solve(v)

    def __repr__(self):
        return (
            f"Subspace(k={self.dimension}, support=[{self.support[0]}..."
            f"{self.support[-1]}], level={self.level}, L={self.local_lipschitz:g})"
        )


class Decomposition:
    """An ordered family of J subspaces sharing an SPD metric.

    The metric (``preconditioner``) A measures all norms, Galerkin
    products and the stability constant.  The family is stored flat, in
    read-only arrays that copies share: subspace i has ``k[i]`` basis
    columns whose entries on its support are ``vals[offsets[i]:offsets[i+1]]``
    at rows ``rows[offsets[i]:offsets[i+1]]``, row-major over its
    strictly increasing support (so with k = 1 the run of ``rows`` is
    the support).  Its local matrix is ``scalars[i]`` where k = 1 (NaN
    elsewhere) and the SpdOperator ``blocks[i]`` where k > 1;
    ``lipschitz[i]`` and ``level[i]`` are its Lipschitz constant and
    grid level.

    ``Decomposition(subspaces, metric)`` packs :class:`Subspace` objects;
    ``subspaces`` is a tuple of views, built on first use and cached.
    """

    def __init__(self, subspaces, preconditioner):
        subs = tuple(subspaces)
        if not subs:
            raise ValueError("decomposition needs at least one subspace")
        n = preconditioner.dimension
        for s in subs:
            if s.ambient_dimension != n:
                raise DimensionMismatchError(
                    "subspace ambient dimension does not match the metric"
                )
        self._assign(
            preconditioner,
            np.cumsum([0] + [s.basis.size for s in subs]),
            np.concatenate([np.repeat(s.support, s.dimension) for s in subs]),
            np.concatenate([s.basis.ravel() for s in subs]),
            [np.nan if s._scalar is None else s._scalar for s in subs],
            {i: s.local_matrix for i, s in enumerate(subs) if s._scalar is None},
            [s.dimension for s in subs],
            [s.local_lipschitz for s in subs],
            [s.level for s in subs],
        )
        self._subspaces = subs

    @classmethod
    def _flat(cls, preconditioner, *arrays, **named):
        d = object.__new__(cls)
        d._assign(preconditioner, *arrays, **named)
        return d

    def _assign(
        self, preconditioner, offsets, rows, vals, scalars,
        blocks=None, k=None, lipschitz=None, level=None,
    ):
        ones = np.ones(len(offsets) - 1)
        k, level = ones if k is None else k, 0 * ones if level is None else level
        self.preconditioner = preconditioner
        self.blocks = blocks or {}
        self.offsets, self.rows, self.k, self.level = (
            _frozen(a, np.intp) for a in (offsets, rows, k, level)
        )
        self.vals, self.scalars, self.lipschitz = (
            _frozen(a, np.float64)
            for a in (vals, scalars, ones if lipschitz is None else lipschitz)
        )
        self._subspaces = self._stability = self._energies = None

    def _with_lipschitz(self, values):
        """Copy sharing every array except ``lipschitz``."""
        out = copy.copy(self)
        out.lipschitz = _frozen(values, np.float64)
        out._subspaces = None
        return out

    @property
    def subspaces(self):
        """Tuple of :class:`Subspace` views, built on first use."""
        if self._subspaces is None:
            n, o, k = self.ambient_dimension, self.offsets.tolist(), self.k.tolist()
            scal, lip = self.scalars.tolist(), self.lipschitz.tolist()
            lev = self.level.tolist()
            self._subspaces = tuple(
                Subspace._view(
                    n, self.rows[o[i] : o[i + 1] : k[i]],
                    self.vals[o[i] : o[i + 1]].reshape(-1, k[i]),
                    scal[i], self.blocks.get(i), lip[i], lev[i],
                )
                for i in range(len(self))
            )
        return self._subspaces

    def local_energies(self, operator):
        """``P_i^T M P_i`` for every k = 1 subspace (NaN where k > 1).

        Cached for the most recent operator (by identity), so annotating
        Lipschitz constants and setting up a solver share one pass.
        """
        cached = self._energies
        if cached is not None and cached[0] is operator:
            return cached[1]
        if self.blocks:
            out = np.full(len(self), np.nan)
            for i in np.flatnonzero(self.k == 1).tolist():
                out[i] = self[i].galerkin(operator)[0, 0]
        else:
            out = _energies(operator, self.offsets, self.rows, self.vals)
        self._energies = (operator, _frozen(out, np.float64))
        return out

    def __len__(self):
        return self.k.size

    def __iter__(self):
        return iter(self.subspaces)

    def __getitem__(self, i):
        return self.subspaces[i]

    @property
    def ambient_dimension(self):
        return self.preconditioner.dimension

    @property
    def mean_lipschitz(self):
        return float(np.mean(self.lipschitz))

    @property
    def stability_constant(self):
        """Stability constant of the splitting; computed lazily, cached."""
        if self._stability is None:
            self._stability = stability_constant(self)
        return self._stability

    def __repr__(self):
        return (
            f"Decomposition(J={len(self)}, n={self.ambient_dimension}, "
            f"metric={'banded' if self.preconditioner.is_banded else 'dense'})"
        )


# -- builders ----------------------------------------------------------


def coordinate_decomposition(n, metric=None):
    """One subspace per coordinate direction.

    With the identity metric this realizes plain (randomized) coordinate
    descent; local matrices are the diagonal entries of the metric.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    metric = SpdOperator.identity(n) if metric is None else metric
    if metric.dimension != n:
        raise DimensionMismatchError("metric dimension does not match n")
    return Decomposition._flat(
        metric, np.arange(n + 1), np.arange(n), np.ones(n), metric.diagonal()
    )


def block_decomposition(partition, metric):
    """One subspace per block of a partition of {0, ..., n-1}.

    ``partition`` is an iterable of index collections that must be
    disjoint and cover every coordinate.  Basis vectors are the
    coordinate directions of each block (indices sorted ascending), and
    local matrices are the corresponding principal submatrices of the
    metric.
    """
    n = metric.dimension
    blocks = [np.array(sorted(int(i) for i in b), dtype=np.intp) for b in partition]
    if not blocks:
        raise ValueError("partition must contain at least one block")
    flat = np.concatenate(blocks)
    if flat.size != n or np.unique(flat).size != flat.size or np.any(
        (flat < 0) | (flat >= n)
    ):
        raise ValueError("partition must cover {0..n-1} with disjoint blocks")
    if any(b.size == 0 for b in blocks):
        raise ValueError("empty block in partition")
    eyes = [np.eye(b.size) for b in blocks]
    return Decomposition(
        [Subspace(n, b, e, _galerkin(metric, b, e)) for b, e in zip(blocks, eyes)],
        metric,
    )


def multilevel_nodal_decomposition(level, metric=None):
    """All nodal hat functions of a nested hierarchy of 1-D grids.

    Level ``l`` grids have ``2**l - 1`` interior nodes; the finest grid
    (l = level) has n = 2**level - 1 nodes and its hats are the
    coordinate vectors.  A hat at node j of level l peaks (value 1) at
    fine-grid index ``j * 2**(level-l)`` and decays linearly to 0 over a
    stride of ``2**(level-l)`` fine cells on each side.  Subspaces are
    ordered finest level first, left to right within a level, giving
    ``J = 2n - level`` subspaces in total.

    The default metric is ``tridiag(-1, 2, -1)``.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    n = 2**level - 1
    metric = dirichlet_laplacian(n) if metric is None else metric
    if metric.dimension != n:
        raise DimensionMismatchError(
            f"metric dimension {metric.dimension} != 2**level - 1 = {n}"
        )
    levels = np.arange(level, 0, -1)
    strides = 2 ** (level - levels)
    counts = n // strides
    rows, vals = [], []
    for stride in strides.tolist():
        # Every hat of a level has width 2 * stride - 1: centres never clip.
        span = np.arange(1 - stride, stride)
        rows.append((np.arange(stride - 1, n, stride)[:, None] + span).ravel())
        vals.append(np.tile(1.0 - np.abs(span) / stride, n // stride))
    offsets = np.concatenate(([0], np.cumsum(np.repeat(2 * strides - 1, counts))))
    rows, vals = np.concatenate(rows), np.concatenate(vals)
    scalars = _energies(metric, offsets, rows, vals)
    return Decomposition._flat(
        metric, offsets, rows, vals, scalars, level=np.repeat(levels, counts)
    )


# -- per-subspace quantities -------------------------------------------


def galerkin_local_matrix(metric, prolongation):
    """Galerkin product ``P^T A P`` as an SpdOperator.

    ``prolongation`` is a dense (n, k) matrix or a Subspace.  The result
    is symmetrized exactly before factorization; linearly dependent
    columns make the product singular and raise ``NotSpdError``.
    """
    if isinstance(prolongation, Subspace):
        return SpdOperator.from_dense(np.atleast_2d(prolongation.galerkin(metric)))
    p = np.asarray(prolongation, dtype=np.float64)
    if p.ndim == 1:
        p = p[:, None]
    a = metric if isinstance(metric, SpdOperator) else SpdOperator.from_dense(metric)
    ap = np.column_stack([a.matvec(p[:, c]) for c in range(p.shape[1])])
    return SpdOperator.from_dense(p.T @ ap)


def local_lipschitz_quadratic(hessian, subspace):
    """Largest eigenvalue of ``A_i^{-1} (P_i^T H P_i)`` for quadratic f.

    This is the smoothness constant of a quadratic with Hessian ``H``
    restricted to the subspace, measured in the local matrix norm.
    """
    hloc = subspace.galerkin(hessian)
    if subspace.dimension == 1:
        return float(hloc[0, 0]) / subspace._scalar
    w = sla.eigh(
        hloc, subspace.local_matrix.dense(), eigvals_only=True, check_finite=False
    )
    return float(w[-1])


def rcd_column_lipschitz(hessian, i):
    """Euclidean norm of column ``i`` of the Hessian.

    The classical coordinate-descent benchmark protocol uses column
    norms (not diagonal entries) as per-coordinate step constants.
    """
    if isinstance(hessian, SpdOperator):
        if hessian.is_banded:
            d, e = hessian.bands
            n = d.size
            if not 0 <= i < n:
                raise IndexError(f"column index {i} out of range")
            v = d[i] ** 2
            if i > 0:
                v += e[i - 1] ** 2
            if i + 1 < n:
                v += e[i] ** 2
            return float(np.sqrt(v))
        hessian = hessian.dense()
    hessian = np.asarray(hessian, dtype=np.float64)
    return float(np.linalg.norm(hessian[:, i]))


def with_quadratic_lipschitz(decomposition, hessian):
    """Copy of a decomposition with local Lipschitz constants of a
    quadratic objective with the given Hessian."""
    lip = decomposition.local_energies(hessian) / decomposition.scalars
    for i in decomposition.blocks:
        lip[i] = local_lipschitz_quadratic(hessian, decomposition[i])
    if not np.all(lip > 0):
        raise ValueError("local Lipschitz constant must be positive")
    return decomposition._with_lipschitz(lip)


def with_local_lipschitz(decomposition, values):
    """Copy of a decomposition with explicitly given Lipschitz constants."""
    values = as_vector(values, len(decomposition)).copy()
    if np.any(values <= 0):
        raise ValueError("Lipschitz constants must be positive")
    return decomposition._with_lipschitz(values)


# -- stability constant ------------------------------------------------


def _apply_splitting_sum(decomposition, v):
    """Apply ``B = sum_i P_i A_i^{-1} P_i^T`` to a vector."""
    out = np.zeros_like(v)
    for s in decomposition.subspaces:
        out[s.support] += s.basis @ s.solve_local(s.basis.T @ v[s.support])
    return out


def stability_constant(decomposition, dense_limit=DENSE_EIG_LIMIT, tol=1e-6):
    """Stability constant of the splitting in the decomposition metric.

    Defined as ``1 / lambda_min(B A)`` with
    ``B = sum_i P_i A_i^{-1} P_i^T`` and metric A; equivalently the
    smallest constant c such that every v splits as ``v = sum_i P_i v_i``
    with ``sum_i ||v_i||_{A_i}^2 <= c ||v||_A^2``.  Equals 1 for a
    single-block decomposition or for coordinates under the identity
    metric, and is at least 1 whenever local matrices are Galerkin.

    Up to ``dense_limit`` ambient dimensions this is a dense generalized
    eigensolve; beyond it, shifted power iteration in the metric inner
    product with relative tolerance ``tol``.  Raises if the subspaces do
    not span R^n.
    """
    a = decomposition.preconditioner
    n = a.dimension
    if n <= dense_limit:
        b = np.zeros((n, n))
        for s in decomposition.subspaces:
            if s.dimension == 1:
                col = s.basis[:, 0]
                blk = np.outer(col, col) / s._scalar
            else:
                blk = s.basis @ s.local_matrix.solve_columns(s.basis.T)
            b[np.ix_(s.support, s.support)] += blk
        ad = a.dense()
        m = ad @ b @ ad
        w = sla.eigh(m, ad, eigvals_only=True, check_finite=False)
        lo = float(w[0])
        if lo <= 1e-12 * max(float(w[-1]), 1.0):
            raise ValueError("subspaces do not span the ambient space")
        return 1.0 / lo

    def apply_p(v):
        return _apply_splitting_sum(decomposition, a.matvec(v))

    lam_max = _power_iteration(apply_p, a, n, tol=tol, seed=7)
    shift = 1.01 * lam_max

    def apply_shifted(v):
        return shift * v - apply_p(v)

    lam_min = shift - _power_iteration(apply_shifted, a, n, tol=tol, seed=11)
    if lam_min <= 0:
        raise ValueError("subspaces do not span the ambient space")
    return 1.0 / lam_min


def _power_iteration(apply_op, metric, n, tol, seed, max_iter=20000):
    """Largest eigenvalue of a metric-self-adjoint operator by power
    iteration in the metric inner product.

    Stops when the metric-norm eigenresidual drops below ``tol`` times
    the Rayleigh quotient; for a self-adjoint operator that residual
    bounds the eigenvalue error, so the returned value carries a real
    accuracy guarantee (unlike a quotient-stagnation test, which can
    stall early on slowly converging iterates).
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= a_norm(metric, v)
    for _ in range(max_iter):
        w = apply_op(v)
        rho = float(np.dot(metric.matvec(v), w))
        resid = a_norm(metric, w - rho * v)
        if resid <= tol * max(abs(rho), 1e-300):
            return rho
        nw = a_norm(metric, w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    raise ValueError(
        f"power iteration did not converge to relative tolerance {tol:g}"
    )


# -- export ------------------------------------------------------------


def export_decomposition(decomposition, path):
    """Write a decomposition as one text line per subspace.

    Each line is ``index level k L`` followed by the basis columns,
    every column a run of 0-based ``row:value`` pairs, columns separated
    by `` | ``.
    """
    with open(path, "w") as fh:
        for i, s in enumerate(decomposition.subspaces):
            cols = []
            for c in range(s.dimension):
                cols.append(
                    " ".join(
                        f"{int(r)}:{float(v)!r}"
                        for r, v in zip(s.support, s.basis[:, c])
                    )
                )
            fh.write(
                f"{i} {s.level} {s.dimension} {float(s.local_lipschitz)!r} "
                + " | ".join(cols)
                + "\n"
            )
