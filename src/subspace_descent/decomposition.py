"""Space decompositions: coordinates, blocks, and multilevel nodal hats.

A decomposition is a finite family of low-dimensional subspaces of R^n,
each given by a sparse prolongation P_i (basis columns living on a
small support set), together with a metric operator A.  Each subspace
carries its Galerkin local matrix ``A_i = P_i^T A P_i`` and a local
Lipschitz constant used for step sizes and sampling weights.

A :class:`Decomposition` stores the family in flat arrays, its only
representation, so the multilevel hats cost O(n log n) time and
memory.  Every builder goes through its one validating constructor, and
one flat kernel on it restricts, solves or applies the local matrices,
and prolongs and sums for all subspaces at once.  The local matrices of
an operator come from one cached pass; energies under a tridiagonal
operator come from its bands, which are never densified.

Index convention: all supports, basis rows, and subspace indices are
0-based throughout the package.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .linalg import (
    DENSE_EIG_LIMIT,
    PIVOT_RTOL,
    DimensionMismatchError,
    SpdOperator,
    as_vector,
    dirichlet_laplacian,
    pencil_eigenvalue,
)

__all__ = [
    "Decomposition",
    "coordinate_decomposition",
    "block_decomposition",
    "multilevel_nodal_decomposition",
    "rcd_column_lipschitz",
    "with_quadratic_lipschitz",
    "with_local_lipschitz",
    "stability_constant",
    "export_decomposition",
]


def _galerkin(m, support, basis):
    """``B^T M[S, S] B`` of a dense M, as a dense (k, k) array."""
    return basis.T @ m[np.ix_(support, support)] @ basis


def _inverses(stack):
    """Inverses of a stack of symmetric matrices; ValueError unless each has
    Cholesky pivots above ``PIVOT_RTOL`` of its largest diagonal entry."""
    try:
        factor = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        factor = np.zeros_like(stack)
    pivots, scale = (np.diagonal(a, axis1=1, axis2=2) for a in (factor, stack))
    if (pivots**2 <= PIVOT_RTOL * scale.max(axis=1, keepdims=True)).any():
        raise ValueError("basis columns are linearly dependent")
    return np.linalg.inv(stack)


def _columns(offsets, k):
    """Column of each entry within its support row (all 0 where k = 1)."""
    sizes = np.diff(offsets)
    position = np.arange(offsets[-1]) - np.repeat(offsets[:-1], sizes)
    return position % np.repeat(k, sizes)


def _frozen(a, dtype):
    a = np.asarray(a, dtype=dtype).view()  # the caller's array stays writeable
    a.flags.writeable = False
    return a


@dataclass
class _Energies:
    """One operator's cached pass, and what ``applied`` and ``_kernel.bind`` build."""

    operator: object
    scalars: np.ndarray
    stacks: dict
    passes: list | None
    applied: tuple | None = None
    binding: object = None


class Decomposition:
    """An ordered family of J subspaces sharing an SPD metric.

    The metric A (kept as ``preconditioner``) measures all norms,
    Galerkin products and the stability constant.  Subspace i has
    ``k[i]`` basis columns (default 1) whose entries on its support are
    ``vals[offsets[i]:offsets[i+1]]`` at rows ``rows[offsets[i]:offsets[i+1]]``,
    row-major over its strictly increasing support: each support row
    appears k[i] times in a row, so with k = 1 the run of ``rows`` is the
    support.  ``lipschitz[i]`` (default 1) and ``level[i]`` (default 0)
    are its Lipschitz constant and grid level.

    The constructor checks the arrays in a few vectorized O(nnz)
    passes: consistent lengths (``DimensionMismatchError``); run
    lengths divisible by k; rows inside the metric's range; supports
    strictly increasing; no zero k = 1 column and full column rank
    where k > 1; finite values and positive Lipschitz constants
    (``ValueError``).  One :meth:`local_energies` pass gives ``scalars``,
    A_i where k = 1 (NaN elsewhere); ``groups[k]`` lists the subspaces
    of each k > 1, and ``matrices[k]`` and ``inverses[k]`` stack their
    A_i and A_i^{-1} as (nb, k, k) arrays, checked by one batched
    Cholesky factorization.  All arrays are read-only, shared by copies.

    :meth:`basis` and :meth:`local` read one subspace.  The flat kernel
    (:meth:`restrict`, :meth:`solve_local`, :meth:`apply_local`,
    :meth:`prolong`) works on all subspaces at once, on coefficient
    vectors in which subspace i owns slots ``slots[i]:slots[i+1]``.
    """

    def __init__(self, metric, offsets, rows, vals, k=None, lipschitz=None, level=None):
        offsets, rows = _frozen(offsets, np.intp), _frozen(rows, np.intp)
        vals = _frozen(vals, np.float64)
        j = offsets.size - 1
        if offsets.ndim != 1 or j < 1:
            raise ValueError("decomposition needs at least one subspace")
        ones = np.ones(j, dtype=np.intp)
        k = _frozen(ones if k is None else k, np.intp)
        lipschitz = _frozen(ones if lipschitz is None else lipschitz, np.float64)
        level = _frozen(0 * ones if level is None else level, np.intp)
        if rows.ndim != 1 or rows.shape != vals.shape or offsets[-1] != rows.size:
            raise DimensionMismatchError("offsets, rows and vals disagree in length")
        if k.shape != (j,) or lipschitz.shape != (j,) or level.shape != (j,):
            raise DimensionMismatchError("k, lipschitz and level need J entries each")
        if not (np.isfinite(vals).all() and np.isfinite(lipschitz).all()):
            raise ValueError("vector contains non-finite entries")
        sizes, multi = offsets[1:] - offsets[:-1], (k != 1).any()
        if offsets[0] != 0 or (sizes < 1).any() or (k < 1).any() or (
            multi and (sizes % k).any()
        ):
            raise ValueError("run length is not a positive multiple of k")
        # lead: the support rows in order; ends: where each run's support ends
        lead, ends = rows, offsets[1:-1] - 1
        if multi:
            col = _columns(offsets, k)
            if (rows != rows[np.arange(rows.size) - col]).any():
                raise ValueError("each support row must appear k times in a row")
            lead, ends = rows[col == 0], np.cumsum(sizes // k)[:-1] - 1
        step = lead[1:] - lead[:-1]
        down = step <= 0
        down[ends] = False  # supports of consecutive runs may restart
        if down.any():
            raise ValueError("support indices must be strictly increasing")
        # Increasing supports: each run's extreme rows are its first and last.
        if rows[offsets[:-1]].min() < 0 or rows[offsets[1:] - 1].max() >= metric.dimension:
            raise ValueError("support index out of range")
        _check_lipschitz(lipschitz)
        self.preconditioner = metric
        self.offsets, self.rows, self.vals = offsets, rows, vals
        self.k, self.lipschitz, self.level = k, lipschitz, level
        self.slots = _frozen(np.concatenate(([0], np.cumsum(k))), np.intp)
        self._stability = self._energies = self._entry = None
        # pair[t]: entry t + k[i] lies in the same run, one row below t
        if multi:
            below = np.arange(rows.size) + np.repeat(k, sizes)
            pair = below < np.repeat(offsets[1:], sizes)
            pair[pair] = rows[below[pair]] - rows[pair] == 1
        else:
            pair = np.zeros(rows.size, bool)
            np.equal(step, 1, out=pair[:-1])
            pair[offsets[1:-1] - 1] = False  # no pairs across subspaces
        self._pair = _frozen(pair, bool)
        kinds = np.unique(k).tolist() if multi else []
        self.groups = {c: _frozen(np.flatnonzero(k == c), np.intp) for c in kinds if c > 1}
        del step, down  # not held through the pass below, where memory peaks
        self.scalars, local = self.local_energies(metric)
        if not (self.scalars[k == 1] > 0).all():
            raise ValueError("basis column is zero")
        # exactly symmetric, as the A_i are
        self.matrices = {c: _frozen(0.5 * (m + m.mT), np.float64) for c, m in local.items()}
        self.inverses = {c: _frozen(_inverses(m), np.float64) for c, m in self.matrices.items()}

    def basis(self, i):
        """Support and (support, k) basis of subspace i, as array views."""
        a, b, k = int(self.offsets[i]), int(self.offsets[i + 1]), int(self.k[i])
        return self.rows[a:b:k], self.vals[a:b].reshape(-1, k)

    def local(self, i, energies=None):
        """Subspace i's (k, k) view in a ``(scalars, stacks)`` pair (default the A_i)."""
        scalars, stacks = (self.scalars, self.matrices) if energies is None else energies
        k = int(self.k[i])
        if k == 1:
            return scalars[i : i + 1, None]
        return stacks[k][int(np.searchsorted(self.groups[k], i))]

    def _group(self, c):
        """``(index, sel, starts, rows, vals, pair)``: the subspaces with k = c,
        their entries (None if all k are 1), their runs' offsets in those."""
        if not self.groups:
            return slice(None), None, self.offsets, self.rows, self.vals, self._pair
        index, sizes = np.flatnonzero(self.k == c), np.diff(self.offsets)
        sel = np.flatnonzero(np.repeat(self.k == c, sizes))
        starts = np.concatenate(([0], np.cumsum(sizes[index])))
        return index, sel, starts, self.rows[sel], self.vals[sel], self._pair[sel]

    def local_energies(self, operator):
        """``(scalars, stacks)``: every local matrix ``P_i^T M P_i``.

        ``scalars`` holds those of the k = 1 subspaces (NaN where k > 1)
        and ``stacks[k]`` those of ``groups[k]`` as one (nb, k, k) array.
        For tridiagonal M, one pass per k forms row r of every ``M P_i``,
        ``(d_r v_r + e_r v_{r+1}) + e_{r-1} v_{r-1}`` with neighbours in
        the run only (k entries apart), and sums ``v_r^T (M P_i)_r`` per
        support.  Else one-entry supports at once and one dense Galerkin
        product per longer support.  Cached for the most recent operator
        (by identity) with what :meth:`applied` and solver setup build.
        """
        cached = self._energies
        if cached is not None and cached.operator is operator:
            return cached.scalars, cached.stacks
        out, stacks, passes = np.full(len(self), np.nan), {}, None
        if isinstance(operator, SpdOperator) and operator.is_banded:
            d, e = operator.bands
            e, passes = np.append(e, 0.0), []
            for c in np.unique(self.k).tolist() if self.groups else [1]:
                index, sel, starts, rows, vals, pair = self._group(c)
                up = e[rows[:-c]]
                up *= pair[:-c]  # e_r where rows r and r + 1 are in one run, else 0
                inner, t = d[rows], np.empty(rows.size)  # in place: few temporaries
                inner *= vals
                inner[:-c] += np.multiply(up, vals[c:], out=t[:-c])
                inner[c:] += np.multiply(up, vals[:-c], out=t[:-c])
                if c == 1:
                    out[index] = np.add.reduceat(np.multiply(vals, inner, out=t), starts[:-1])
                else:
                    v, mv = vals.reshape(-1, c), inner.reshape(-1, c)
                    stacks[c] = np.add.reduceat(v[:, :, None] * mv[:, None, :], starts[:-1] // c)
                passes.append((c, sel, starts, rows, vals, pair, inner))
        else:
            m = operator.dense() if isinstance(operator, SpdOperator) else operator
            m = np.asarray(m, dtype=np.float64)
            offsets, one = self.offsets, self.k == 1
            lone = one & (offsets[1:] - offsets[:-1] == 1)  # one-entry runs at once
            r, v = self.rows[offsets[:-1][lone]], self.vals[offsets[:-1][lone]]
            out[lone] = v * m[r, r] * v
            longer = np.flatnonzero(one & ~lone).tolist()
            out[longer] = [_galerkin(m, *self.basis(i))[0, 0] for i in longer]
            for c, index in self.groups.items():
                stacks[c] = np.array([_galerkin(m, *self.basis(i)) for i in index.tolist()])
        stacks = {c: _frozen(s, np.float64) for c, s in stacks.items()}
        self._energies = _Energies(operator, _frozen(out, np.float64), stacks, passes)
        return self._energies.scalars, stacks

    def applied(self, operator):
        """``(offsets, rows, vals)``: the nonzero rows of every ``M P_i``.

        Flat CSR arrays for tridiagonal M in the layout of ``offsets``,
        ``rows`` and ``vals``: rows increasing within each subspace, each
        row k[i] times in a row with its k values: from the pass of
        :meth:`local_energies`, M P_i's support rows, and ``e_{b-1} v_b``
        at b - 1 and ``e_{b1-1} v_{b1-1}`` at b1 around each run [b, b1)
        of consecutive support rows, each row kept whole if not all zero.
        """
        self.local_energies(operator)  # the cache of this operator
        cached = self._energies
        if cached.applied is None:
            if cached.passes is None:
                raise ValueError("the applied basis needs a tridiagonal operator")
            e = np.concatenate(([0.0], operator.bands[1], [0.0]))  # e[r] = e_{r-1}
            if self.rows.size == len(self):  # one row per support: no runs to order
                vals, inner = cached.passes[0][4::2]
                cached.applied = _one_row_stencils(self.rows, vals, inner, e)
            else:
                found = [_candidates(e, *p) for p in cached.passes]
                at, row, val, nonzero = map(np.concatenate, zip(*found)) if found[1:] else found[0]
                keep = np.argsort(at, kind="stable")
                keep = keep[nonzero[keep]]
                at = np.searchsorted(at[keep], self.offsets)
                cached.applied = tuple(_frozen(a, a.dtype) for a in (at, row[keep], val[keep]))
            cached.passes = None
        return cached.applied

    # -- flat kernel: restrict, local solve or apply, prolong-and-sum --

    def _entry_slots(self):
        """Coefficient slot of every entry, built on first use."""
        if self._entry is None:
            first = np.repeat(self.slots[:-1], np.diff(self.offsets))
            self._entry = _frozen(first + _columns(self.offsets, self.k), np.intp)
        return self._entry

    def restrict(self, v):
        """``P_i^T v`` of every subspace, as one flat coefficient vector."""
        c = self.vals * v[self.rows]
        return np.bincount(self._entry_slots(), c, self.slots[-1])

    def _stacked(self, out, stacks, c):
        """``out`` with each k > 1 subspace's slots set to its stacked matrix times c."""
        for k, stack in stacks.items():
            at = self.slots[self.groups[k], None] + np.arange(k)
            out[at] = (stack @ c[at][..., None])[..., 0]
        return out

    def solve_local(self, c):
        """``A_i^{-1} c_i`` for every subspace, on flat coefficients."""
        return self._stacked(c / np.repeat(self.scalars, self.k), self.inverses, c)

    def apply_local(self, c, operator=None):
        """``M_i c_i`` for every subspace, on flat coefficients.

        ``M_i = P_i^T M P_i`` is the local matrix of ``operator``, read
        from :meth:`local_energies`; by default the metric's, the A_i.
        """
        own = operator is None  # the metric's A_i
        scal, local = (self.scalars, self.matrices) if own else self.local_energies(operator)
        return self._stacked(c * np.repeat(scal, self.k), local, c)

    def prolong(self, c):
        """``sum_i P_i c_i`` as a full vector."""
        v = self.vals * c[self._entry_slots()]
        return np.bincount(self.rows, v, self.ambient_dimension)

    def __len__(self):
        return self.k.size

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
    return Decomposition(metric, np.arange(n + 1), np.arange(n), np.ones(n))


def block_decomposition(partition, metric):
    """One subspace per block of a partition of {0, ..., n-1}.

    ``partition`` is an iterable of index collections that must be
    disjoint and cover every coordinate.  Basis vectors are the
    coordinate directions of each block (indices sorted ascending), and
    local matrices are the corresponding principal submatrices of the
    metric.
    """
    n = metric.dimension
    blocks = list(partition)
    if not blocks:
        raise ValueError("partition must contain at least one block")
    k = np.fromiter(map(len, blocks), np.intp, len(blocks))
    flat = np.fromiter(itertools.chain.from_iterable(blocks), np.intp, int(k.sum()))
    flat = flat[np.lexsort((flat, np.repeat(np.arange(k.size), k)))]  # ascending per block
    if flat.size != n or not np.array_equal(np.unique(flat), np.arange(n)):
        raise ValueError("partition must cover {0..n-1} with disjoint blocks")
    if (k == 0).any():
        raise ValueError("empty block in partition")
    offsets, each = np.concatenate(([0], np.cumsum(k * k))), np.repeat(k, k)
    position = np.arange(n) - np.repeat(np.cumsum(k) - k, k)  # of each row in its block
    eye = np.repeat(position, each) == _columns(offsets, k)
    return Decomposition(metric, offsets, np.repeat(flat, each), eye.astype(np.float64), k=k)


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
    offsets = np.concatenate(([0], np.cumsum(np.repeat(2 * strides - 1, counts))))
    rows, vals = np.empty(offsets[-1], np.intp), np.empty(offsets[-1])
    at = 0
    for stride, count in zip(strides.tolist(), counts.tolist()):
        # Every hat of a level has width 2 * stride - 1: centres never clip.
        span = np.arange(1 - stride, stride)
        end = at + count * span.size
        np.add.outer(np.arange(stride - 1, n, stride), span, out=rows[at:end].reshape(count, -1))
        vals[at:end].reshape(count, -1)[:] = 1.0 - np.abs(span) / stride
        at = end
    return Decomposition(metric, offsets, rows, vals, level=np.repeat(levels, counts))


def _candidates(e, c, sel, starts, rows, vals, pair, inner):
    """:meth:`Decomposition.applied`'s candidate entries from the pass over k = c."""
    whole = lambda keep: keep if c == 1 else np.repeat(keep.reshape(-1, c).any(1), c)  # noqa: E731
    hi = np.flatnonzero(~pair)  # each run's last support row, c entries
    lo = np.concatenate((np.arange(c), hi[:-c] + c))  # and its first
    # the entry behind each candidate: rows r - 1 of every lo, r of every
    # row of inner with a nonzero, r + 1 of every hi, in row order once sorted
    at = np.concatenate((lo, np.flatnonzero(whole(inner != 0.0)), hi))
    m, row, val = lo.size, rows[at], vals[at]
    row[:m] -= 1
    row[-m:] += 1
    val[:m] *= e[row[:m] + 1]
    val[m:-m] = inner[at[m:-m]]
    val[-m:] *= e[row[-m:]]
    # a run's b1 that is the next run's b - 1, in one support: one entry
    t = np.flatnonzero(row[c:m] == row[-m:-c])
    if t.size:
        first = lo[t + c] - t % c  # the next run's first entry
        t = t[starts[np.searchsorted(starts, first)] != first]
        val[-m:][t] += val[t + c]
        val[t + c] = 0.0
    if c > 1:  # behind the row's first entry; the zeros kept are +0.0, as M P_i's
        val += 0.0
        at -= at % c
    return (at if sel is None else sel[at]), row, val, whole(val != 0.0)


def _one_row_stencils(rows, vals, inner, e):
    """``applied`` when every support is one row r: ``v e_{r-1}``, ``inner``
    and ``v e_r`` at rows r - 1, r and r + 1, zeros dropped, with no sort."""
    row = rows[:, None] + np.array([-1, 0, 1])
    val = np.column_stack((vals * e[rows], inner, vals * e[rows + 1]))
    keep = val != 0.0
    at = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return tuple(_frozen(a, a.dtype) for a in (at, row[keep], val[keep]))


# -- per-subspace quantities -------------------------------------------


def rcd_column_lipschitz(hessian):
    """Euclidean norms of the Hessian's columns, one per coordinate.

    The classical coordinate-descent benchmark protocol uses column
    norms (not diagonal entries) as per-coordinate step constants.
    """
    if isinstance(hessian, SpdOperator):
        if hessian.is_banded:
            d, e = hessian.bands
            # d_i^2 + e_{i-1}^2 + e_i^2, summed in that order
            v = d * d
            v[1:] += e * e
            v[:-1] += e * e
            return np.sqrt(v)
        hessian = hessian.dense()
    # One norm per column keeps the bits of the single-column norm.
    columns = np.asarray(hessian, dtype=np.float64).T
    return np.array([np.linalg.norm(c) for c in columns])


def with_quadratic_lipschitz(decomposition, hessian):
    """Copy of a decomposition with local Lipschitz constants of a
    quadratic objective with the given Hessian.

    The constant of subspace i is the largest eigenvalue of
    ``A_i^{-1} (P_i^T H P_i)``: the smoothness of the quadratic
    restricted to the subspace, measured in the local matrix norm.
    """
    d = decomposition
    scal, local = d.local_energies(hessian)
    lip = scal / d.scalars
    for k, index in d.groups.items():
        # the pencil (P_i^T H P_i, A_i) as L^{-1} (P_i^T H P_i) L^{-T}, A_i = L L^T
        factor = np.linalg.inv(np.linalg.cholesky(d.matrices[k]))
        lip[index] = np.linalg.eigvalsh(factor @ local[k] @ factor.mT)[:, -1]
    return with_local_lipschitz(d, lip)


def _check_lipschitz(values):
    if not (values > 0).all():
        i = int(np.flatnonzero(~(values > 0))[0])
        raise ValueError(
            f"local Lipschitz constant must be positive; subspace {i} has {values[i]}"
        )


def with_local_lipschitz(decomposition, values):
    """Copy of a decomposition with explicitly given Lipschitz constants,
    sharing every other array."""
    values = as_vector(values, len(decomposition)).copy()
    _check_lipschitz(values)
    out = copy.copy(decomposition)
    out.lipschitz = _frozen(values, np.float64)
    return out


# -- stability constant ------------------------------------------------


def stability_constant(decomposition, dense_limit=DENSE_EIG_LIMIT, tol=1e-6):
    """Stability constant of the splitting in the decomposition metric.

    Defined as ``1 / lambda_min(B A)`` with
    ``B = sum_i P_i A_i^{-1} P_i^T`` and metric A; equivalently the
    smallest constant c such that every v splits as ``v = sum_i P_i v_i``
    with ``sum_i ||v_i||_{A_i}^2 <= c ||v||_A^2``.  Equals 1 for a
    single-block decomposition or for coordinates under the identity
    metric.  It is at least 1 when the basis columns of all subspaces
    together form a basis of R^n (the trace of B A is then n); a
    redundant splitting can give less.

    Up to ``dense_limit`` ambient dimensions: one symmetric eigensolve of
    ``S = U B U^T = (U P D^{-1}) (U P)^T``, similar to B A, with
    ``A = U^T U`` the metric's factor, P the basis columns and D the
    local matrices.  Beyond it, Lanczos on the pencil ``(A B A, A)`` to
    relative accuracy ``tol`` through the flat kernel, an uncertified
    estimate.  Raises if the subspaces do not span R^n.
    """
    d = decomposition
    a = d.preconditioner
    n = a.dimension
    if n <= dense_limit:
        import scipy.sparse as sp

        # P D^{-1}: k = 1 columns over A_i, the basis rows of k > 1 times A_i^{-1}
        q = d.vals / np.repeat(d.scalars, np.diff(d.offsets))
        for k, inverse in d.inverses.items():
            index, sel, starts, _, vals, _ = d._group(k)
            of_row = np.repeat(np.arange(index.size), np.diff(starts) // k)
            q[sel] = (vals.reshape(-1, 1, k) @ inverse[of_row]).ravel()
        at, shape = (d.rows, d._entry_slots()), (n, int(d.slots[-1]))
        u = a.upper_factor()
        s = (u @ sp.csr_array((q, at), shape)) @ (u @ sp.csr_array((d.vals, at), shape)).T
        w = sla.eigvalsh(s.toarray(), overwrite_a=True, check_finite=False)
        lo, hi = float(w[0]), float(w[-1])
    else:
        def apply(v):
            return a.matvec(d.prolong(d.solve_local(d.restrict(a.matvec(v)))))

        lo, hi = (pencil_eigenvalue(apply, a, which, tol) for which in ("SA", "LA"))
    if lo <= 1e-12 * max(hi, 1.0):
        raise ValueError("subspaces do not span the ambient space")
    return 1.0 / lo


# -- export ------------------------------------------------------------


def export_decomposition(decomposition, path):
    """Write a decomposition as one text line per subspace.

    Each line is ``index level k L`` followed by the basis columns,
    every column a run of 0-based ``row:value`` pairs, columns separated
    by `` | ``.
    """
    d = decomposition
    lip, lev = d.lipschitz.tolist(), d.level.tolist()
    with open(path, "w") as fh:
        for i in range(len(d)):
            support, basis = d.basis(i)
            cols = " | ".join(
                " ".join(f"{r}:{v!r}" for r, v in zip(support.tolist(), col.tolist()))
                for col in basis.T
            )
            fh.write(f"{i} {lev[i]} {basis.shape[1]} {lip[i]!r} {cols}\n")
