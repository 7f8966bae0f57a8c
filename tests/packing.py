"""Test helpers: pack explicit subspaces into a Decomposition, and build
dense references P_i and P_i^T M P_i from one."""

import numpy as np

from subspace_descent.decomposition import (
    Decomposition,
    block_decomposition,
    multilevel_nodal_decomposition,
)
from subspace_descent.linalg import SpdOperator, dirichlet_laplacian


def pack(metric, parts, lipschitz=None, level=None):
    """Decomposition of the ``(support, basis)`` pairs, in the given order."""
    parts = [
        (np.asarray(s), np.asarray(b, dtype=np.float64).reshape(len(s), -1))
        for s, b in parts
    ]
    return Decomposition(
        metric,
        np.cumsum([0] + [b.size for _, b in parts]),
        np.concatenate([np.repeat(s, b.shape[1]) for s, b in parts]),
        np.concatenate([b.ravel() for _, b in parts]),
        k=[b.shape[1] for _, b in parts],
        lipschitz=lipschitz,
        level=level,
    )


def parts_of(decomposition):
    """The ``(support, basis)`` pair of every subspace, in order."""
    return [decomposition.basis(i) for i in range(len(decomposition))]


def prolongation(decomposition, i):
    """Dense (n, k) matrix P_i of subspace i."""
    support, basis = decomposition.basis(i)
    p = np.zeros((decomposition.ambient_dimension, basis.shape[1]))
    p[support] = basis
    return p


def galerkin(decomposition, i, m):
    """Dense ``P_i^T M P_i`` of an operator or array."""
    p = prolongation(decomposition, i)
    return p.T @ (m.dense() if isinstance(m, SpdOperator) else np.asarray(m)) @ p


def mixed_family():
    """The level-3 hats, a k = 2 block, a non-identity 2-column basis and
    a non-contiguous k = 1 subspace, under tridiag(-1, 2, -1) on R^7."""
    a = dirichlet_laplacian(7)
    pair = block_decomposition([[1, 2], [0], [3], [4], [5], [6]], a).basis(0)
    skew = ([1, 3, 4], [[1.0, 0.5], [0.0, 1.0], [2.0, -1.0]])
    gap = ([0, 3, 5], [1.0, -0.5, 2.0])
    hats = parts_of(multilevel_nodal_decomposition(3))
    return pack(a, [*hats, pair, skew, gap])
