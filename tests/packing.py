"""Test helpers: pack explicit subspaces into a Decomposition."""

import numpy as np

from subspace_descent.decomposition import (
    Decomposition,
    block_decomposition,
    multilevel_nodal_decomposition,
)
from subspace_descent.linalg import dirichlet_laplacian


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
    return [(s.support, s.basis) for s in decomposition]


def mixed_family():
    """The level-3 hats, a k = 2 block, a non-identity 2-column basis and
    a non-contiguous k = 1 subspace, under tridiag(-1, 2, -1) on R^7."""
    a = dirichlet_laplacian(7)
    pair = block_decomposition([[1, 2], [0], [3], [4], [5], [6]], a)[0]
    skew = ([1, 3, 4], [[1.0, 0.5], [0.0, 1.0], [2.0, -1.0]])
    gap = ([0, 3, 5], [1.0, -0.5, 2.0])
    hats = parts_of(multilevel_nodal_decomposition(3))
    return pack(a, [*hats, (pair.support, pair.basis), skew, gap])
