"""Space decompositions and the stability constant that rules the rate.

A decomposition splits R^n into J (overlapping) subspaces, each with a
local SPD matrix.  Its quality is one number: the stability constant
C_A, the worst-case energy blow-up when a vector is reassembled from
subspace pieces.  Randomized subspace descent converges linearly at
rate 1 - mu/(J * Lbar * C_A), so small C_A independent of n is the
whole game.
"""

import numpy as np

from subspace_descent.analysis import decomposition_identity_check
from subspace_descent.decomposition import (
    block_decomposition,
    coordinate_decomposition,
    multilevel_nodal_decomposition,
)
from subspace_descent.linalg import dirichlet_laplacian


def main():
    n = 31
    metric = dirichlet_laplacian(n)

    # Three builders over the same metric.
    coord = coordinate_decomposition(n, metric)
    blocks = block_decomposition([range(0, 10), range(10, 21), range(21, n)], metric)
    multi = multilevel_nodal_decomposition(5)  # n = 2**5 - 1 = 31

    print(f"{'decomposition':<22} {'J':>5} {'C_A':>10}")
    for name, d in [("coordinates", coord), ("3 blocks", blocks),
                    ("multilevel hats", multi)]:
        print(f"{name:<22} {len(d):>5} {d.stability_constant:>10.4f}")

    # The multilevel family keeps C_A pinned at 1 as n grows, while the
    # one-level splittings degrade like the condition number.
    print("\nscaling of C_A with problem size:")
    print(f"{'n':>6} {'coordinates':>12} {'multilevel':>11}")
    for level in (3, 4, 5, 6, 7):
        m = 2**level - 1
        c = coordinate_decomposition(m, dirichlet_laplacian(m)).stability_constant
        h = multilevel_nodal_decomposition(level).stability_constant
        print(f"{m:>6} {c:>12.2f} {h:>11.6f}")

    # Every gradient splits across subspaces so that the summed local
    # dual energies reproduce the full dual norm up to a factor C_A.
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        chk = decomposition_identity_check(rng.standard_normal(n), multi)
        worst = max(worst, chk.stability_ratio)
        assert chk.passed
    print(f"\nmax dual-energy ratio over 200 random gradients: {worst:.6f}")
    print(f"computed stability constant:                      "
          f"{multi.stability_constant:.6f}")

    # Subspace i is an index into flat arrays: basis(i) gives its
    # support and basis, scalars[i] its local matrix where k = 1.
    i = len(multi) - 1  # the single coarsest hat
    support = multi.basis(i)[0]
    print(f"\ncoarsest hat: level={multi.level[i]}, support size={support.size}, "
          f"local matrix={multi.scalars[i]:.4f}")


if __name__ == "__main__":
    main()
