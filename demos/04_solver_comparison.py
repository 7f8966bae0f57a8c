"""Head-to-head solver comparison on the worst-case quadratic.

Full gradient descent pays for the condition number, coordinate
descent pays n^2 epochs, and subspace descent over the multilevel
splitting converges in a dimension-independent number of epochs.  The
full-approximation variant reproduces the plain variant bit for bit on
quadratic local models.
"""

import numpy as np

from subspace_descent.decomposition import (
    coordinate_decomposition,
    multilevel_nodal_decomposition,
    rcd_column_lipschitz,
    with_local_lipschitz,
    with_quadratic_lipschitz,
)
from subspace_descent.objectives import nesterov_worst
from subspace_descent.solvers import SolverConfig, run_solver


def prepared(obj, level):
    d = multilevel_nodal_decomposition(level)
    return with_quadratic_lipschitz(d, obj.hessian)


def main():
    level = 5
    n = 2**level - 1
    obj = nesterov_worst(n)
    multi = prepared(obj, level)
    coord = with_local_lipschitz(
        coordinate_decomposition(n), rcd_column_lipschitz(obj.hessian)
    )

    rows = [
        ("gd", None, "none"),
        ("pgd", multi, "none"),
        ("rcd", coord, "uniform"),
        ("rfasd", multi, "uniform"),
        ("rfasd", multi, "permutation"),
        ("rfasd", multi, "cyclic"),
        ("rfas", multi, "uniform"),
    ]
    print(f"n={n}, tolerance 1e-6 on the relative gradient norm\n")
    print(f"{'method':<8} {'sampler':<12} {'iterations':>10} {'epochs':>8}")
    for method, d, sampler in rows:
        cfg = SolverConfig(method=method, sampler=sampler, seed=3)
        tr = run_solver(cfg, obj, d)
        print(f"{method:<8} {sampler:<12} {tr.iteration_count:>10} "
              f"{tr.epoch_count:>8.2f}")

    # The trace records everything needed for post-hoc analysis.
    tr = run_solver(SolverConfig(method="rfasd", sampler="uniform", seed=3),
                    obj, multi)
    print(f"\ntrace: converged={tr.converged}, "
          f"final |g|/|g0| = {tr.gradient_norms[-1] / tr.gradient_norms[0]:.2e}")
    gaps = np.asarray(tr.gaps)
    print(f"objective gap fell {gaps[0] / gaps[-1]:.1e}-fold "
          f"over {tr.iteration_count} steps")

    # Same seed, same trajectory; different seed, different path but the
    # same answer.
    again = run_solver(SolverConfig(method="rfasd", sampler="uniform", seed=3),
                       obj, multi)
    other = run_solver(SolverConfig(method="rfasd", sampler="uniform", seed=4),
                       obj, multi)
    print(f"replay bitwise identical: "
          f"{np.array_equal(tr.final_x, again.final_x)}")
    print(f"seeds agree to tolerance: "
          f"{np.allclose(tr.final_x, other.final_x, atol=1e-5)}")


if __name__ == "__main__":
    main()
