"""Checking the convergence theory against actual solver runs.

Every guarantee the solvers rest on is checkable in finite precision:
the gradient-splitting identity, the expected one-step decay, and the
linear rate 1 - mu/(J * Lbar * C_A).  This script evaluates each one on
the benchmark problem and then fits the observed rate of a solver
ensemble to compare against the bound.
"""

import json

import numpy as np

from subspace_descent.analysis import (
    empirical_rate_fit,
    expected_decay_check,
    linear_rate_bound,
    quadratic_metric_constants,
    sublinear_bound,
    theory_report,
)
from subspace_descent.decomposition import (
    multilevel_nodal_decomposition,
    with_quadratic_lipschitz,
)
from subspace_descent.objectives import nesterov_worst
from subspace_descent.solvers import SolverConfig, run_solver


def main():
    level = 4
    n = 2**level - 1
    obj = nesterov_worst(n)
    d = with_quadratic_lipschitz(multilevel_nodal_decomposition(level), obj.hessian)

    # Convexity and smoothness measured against the decomposition
    # metric.  With metric == Hessian both constants are exactly 1.
    mu, lip = quadratic_metric_constants(obj.hessian, d.preconditioner)
    lbar = d.mean_lipschitz
    c = d.stability_constant
    print(f"mu_A={mu:.6f}  L_A={lip:.6f}  mean local L={lbar:.6f}  C_A={c:.6f}")

    bound = linear_rate_bound(mu, lbar, c, len(d))
    print(f"per-step linear rate bound: {bound:.6f}  (J={len(d)})")

    # Expected one-step decay: enumerate all J outcomes and compare the
    # exact expectation against the theoretical lower bound.
    rng = np.random.default_rng(5)
    slack = min(
        expected_decay_check(rng.standard_normal(n), obj, d, "proportional").slack
        for _ in range(50)
    )
    print(f"min expected-decay slack over 50 random points: {slack:.3e} (>= 0)")

    # Fit the observed rate from a 10-seed ensemble of runs.
    traces = [
        run_solver(SolverConfig(method="rfasd", sampler="uniform", seed=s), obj, d)
        for s in range(10)
    ]
    fit = empirical_rate_fit(traces)
    print(f"fitted ensemble rate {fit.rate:.6f} <= bound {bound:.6f}: "
          f"{fit.rate <= bound}")

    # Convex-only problems get a sublinear guarantee instead; the
    # refined form stays finite at k = 0.
    print("\nsublinear bounds after k steps (gap0=1, radius=1):")
    for k in (0, 100, 1000):
        sb = sublinear_bound(k, 1.0, 1.0, len(d), lbar, c)
        print(f"  k={k:<5d} refined={sb.refined:.6f}  loose={sb.loose:.6f}")

    # The one-call report bundles all checks; also used by the CLI.
    report = theory_report(obj, d, traces=traces)
    print(f"\ntheory report (all passed: {report.all_passed}):")
    print(json.dumps(report.to_json(), indent=2))


if __name__ == "__main__":
    main()
