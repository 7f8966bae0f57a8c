"""The benchmark's workloads, their operations and output checks.

Every operation goes through the entry points the command line uses:
``experiments.run_experiment`` for the solver workloads and
``experiments.theory_check`` for the theory workload.  They are looked
up on the module at call time, so a traced run sees its wrappers.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from subspace_descent import experiments
from subspace_descent.objectives import nesterov_worst
from subspace_descent.solvers import SolverConfig

# Slack on the gradient test: the solver stops on an incrementally
# updated gradient, the check recomputes it from final_x.
GRADIENT_SLACK = 1e-6
# The 1-D hierarchical basis is A-orthogonal for the Laplacian, so C_A = 1.
STABILITY_TOL = 1e-8
# Parts of a solver record that every operation of one seed must repeat
# exactly; theory records have none.
FINGERPRINT_KEYS = ("iterations", "chosen_sha256", "final_x_sha256")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solver" or "theory"
    method: str
    sampler: str
    level: int
    trials: int
    why: str

    def spec(self, seed):
        return experiments.ExperimentSpec(
            level=self.level,
            method=self.method,
            sampler=self.sampler,
            trials=self.trials,
            tolerance=1e-6,
            seed=seed,
        )


# Levels give N = 2**level - 1: 1023, 63, 8191 and 1023.  rcd ignores the
# level beyond N; the theory workload ignores sampler and trials.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ml-uniform-n1023x10", "solver", "rfasd", "uniform", 10, 10,
            "Table 3 cell, rfasd uniform at N = 1023 with 10 trials: the solver "
            "loop and the 2-thread trial pool do the work, setup is about 2 % of it",
        ),
        Workload(
            "cd-cyclic-n63", "solver", "rcd", "cyclic", 6, 1,
            "Table 2 cyclic cell, rcd at N = 63: 355 188 iterations of pure "
            "per-iteration overhead; the no-change control for setup, memory "
            "and pool work",
        ),
        Workload(
            "ml-cyclic-n8191", "solver", "rfasd", "cyclic", 13, 1,
            "Large-n cell, rfasd cyclic at N = 8191: setup is a third of the "
            "time and the O(n^2) dense metric window sets peak memory",
        ),
        Workload(
            "theory-n1023", "theory", "rfasd", "uniform", 10, 1,
            "theory_check at level 10 with its default 100 identity and 50 decay "
            "probes: "
            "the only workload that calls analysis and the stability constant",
        ),
    )
}


@dataclass
class OpResult:
    """Outcome of one operation: wall time, failures, fingerprint."""

    wall_s: float
    failures: list
    record: dict


def run_op(workload, seed):
    """Run one operation and check its output; exceptions propagate."""
    spec = workload.spec(seed)
    started = time.perf_counter()
    if workload.kind == "theory":
        report = experiments.theory_check(spec)
        wall = time.perf_counter() - started
        return OpResult(wall, check_theory(report), theory_record(report))
    summary = experiments.run_experiment(spec, keep_traces=True)
    wall = time.perf_counter() - started
    objective = nesterov_worst(summary.n)
    return OpResult(
        wall,
        check_trials(objective, summary, spec.tolerance),
        trial_record(objective, summary),
    )


def check_trials(objective, summary, tolerance):
    """Failures of a solver operation, one message per failed check.

    Each trial must report convergence, and the gradient recomputed at
    its final iterate must meet the tolerance against the gradient at
    the all-ones start.
    """
    g0 = float(np.linalg.norm(objective.gradient(np.ones(objective.dimension))))
    limit = tolerance * g0 * (1.0 + GRADIENT_SLACK)
    failures = []
    for t, trace in enumerate(summary.traces):
        if not trace.converged:
            failures.append(f"trial {t}: not converged")
        g = float(np.linalg.norm(objective.gradient(trace.final_x)))
        if not g <= limit:
            failures.append(f"trial {t}: |grad f(final_x)| {g:.6e} > {limit:.6e}")
    return failures


def check_theory(report):
    failures = [f"check {c.name} failed" for c in report.checks if not c.passed]
    if not abs(report.C_A - 1.0) <= STABILITY_TOL:
        failures.append(f"C_A = {report.C_A!r}, expected 1 within {STABILITY_TOL}")
    return failures


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def trial_record(objective, summary):
    """Behaviour fingerprint of a solver operation."""
    x_star = objective.minimizer()
    return {
        "iterations": [int(i) for i in summary.iterations],
        "epochs": [float(e) for e in summary.epochs],
        "chosen_sha256": [_digest(t.chosen) for t in summary.traces],
        "final_x_sha256": [_digest(t.final_x) for t in summary.traces],
        "max_abs_error": [
            float(np.max(np.abs(t.final_x - x_star))) for t in summary.traces
        ],
    }


def fingerprint(record):
    return {key: record[key] for key in FINGERPRINT_KEYS if key in record}


def theory_record(report):
    return {
        "C_A": report.C_A,
        "mu_A": report.mu_A,
        "L_A": report.L_A,
        "checks": {c.name: float(c.slack) for c in report.checks},
    }


def setup_op(workload, seed):
    """Set-up cost alone: ``build_problem`` plus one solver setup.

    The solver setup is a ``run_solver`` call with ``max_iterations=0``
    for trial 0's configuration.  The theory workload builds only.
    """
    spec = workload.spec(seed)
    objective, decomposition = experiments.build_problem(spec)
    if workload.kind == "solver":
        config = SolverConfig(
            method=spec.method,
            sampler=spec.sampler,
            tolerance=spec.tolerance,
            max_iterations=0,
            seed=spec.seed,
        )
        experiments.run_solver(config, objective, decomposition)
    return objective, decomposition
