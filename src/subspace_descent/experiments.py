"""Multi-trial benchmark harness.

Builds (objective, decomposition) pairs from a declarative spec, runs
seeded trials one after another, and aggregates iteration counts into
summaries, benchmark tables, and theory reports.

Trial ``t`` of an experiment always uses seed ``spec.seed + t``, so any
single trial can be reproduced in isolation.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .decomposition import (
    block_decomposition,
    coordinate_decomposition,
    multilevel_nodal_decomposition,
    rcd_column_lipschitz,
    with_local_lipschitz,
    with_quadratic_lipschitz,
)
from .linalg import SpdOperator
from .objectives import load_quadratic_problem, nesterov_worst
from .analysis import theory_report
from .solvers import METHODS, SolverConfig, run_solver

__all__ = [
    "ExperimentSpec",
    "TrialSummary",
    "TableResult",
    "build_problem",
    "run_experiment",
    "summary_csv",
    "summary_json",
    "reproduce_tables",
    "theory_check",
]

SUMMARY_HEADER = "N,J,method,sampler,mean_iter,mean_epoch,converged_frac,seconds"

# Coordinate-descent benchmarks beyond this size take minutes per trial
# and are skipped unless explicitly requested.
LARGE_CD_SIZE = 127


@dataclass
class ExperimentSpec:
    """Declarative description of one benchmark experiment."""

    problem: str = "nesterov"  # "nesterov" or "matrix"
    n: int | None = None
    r: int | None = None
    lipschitz: float = 2.0
    matrix_path: str | None = None
    rhs_path: str | None = None
    method: str = "rfasd"
    sampler: str = "uniform"
    level: int | None = None
    block_size: int | None = None
    tolerance: float = 1e-6
    max_iterations: int = 2_000_000
    trials: int = 10
    seed: int = 42
    x0: str = "ones"


@dataclass
class TrialSummary:
    """Aggregated outcome of the trials of one experiment."""

    n: int
    j: int
    method: str
    sampler: str
    iterations: list
    epochs: list
    converged: list
    seconds: float
    seed: int
    traces: list = field(default=None, repr=False)

    @property
    def trials(self):
        return len(self.iterations)

    @property
    def mean_iterations(self):
        return float(np.mean(self.iterations))

    @property
    def mean_epochs(self):
        return float(np.mean(self.epochs))

    @property
    def converged_fraction(self):
        return float(np.mean([1.0 if c else 0.0 for c in self.converged]))


def _infer_level(n):
    level = int(round(np.log2(n + 1)))
    if 2**level - 1 != n:
        raise ValueError(
            f"multilevel decompositions need n = 2**level - 1; n={n} is not"
        )
    return level


def build_problem(spec):
    """Materialize (objective, decomposition) from a spec.

    The decomposition is None for the full-space methods.  Coordinate
    and block methods run in the identity metric with quadratic local
    Lipschitz constants (column norms for coordinates, per the classic
    benchmark protocol); the multilevel methods use the second-
    difference operator as metric for the built-in benchmark problem
    and the Hessian itself for file-loaded problems, or when it is that
    operator (L = 2, r = n), which saves a factorization and a pass.
    """
    method = spec.method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {spec.method!r}; choose from {METHODS}")

    if spec.problem == "nesterov":
        if spec.n is None and spec.level is None:
            raise ValueError("give n or level for the built-in benchmark problem")
        n = spec.n if spec.n is not None else 2**spec.level - 1
        objective = nesterov_worst(n, r=spec.r, lipschitz=spec.lipschitz)
        if spec.r not in (None, n) and method not in ("gd", "pgd"):
            raise ValueError(
                f"r={spec.r} < n={n}: the built-in problem is flat in its last "
                f"n - r coordinates, where {method} has zero local curvature; use r = n"
            )
    elif spec.problem == "matrix":
        if not spec.matrix_path or not spec.rhs_path:
            raise ValueError("matrix problems need matrix_path and rhs_path")
        objective = load_quadratic_problem(spec.matrix_path, spec.rhs_path)
        n = objective.dimension
    else:
        raise ValueError(f"unknown problem {spec.problem!r}")

    hess = objective.hessian_matrix
    if method in ("gd", "pgd"):
        return objective, None
    if method == "rcd":
        d = coordinate_decomposition(n)
        return objective, with_local_lipschitz(d, rcd_column_lipschitz(hess))
    if method == "rbcd":
        size = 2 if spec.block_size is None else spec.block_size
        if size < 1:
            raise ValueError("block_size must be positive")
        partition = [range(a, min(a + size, n)) for a in range(0, n, size)]
        d = block_decomposition(partition, SpdOperator.identity(n))
        return objective, with_quadratic_lipschitz(d, hess)
    # rfasd / rfas
    level = spec.level if spec.level is not None else _infer_level(n)
    if 2**level - 1 != n:
        raise ValueError(f"level {level} implies n = {2**level - 1}, got n = {n}")
    metric = objective.hessian
    shared = spec.lipschitz == 2.0 and spec.r in (None, n)
    if spec.problem == "nesterov" and not shared:
        metric = None  # the default tridiag(-1, 2, -1)
    elif metric is None:
        raise ValueError("multilevel methods on file problems need an SPD Hessian")
    d = multilevel_nodal_decomposition(level, metric)
    return objective, with_quadratic_lipschitz(d, hess)


def _start_point(spec, n):
    if spec.x0 == "ones":
        return None
    if spec.x0 == "zeros":
        return np.zeros(n)
    x = np.loadtxt(spec.x0, dtype=np.float64).reshape(-1)
    if x.size != n:
        raise ValueError(f"{spec.x0}: expected {n} start values, found {x.size}")
    return x


def run_experiment(spec, trace_dir=None, keep_traces=False):
    """Run all trials of an experiment and aggregate the outcome.

    Trial t uses seed ``spec.seed + t``.  With ``trace_dir`` set, each
    trial writes a per-iteration CSV there; ``keep_traces`` attaches the
    RunTrace objects to the returned summary.  With neither, a trace is
    dropped once its trial ends.  Trials run serially; ``seconds`` is
    their total wall time.
    """
    if spec.trials < 1:
        raise ValueError("trials must be at least 1")
    objective, decomposition = build_problem(spec)
    n = objective.dimension
    j = len(decomposition) if decomposition is not None else 1
    x0 = _start_point(spec, n)
    semidefinite_ok = objective.is_quadratic and objective.hessian is None

    started = time.perf_counter()
    outcomes, traces = [], []
    for t in range(spec.trials):
        config = SolverConfig(
            method=spec.method.lower(),
            sampler=spec.sampler,
            tolerance=spec.tolerance,
            max_iterations=spec.max_iterations,
            seed=spec.seed + t,
        )
        trace = run_solver(
            config, objective, decomposition, x0=x0, allow_semidefinite=semidefinite_ok
        )
        outcomes.append((trace.iteration_count, trace.epoch_count, trace.converged))
        if keep_traces or trace_dir is not None:
            traces.append(trace)
        del trace  # otherwise it lives on through the next trial
    seconds = time.perf_counter() - started

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        for t, trace in enumerate(traces):
            name = f"{spec.method.lower()}_{spec.sampler}_n{n}_trial{t}.csv"
            trace.write_csv(os.path.join(trace_dir, name))

    return TrialSummary(
        n=n,
        j=j,
        method=spec.method.lower(),
        sampler=spec.sampler if spec.method.lower() not in ("gd", "pgd") else "none",
        iterations=[o[0] for o in outcomes],
        epochs=[o[1] for o in outcomes],
        converged=[o[2] for o in outcomes],
        seconds=seconds,
        seed=spec.seed,
        traces=traces if keep_traces else None,
    )


def summary_csv(summaries):
    """Render summaries as CSV (stable except for the seconds column)."""
    lines = [SUMMARY_HEADER]
    for s in summaries:
        lines.append(
            f"{s.n},{s.j},{s.method},{s.sampler},{s.mean_iterations!r},"
            f"{s.mean_epochs!r},{s.converged_fraction!r},{s.seconds:.3f}"
        )
    return "\n".join(lines) + "\n"


def summary_json(summaries, spec=None):
    """Render summaries (plus the generating spec) as a JSON string."""
    payload = {
        "summaries": [
            {
                "N": s.n,
                "J": s.j,
                "method": s.method,
                "sampler": s.sampler,
                "iterations": list(map(int, s.iterations)),
                "epochs": list(map(float, s.epochs)),
                "converged": list(map(bool, s.converged)),
                "mean_iter": s.mean_iterations,
                "mean_epoch": s.mean_epochs,
                "converged_frac": s.converged_fraction,
                "seconds": s.seconds,
                "seed": s.seed,
                "trials": s.trials,
            }
            for s in summaries
        ]
    }
    if spec is not None:
        payload["spec"] = asdict(spec)
    return json.dumps(payload, indent=2)


@dataclass
class TableResult:
    """A reproduced benchmark table plus its raw summaries."""

    which: int
    labels: list
    rows: list
    summaries: list
    notes: list

    def text(self):
        head = ["N", "J"]
        for lab in self.labels:
            head += [f"{lab}#it", f"{lab}#ep"]
        widths = [max(len(h), 8) for h in head]
        out = ["  ".join(h.rjust(w) for h, w in zip(head, widths))]
        for row in self.rows:
            cells = [str(row["N"]), str(row["J"])]
            for lab in self.labels:
                it, ep = row.get(lab, (None, None))
                cells.append("-" if it is None else f"{it:.1f}")
                cells.append("-" if ep is None else f"{ep:.2f}")
            out.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out) + "\n"

    def to_csv(self):
        return summary_csv(self.summaries)


_TABLE2_COLUMNS = [("rcd", "uniform"), ("rcd", "permutation"), ("rcd", "cyclic")]
_TABLE3_COLUMNS = [("rfasd", "uniform"), ("rfasd", "permutation"), ("rfasd", "cyclic")]


def reproduce_tables(
    which,
    sizes=None,
    trials=10,
    seed=42,
    tolerance=1e-6,
    include_large=False,
    max_iterations=2_000_000,
):
    """Reproduce a benchmark table on the built-in worst-case quadratic.

    Table 2 runs coordinate descent (uniform, per-epoch permutation,
    and the deterministic cyclic sweep) and reports mean iteration
    counts; its cost grows quadratically, so sizes at or above 127 are
    skipped unless ``include_large`` is set.  Table 3 runs multilevel
    subspace descent with the same three samplers and reports mean
    epoch counts (iterations divided by the number of subspaces).
    Deterministic cyclic columns run a single trial.
    """
    if which == 2:
        sizes = list(sizes) if sizes else [7, 15, 31, 63]
        columns = _TABLE2_COLUMNS
    elif which == 3:
        sizes = list(sizes) if sizes else [7, 15, 31, 63, 127, 255, 511, 1023, 2047, 4095]
        columns = _TABLE3_COLUMNS
    else:
        raise ValueError("table number must be 2 or 3")

    rows = []
    summaries = []
    notes = []
    labels = [f"{m}_{s}" for m, s in columns]
    for n in sizes:
        if which == 3:
            _infer_level(n)  # validates the size
        if which == 2 and n >= LARGE_CD_SIZE and not include_large:
            notes.append(
                f"N={n} skipped (coordinate descent needs ~{n}^2 epochs); "
                "pass include_large to run it"
            )
            continue
        row = {"N": n, "J": None}
        for (method, sampler), label in zip(columns, labels):
            spec = ExperimentSpec(
                n=n,
                method=method,
                sampler=sampler,
                trials=1 if sampler == "cyclic" else trials,
                seed=seed,
                tolerance=tolerance,
                max_iterations=max_iterations,
            )
            summary = run_experiment(spec)
            summaries.append(summary)
            row["J"] = summary.j
            row[label] = (summary.mean_iterations, summary.mean_epochs)
        rows.append(row)
    return TableResult(
        which=which, labels=labels, rows=rows, summaries=summaries, notes=notes
    )


def theory_check(spec=None, probe_count=100, decay_count=50, with_rate=False):
    """Build the configured problem and verify the convergence theory.

    Needs a subspace method (something with a decomposition).  With
    ``with_rate`` the configured trials are actually run and the fitted
    empirical rate is compared against the theoretical bound.
    """
    spec = spec or ExperimentSpec(level=3)
    objective, decomposition = build_problem(spec)
    if decomposition is None:
        raise ValueError("theory checks need a method with a decomposition")
    traces = None
    if with_rate:
        traces = run_experiment(spec, keep_traces=True).traces
    return theory_report(
        objective,
        decomposition,
        probe_count=probe_count,
        decay_count=decay_count,
        seed=spec.seed,
        traces=traces,
    )
