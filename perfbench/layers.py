"""Per-layer metrics from the spans of a traced operation.

The layers are the package modules.  :func:`layer_targets` lists the
public functions that get a span, each at the name its callers look it
up by; :func:`layer_metrics` turns one operation's spans into the
per-layer metrics.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

from subspace_descent import (
    analysis,
    decomposition,
    experiments,
    linalg,
    objectives,
    sampling,
    solvers,
)

from tracing import patched
from workloads import setup_op

# Which end-to-end metric each layer metric should move, and where.
INTERACTIONS = {
    "decomposition.build_s, decomposition.lipschitz_s, "
    "decomposition.lipschitz_peak_mb, linalg.spd_constructs, "
    "solvers.setup_s, solvers.setup_peak_mb": (
        "move setup_s, peak_rss_mb and wall_s on ml-cyclic-n8191; "
        "no change predicted on cd-cyclic-n63"
    ),
    "solvers.us_per_iter, sampling.draws": (
        "move wall_s on cd-cyclic-n63 and ml-uniform-n1023x10; the O(n) "
        "norm share shows only on ml-cyclic-n8191; no effect on theory-n1023"
    ),
    "sampling.draw_ns": (
        "uniform draws on ml-uniform-n1023x10, cyclic draws on "
        "cd-cyclic-n63 and ml-cyclic-n8191"
    ),
    "experiments.build_problem_s, experiments.pool_workers, "
    "experiments.pool_busy_frac, experiments.queue_wait_s, solvers.trial_s": (
        "move wall_s on ml-uniform-n1023x10 only; the other workloads "
        "run one trial"
    ),
    "analysis.metric_constants_s, analysis.identity_probe_ms, "
    "analysis.decay_probe_ms, analysis.report_s, decomposition.stability_s, "
    "linalg.solve_calls, linalg.solve_s, objectives.value_calls, "
    "objectives.value_s": "move wall_s on theory-n1023; nothing else calls them",
    "trace.overhead_s": "traced wall_s minus untraced wall_s, per workload",
}

RUN_SOLVER = "solvers.run_solver"
BUILD_PROBLEM = "experiments.build_problem"


def layer_targets(base_seed, samplers):
    """``(owner, attr, span name, trial_of, on_result)`` for each wrapper.

    ``trial_of`` maps a ``run_solver`` call to its trial index; samplers
    made by the solver are collected in ``samplers``.
    """
    return [
        (experiments, "run_experiment", "experiments.run_experiment", None, None),
        (experiments, "theory_check", "experiments.theory_check", None, None),
        (experiments, "build_problem", BUILD_PROBLEM, None, None),
        (experiments, "multilevel_nodal_decomposition", "decomposition.build", None, None),
        (experiments, "coordinate_decomposition", "decomposition.build", None, None),
        (experiments, "with_quadratic_lipschitz", "decomposition.lipschitz", None, None),
        (experiments, "with_local_lipschitz", "decomposition.lipschitz", None, None),
        (experiments, "rcd_column_lipschitz", "decomposition.lipschitz", None, None),
        (experiments, "run_solver", RUN_SOLVER, lambda a: a[0].seed - base_seed, None),
        (experiments, "theory_report", "analysis.report", None, None),
        (analysis, "quadratic_metric_constants", "analysis.metric_constants", None, None),
        (analysis, "decomposition_identity_check", "analysis.identity_probe", None, None),
        (analysis, "expected_decay_check", "analysis.decay_probe", None, None),
        (decomposition, "stability_constant", "decomposition.stability", None, None),
        (solvers, "make_sampler", "sampling.make_sampler", None, samplers.append),
        (linalg.SpdOperator, "__init__", "linalg.spd_construct", None, None),
        (linalg.SpdOperator, "solve", "linalg.solve", None, None),
        (objectives.QuadraticObjective, "value", "objectives.value", None, None),
        (objectives.NesterovWorstObjective, "value", "objectives.value", None, None),
    ]


def traced(tracer, base_seed, samplers):
    """Context manager that routes every layer call through ``tracer``."""
    return patched(
        (owner, attr, tracer.wrap(vars(owner)[attr], name, trial_of, on_result))
        for owner, attr, name, trial_of, on_result in layer_targets(
            base_seed, samplers
        )
    )


def setup_peaks(workload, seed):
    """tracemalloc peaks (MB) of the Lipschitz pass and the solver setup."""
    peaks = {"decomposition.lipschitz_peak_mb": 0.0, "solvers.setup_peak_mb": 0.0}

    def measured(attr, key):
        fn = vars(experiments)[attr]

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[key] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

        return (experiments, attr, wrapper)

    with patched(
        [
            measured("with_quadratic_lipschitz", "decomposition.lipschitz_peak_mb"),
            measured("with_local_lipschitz", "decomposition.lipschitz_peak_mb"),
            measured("run_solver", "solvers.setup_peak_mb"),
        ]
    ):
        setup_op(workload, seed)
    return peaks


def draw_ns(kind, size, seed, draws):
    """Nanoseconds per draw of a fresh sampler, outside any solver."""
    next_index = sampling.make_sampler(kind, size=size, seed=seed).next_index
    started = time.perf_counter()
    for _ in range(draws):
        next_index()
    return (time.perf_counter() - started) / draws * 1e9


def layer_metrics(tracer, iterations, draws, setup_s):
    """Per-layer metrics of one traced operation.

    ``iterations`` is per trial, ``draws`` is the number
    of sampler draws the operation made and ``setup_s`` the traced
    ``run_solver(..., max_iterations=0)`` time.  Layers the operation
    never called read 0.
    """
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def mean_ms(name):
        return 1e3 * seconds(name) / calls(name) if calls(name) else 0.0

    trials = [sid for sid, name in enumerate(tracer.names) if name == RUN_SOLVER]
    starts = [tracer.start[sid] for sid in trials]
    ends = [tracer.end[sid] for sid in trials]
    busy = sum(e - s for s, e in zip(starts, ends))
    workers = len({tracer.thread[sid] for sid in trials})
    pool_busy = queue_wait = us_per_iter = 0.0
    if trials:
        phase = max(ends) - min(starts)
        pool_busy = busy / (workers * phase) if phase > 0 else 1.0
        # Trials can start once build_problem has returned.
        built = [
            tracer.end[sid]
            for sid, name in enumerate(tracer.names)
            if name == BUILD_PROBLEM
        ]
        ready = min(built) if built else min(starts)
        queue_wait = statistics.fmean(s - ready for s in starts)
        us_per_iter = 1e6 * (busy - len(trials) * setup_s) / max(sum(iterations), 1)
    return {
        "decomposition.build_s": seconds("decomposition.build"),
        "decomposition.lipschitz_s": seconds("decomposition.lipschitz"),
        "linalg.spd_constructs": calls("linalg.spd_construct"),
        "solvers.setup_s": setup_s,
        "solvers.us_per_iter": us_per_iter,
        "solvers.trial_s": busy / len(trials) if trials else 0.0,
        "sampling.draws": draws,
        "experiments.build_problem_s": seconds(BUILD_PROBLEM),
        "experiments.pool_workers": workers,
        "experiments.pool_busy_frac": pool_busy,
        "experiments.queue_wait_s": queue_wait,
        "analysis.metric_constants_s": seconds("analysis.metric_constants"),
        "analysis.identity_probe_ms": mean_ms("analysis.identity_probe"),
        "analysis.decay_probe_ms": mean_ms("analysis.decay_probe"),
        "analysis.report_s": seconds("analysis.report"),
        "decomposition.stability_s": seconds("decomposition.stability"),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_s": seconds("linalg.solve"),
        "objectives.value_calls": calls("objectives.value"),
        "objectives.value_s": seconds("objectives.value"),
    }
