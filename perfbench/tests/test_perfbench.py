"""Tests of the benchmark's own code: span arithmetic, output checks and
the restoring of traced wrappers.  Run with
``python3 -m pytest perfbench/tests``."""

import json
from pathlib import Path

import pytest

import layers
from subspace_descent import experiments
from subspace_descent.analysis import TheoryCheck, TheoryReport
from subspace_descent.objectives import nesterov_worst
from tracing import NO_PARENT, Tracer, self_times
from workloads import WORKLOADS, Workload, check_theory, check_trials, run_op

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_self_time_subtracts_union_of_children():
    # 0: root [0, 10]
    #   1: child [1, 4]  with grandchild 3: [2, 3]
    #   2: child [3, 6]  overlaps child 1 on [3, 4]
    #   4: child [9, 12] runs past the root's end
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [NO_PARENT, 0, 0, 1, 0]
    got = self_times(start, end, parent)
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 6
    assert got == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_leaf_self_time_is_duration():
    assert self_times([1.0], [2.5], [NO_PARENT]) == [1.5]


def test_totals_count_calls_and_self_time():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")

    def outer():
        for _ in range(3):
            inner()

    tracer.wrap(outer, "outer")()
    totals = tracer.totals()
    assert totals["inner"][0] == 3
    calls, total, own = totals["outer"]
    assert calls == 1
    assert own == pytest.approx(total - totals["inner"][1])


def _small_run(trials=2):
    spec = experiments.ExperimentSpec(
        level=3, method="rfasd", sampler="uniform", trials=trials, seed=5
    )
    return spec, experiments.run_experiment(spec, keep_traces=True)


def test_check_trials_accepts_solver_output():
    spec, summary = _small_run()
    assert check_trials(nesterov_worst(summary.n), summary, spec.tolerance) == []


def test_perturbed_final_x_is_a_failure():
    spec, summary = _small_run()
    summary.traces[1].final_x[3] += 1e-3
    failures = check_trials(nesterov_worst(summary.n), summary, spec.tolerance)
    assert len(failures) == 1
    assert failures[0].startswith("trial 1:")


def test_unconverged_trial_is_a_failure():
    spec, summary = _small_run(trials=1)
    summary.traces[0].converged = False
    failures = check_trials(nesterov_worst(summary.n), summary, spec.tolerance)
    assert failures == ["trial 0: not converged"]


def _report(c_a, passed=True):
    return TheoryReport(
        mu_A=0.5, L_A=1.0, mean_L_A=1.0, C_A=c_a, rate_bound=0.9,
        checks=[TheoryCheck("stability_ratio", passed, 0.0 if passed else -1.0)],
    )


def test_check_theory():
    assert check_theory(_report(1.0 + 5e-15)) == []
    assert len(check_theory(_report(1.0 + 1e-6))) == 1
    assert check_theory(_report(1.0, passed=False)) == ["check stability_ratio failed"]


def _originals():
    return [
        (owner, attr, vars(owner)[attr])
        for owner, attr, *_ in layers.layer_targets(0, [])
    ]


def test_traced_run_records_spans_and_restores_wrappers():
    originals = _originals()
    workload = Workload("small", "solver", "rfasd", "uniform", 3, 2, "test")
    tracer, samplers = Tracer(), []
    with layers.traced(tracer, 11, samplers):
        result = run_op(workload, 11)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{attr} left patched"
    assert result.failures == []
    trials = [
        sid for sid, name in enumerate(tracer.names) if name == layers.RUN_SOLVER
    ]
    assert sorted(tracer.trial[sid] for sid in trials) == [0, 1]
    # Trials on pool threads hang off the span open on the main thread.
    cell = tracer.names.index("experiments.run_experiment")
    assert {tracer.parent[sid] for sid in trials} == {cell}
    assert sum(s.draw_count for s in samplers) == sum(result.record["iterations"])
    metrics = layers.layer_metrics(tracer, result.record["iterations"], 0, 0.0)
    assert metrics["experiments.build_problem_s"] > 0
    assert metrics["linalg.spd_constructs"] > 0


def test_wrappers_restored_when_operation_raises():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with layers.traced(Tracer(), 0, []):
            raise RuntimeError("operation failed")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_benchmark_json_matches_code():
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    # run.py adds the set-up peaks, the draw timing and the trace overhead.
    added = {
        "decomposition.lipschitz_peak_mb",
        "solvers.setup_peak_mb",
        "sampling.draw_ns",
        "trace.overhead_s",
    }
    metrics = layers.layer_metrics(Tracer(), [], 0, 0.0)
    assert set(metrics) | added == {m["name"] for m in BENCHMARK["per_layer"]}


def test_fingerprint_mismatch_is_a_failure():
    import run
    from workloads import OpResult

    record = {"iterations": [7], "chosen_sha256": ["a"], "final_x_sha256": ["b"]}
    changed = dict(record, final_x_sha256=["c"])
    attempts = run.Attempts()
    for rec in (record, record, changed):
        attempts.run(lambda rec=rec: OpResult(0.1, [], rec))
    assert (attempts.attempted, attempts.failed) == (3, 1)
    assert attempts.records[2]["failures"] == [
        "fingerprint differs from the run's first operation"
    ]
