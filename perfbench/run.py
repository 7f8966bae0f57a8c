"""Benchmark of the subspace-descent solver family.

Run one workload::

    python3 perfbench/run.py --workload cd-cyclic-n63 --seed 42 --seconds 30 --trace 0

or, without ``--workload``, every workload untraced and then traced,
each in a fresh process so that peak RSS is the workload's own::

    python3 perfbench/run.py

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object.  Each run
also writes its fingerprints, failures and environment to
``perfbench/out/<workload>.trace<0|1>.json`` and, when traced, its spans
to ``perfbench/out/<workload>.spans.csv.gz``.  The package is imported
from ``src/`` next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PACKAGE_DIR = ROOT / "src" / "subspace_descent"

# The package must come from this checkout's src/, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))
try:
    import subspace_descent
except ImportError as exc:
    sys.exit(f"run.py: cannot import subspace_descent from {ROOT / 'src'}: {exc}")
if Path(subspace_descent.__file__).resolve().parent != PACKAGE_DIR:
    sys.exit(f"run.py: imported {subspace_descent.__file__}, not {PACKAGE_DIR}")

import numpy  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer, write_spans  # noqa: E402
from workloads import WORKLOADS, fingerprint, run_op, setup_op  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Set-up is repeated until both limits are reached, then its median taken.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.5
SETUP_MAX_REPS = 500
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SUBSPACE_DESCENT_THREADS")


class Attempts:
    """Operations attempted and failed; a failure never aborts the run.

    An operation also fails if its fingerprint differs from that of the
    run's first operation that did not raise: every operation of a run
    has the same seed, traced or not, so it must repeat the behaviour
    exactly.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.records = []
        self.fingerprint = None

    def run(self, op, *args):
        """Run ``op(*args)``; return ``(wall_s, OpResult or None)``."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = op(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.records.append({"error": traceback.format_exc(limit=3)})
            return time.perf_counter() - started, None
        failures = list(result.failures)
        if self.fingerprint is None:
            self.fingerprint = fingerprint(result.record)
        elif fingerprint(result.record) != self.fingerprint:
            failures.append("fingerprint differs from the run's first operation")
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED: {failure}", file=sys.stderr)
        self.records.append(
            {"wall_s": result.wall_s, "failures": failures, **result.record}
        )
        return result.wall_s, result


def timed_setups(workload, seed):
    times = []
    started = time.perf_counter()
    while len(times) < SETUP_MAX_REPS and (
        len(times) < SETUP_MIN_REPS
        or time.perf_counter() - started < SETUP_MIN_SECONDS
    ):
        t0 = time.perf_counter()
        setup_op(workload, seed)
        times.append(time.perf_counter() - t0)
    return times


def time_left(started, seconds, walls):
    """Whether one more operation, as long as the median so far, fits."""
    if not walls:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def measure_end_to_end(workload, seed, seconds, attempts):
    setups = timed_setups(workload, seed)
    walls = []
    started = time.perf_counter()
    while time_left(started, seconds, walls):
        walls.append(attempts.run(run_op, workload, seed)[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "passed_frac": (attempts.attempted - attempts.failed) / attempts.attempted,
    }
    return metrics, {"walls": walls, "setups": setups}


def measure_layers(workload, seed, seconds, attempts):
    """Untraced and traced operations in turn, then the per-layer medians."""
    setup_tracer = Tracer()
    with layers.traced(setup_tracer, seed, []):
        setup_op(workload, seed)
    setup_s = setup_tracer.totals().get(layers.RUN_SOLVER, (0, 0.0))[1]
    peaks = layers.setup_peaks(workload, seed)

    untraced, traced, per_op, tracers, samplers = [], [], [], [], []
    started = time.perf_counter()
    while time_left(started, seconds, [u + t for u, t in zip(untraced, traced)]):
        untraced.append(attempts.run(run_op, workload, seed)[0])
        tracer, op_samplers = Tracer(), []
        with layers.traced(tracer, seed, op_samplers):
            wall, result = attempts.run(run_op, workload, seed)
        traced.append(wall)
        tracers.append(tracer)
        samplers = op_samplers
        record = result.record if result is not None else {}
        per_op.append(
            layers.layer_metrics(
                tracer,
                record.get("iterations", []),
                sum(s.draw_count for s in op_samplers),
                setup_s,
            )
        )

    metrics = {
        name: statistics.median(op[name] for op in per_op) for name in per_op[0]
    }
    metrics.update(peaks)
    draws = int(metrics["sampling.draws"])
    metrics["sampling.draw_ns"] = (
        layers.draw_ns(samplers[0].kind, samplers[0].size, seed, draws)
        if draws
        else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"{workload.name}.spans.csv.gz", workload.name, tracers)
    span_totals = {
        name: {"calls": c, "total_s": t, "self_s": s}
        for name, (c, t, s) in tracers[-1].totals().items()
    }
    return metrics, {"untraced": untraced, "traced": traced, "spans": span_totals}


def environment():
    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "env": {name: os.environ.get(name) for name in ENV_VARS},
    }


def run_workload(args):
    workload = WORKLOADS[args.workload]
    attempts = Attempts()
    if args.trace:
        values, timings = measure_layers(workload, args.seed, args.seconds, attempts)
    else:
        values, timings = measure_end_to_end(workload, args.seed, args.seconds, attempts)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]
    }
    for name, m in metrics.items():
        print(f"{workload.name} {name} {m['value']:.6g} {m['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "interactions": layers.INTERACTIONS,
        "failed_frac": attempts.failed / attempts.attempted,
        "metrics": metrics,
        "timings": timings,
        "operations": attempts.records,
    }
    path = OUT_DIR / f"{workload.name}.trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": attempts.failed == 0,
                "attempted": attempts.attempted,
                "failed": attempts.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args):
    """Every workload in its own process; prints a metric table."""
    traces = [args.trace] if args.trace is not None else [0, 1]
    results = {}
    status = 0
    for name in WORKLOADS:
        for trace in traces:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            results.setdefault(name, {})[f"trace{trace}"] = result
            status |= 0 if result["correct"] else 1
            for metric, m in result["metrics"].items():
                print(f"{name:20s} {metric:34s} {m['value']:14.6g} {m['unit']}")
            print(f"{name:20s} {'failed_frac':34s} "
                  f"{result['failed'] / result['attempted']:14.6g} frac")
    OUT_DIR.mkdir(exist_ok=True)
    summary = {
        "seed": args.seed,
        "environment": environment(),
        "why": {name: w.why for name, w in WORKLOADS.items()},
        "interactions": layers.INTERACTIONS,
        "results": results,
    }
    (OUT_DIR / "results.json").write_text(json.dumps(summary, indent=1) + "\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=list(WORKLOADS), help="one workload; default: all"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.trace is None:
        args.trace = 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
