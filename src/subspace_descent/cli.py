"""Command-line entry point.

Three subcommands:

``run``
    One experiment (a method/sampler/problem combination) over several
    seeded trials; prints a summary and optionally writes CSV or JSON.
``tables``
    Reproduce the coordinate-descent (2) or multilevel (3) benchmark
    table across problem sizes.
``check``
    Verify the convergence theory for a problem/decomposition pair and
    emit a JSON report.

Exit codes: 0 on success, 1 when trials failed to converge or a theory
check failed, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ExperimentSpec,
    reproduce_tables,
    run_experiment,
    summary_csv,
    summary_json,
    theory_check,
)
from .sampling import SAMPLER_KINDS
from .solvers import METHODS, DivergenceError, LocalSolveError


def _add_problem_args(p, trials_default=10):
    p.add_argument(
        "--problem", choices=("nesterov", "matrix"), default="nesterov",
        help="built-in worst-case quadratic, or a problem loaded from files",
    )
    p.add_argument("--n", type=int, help="problem dimension")
    p.add_argument("--r", type=int, help="active length of the built-in problem")
    p.add_argument(
        "--lipschitz-L", dest="lipschitz", type=float, default=2.0, metavar="L",
        help="curvature parameter of the built-in problem (default 2)",
    )
    p.add_argument("--matrix", dest="matrix_path", help="triplet matrix file")
    p.add_argument("--rhs", dest="rhs_path", help="right-hand side file")
    p.add_argument("--method", choices=METHODS, default="rfasd")
    p.add_argument("--sampler", choices=SAMPLER_KINDS, default="uniform")
    p.add_argument("--level", type=int, help="multilevel depth (n = 2**level - 1)")
    p.add_argument("--block-size", type=int, help="block size for rbcd (default 2)")
    p.add_argument("--tol", type=float, default=1e-6, help="relative gradient tolerance")
    p.add_argument("--max-iter", type=int, default=2_000_000)
    p.add_argument("--trials", type=int, default=trials_default)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--x0", default="ones",
        help="'ones' (default), 'zeros', or a file of start values",
    )


def _spec_from(args):
    return ExperimentSpec(
        problem=args.problem,
        n=args.n,
        r=args.r,
        lipschitz=args.lipschitz,
        matrix_path=args.matrix_path,
        rhs_path=args.rhs_path,
        method=args.method,
        sampler=args.sampler,
        level=args.level,
        block_size=args.block_size,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        trials=args.trials,
        seed=args.seed,
        x0=args.x0,
    )


def _cmd_run(args):
    spec = _spec_from(args)
    summary = run_experiment(spec, trace_dir=args.trace)
    print(
        f"method={summary.method} sampler={summary.sampler} "
        f"N={summary.n} J={summary.j} trials={summary.trials}"
    )
    print(
        f"mean iterations {summary.mean_iterations:.1f}  "
        f"mean epochs {summary.mean_epochs:.2f}  "
        f"converged {sum(map(bool, summary.converged))}/{summary.trials}  "
        f"({summary.seconds:.2f} s)"
    )
    if args.out:
        if args.format == "json":
            text = summary_json([summary], spec)
        else:
            text = summary_csv([summary])
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0 if summary.converged_fraction == 1.0 else 1


def _cmd_tables(args):
    sizes = None
    if args.sizes is not None:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    result = reproduce_tables(
        args.which,
        sizes=sizes,
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tol,
        include_large=args.include_large,
        max_iterations=args.max_iter,
    )
    sys.stdout.write(result.text())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.to_csv())
        print(f"wrote {args.out}")
    ok = all(s.converged_fraction == 1.0 for s in result.summaries)
    return 0 if ok else 1


def _cmd_check(args):
    spec = _spec_from(args)
    report = theory_check(
        spec,
        probe_count=args.probes,
        decay_count=args.decay_probes,
        with_rate=args.with_rate,
    )
    print(
        f"mu_A={report.mu_A:.6g} L_A={report.L_A:.6g} "
        f"mean_L_A={report.mean_L_A:.6g} C_A={report.C_A:.6g} "
        f"rate_bound={report.rate_bound:.6g}"
    )
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"check {c.name}: {status} (slack {c.slack:.3e})")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.json_str() + "\n")
        print(f"wrote {args.out}")
    return 0 if report.all_passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subspace-descent",
        description="Randomized subspace descent solvers and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment over seeded trials")
    _add_problem_args(p_run)
    p_run.add_argument("--out", help="write a summary file")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--trace", help="directory for per-trial iteration CSVs")
    p_run.set_defaults(func=_cmd_run)

    p_tab = sub.add_parser("tables", help="reproduce a benchmark table")
    p_tab.add_argument("--which", type=int, choices=(2, 3), required=True)
    p_tab.add_argument("--sizes", help="comma-separated problem sizes")
    p_tab.add_argument("--trials", type=int, default=10)
    p_tab.add_argument("--seed", type=int, default=42)
    p_tab.add_argument("--tol", type=float, default=1e-6)
    p_tab.add_argument("--max-iter", type=int, default=2_000_000)
    p_tab.add_argument(
        "--include-large", action="store_true",
        help="also run coordinate-descent sizes at or above 127",
    )
    p_tab.add_argument("--out", help="write the summary CSV here")
    p_tab.set_defaults(func=_cmd_tables)

    p_chk = sub.add_parser("check", help="verify the convergence theory")
    _add_problem_args(p_chk)
    p_chk.add_argument("--probes", type=int, default=100,
                       help="random gradients for the identity checks")
    p_chk.add_argument("--decay-probes", type=int, default=50,
                       help="random points for the expected-decay check")
    p_chk.add_argument("--with-rate", action="store_true",
                       help="also run the trials and fit the empirical rate")
    p_chk.add_argument("--out", help="write the JSON report here")
    p_chk.set_defaults(func=_cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DivergenceError, LocalSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
