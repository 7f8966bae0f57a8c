import hashlib
import importlib
import json
import os
import pkgutil
import weakref

import numpy as np
import pytest

import subspace_descent
from subspace_descent import experiments
from subspace_descent.cli import build_parser, main
from subspace_descent.experiments import (
    ExperimentSpec,
    build_problem,
    reproduce_tables,
    run_experiment,
    summary_csv,
    summary_json,
    theory_check,
)
from subspace_descent.objectives import nesterov_matrix_form, save_quadratic_problem
from subspace_descent.objectives import QuadraticObjective
from subspace_descent.solvers import run_solver

SUMMARY_HEADER = "N,J,method,sampler,mean_iter,mean_epoch,converged_frac,seconds"


def tiny_spec(**kw):
    base = dict(n=7, method="rfasd", sampler="uniform", trials=3, seed=42)
    base.update(kw)
    return ExperimentSpec(**base)


class TestRunExperiment:
    def test_deterministic_repeat(self):
        a = run_experiment(tiny_spec())
        b = run_experiment(tiny_spec())
        assert a.iterations == b.iterations
        assert a.epochs == b.epochs
        assert a.converged == b.converged

    def test_mean_is_exact_arithmetic_mean(self):
        s = run_experiment(tiny_spec(trials=5))
        assert s.mean_iterations == sum(s.iterations) / 5
        assert s.mean_epochs == sum(s.epochs) / 5

    def test_trial_seeds_are_consecutive(self):
        s = run_experiment(tiny_spec(trials=4, seed=100), keep_traces=True)
        assert [t.seed for t in s.traces] == [100, 101, 102, 103]

    def test_traces_dropped_after_their_trial(self, monkeypatch):
        # without keep_traces or trace_dir no trial's trace outlives it
        refs = []

        def spy(config, *args, **kwargs):
            assert all(ref() is None for ref in refs)
            trace = run_solver(config, *args, **kwargs)
            refs.append(weakref.ref(trace))
            return trace

        kept = run_experiment(tiny_spec(trials=3), keep_traces=True)
        monkeypatch.setattr(experiments, "run_solver", spy)
        s = run_experiment(tiny_spec(trials=3))
        assert len(refs) == 3 and s.traces is None
        assert s.iterations == [t.iteration_count for t in kept.traces]
        assert s.converged == [t.converged for t in kept.traces]

    def test_trials_with_same_seed_in_ensemble_differ(self):
        s = run_experiment(tiny_spec(trials=6))
        assert len(set(s.iterations)) > 1  # uniform sampling varies

    def test_acceptance_counts_are_pinned(self):
        # seed 42: the ml-cyclic-n8191 cell and trial 0 of ml-uniform-n1023x10
        spec = ExperimentSpec(level=13, method="rfasd", sampler="cyclic", trials=1)
        assert run_experiment(spec).iterations == [155514]
        spec = ExperimentSpec(level=10, method="rfasd", trials=1)
        (trace,) = run_experiment(spec, keep_traces=True).traces
        assert trace.iteration_count == 29736
        assert hashlib.sha256(trace.chosen.tobytes()).hexdigest() == (
            "85ce5eab49022132aa5e90cd814496f01ca0512506bdc830253529025acaf1bc"
        )

    def test_cyclic_coordinate_descent_fifteen(self):
        s = run_experiment(
            tiny_spec(n=15, method="rcd", sampler="cyclic", trials=1)
        )
        assert s.converged_fraction == 1.0
        # reference mean 6465; conventions may shift the count slightly
        assert abs(s.mean_iterations - 6465) <= 0.005 * 6465

    def test_full_space_method_reports_no_sampler(self):
        s = run_experiment(tiny_spec(method="pgd", trials=1))
        assert s.sampler == "none"
        assert s.j == 1

    def test_zero_start(self):
        s = run_experiment(tiny_spec(x0="zeros", trials=1))
        assert s.converged_fraction == 1.0

    def test_start_file(self, tmp_path):
        p = tmp_path / "x0.txt"
        np.savetxt(p, np.full(7, 0.5))
        s = run_experiment(tiny_spec(x0=str(p), trials=1))
        assert s.converged_fraction == 1.0

    def test_trace_files_written(self, tmp_path):
        run_experiment(tiny_spec(trials=2), trace_dir=str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert names == [
            "rfasd_uniform_n7_trial0.csv",
            "rfasd_uniform_n7_trial1.csv",
        ]
        head = (tmp_path / names[0]).read_text().splitlines()[0]
        assert head == "k,i_k,f,gnorm,gap"

    def test_matrix_file_problem(self, tmp_path):
        h, b = nesterov_matrix_form(7, 2.0)
        mp, rp = str(tmp_path / "m.txt"), str(tmp_path / "r.txt")
        save_quadratic_problem(QuadraticObjective(h, b), mp, rp)
        s = run_experiment(
            tiny_spec(
                n=None, problem="matrix", matrix_path=mp, rhs_path=rp, trials=2
            )
        )
        assert s.n == 7 and s.j == 11
        assert s.converged_fraction == 1.0

    def test_size_level_consistency_enforced(self):
        with pytest.raises(ValueError):
            build_problem(tiny_spec(n=10))
        with pytest.raises(ValueError):
            build_problem(tiny_spec(n=15, level=3))

    def test_builtin_hessian_shared_as_metric(self):
        # at L = 2 and r = n the Hessian is tridiag(-1, 2, -1) itself
        obj, d = build_problem(tiny_spec())
        assert d.preconditioner is obj.hessian
        obj, d = build_problem(tiny_spec(lipschitz=3.0))
        assert d.preconditioner is not obj.hessian
        diag, off = d.preconditioner.bands
        assert np.array_equal(diag, np.full(7, 2.0))
        assert np.array_equal(off, np.full(6, -1.0))


def test_package_exports_every_public_name():
    missing = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(subspace_descent.__path__)
        for name in getattr(
            importlib.import_module(f"subspace_descent.{info.name}"), "__all__", ()
        )
        if not hasattr(subspace_descent, name)
    ]
    assert missing == []


class TestSummaryFormats:
    def test_csv_layout_and_stability(self):
        s1 = run_experiment(tiny_spec())
        s2 = run_experiment(tiny_spec())
        c1 = summary_csv([s1]).splitlines()
        c2 = summary_csv([s2]).splitlines()
        assert c1[0] == SUMMARY_HEADER
        stable = lambda ln: ln.rsplit(",", 1)[0]  # noqa: E731  drop seconds
        assert stable(c1[1]) == stable(c2[1])
        fields = c1[1].split(",")
        assert fields[0] == "7" and fields[1] == "11"
        assert fields[2] == "rfasd" and fields[3] == "uniform"
        assert float(fields[6]) == 1.0

    def test_json_mirrors_and_echoes_spec(self):
        spec = tiny_spec(trials=2)
        s = run_experiment(spec)
        blob = json.loads(summary_json([s], spec))
        row = blob["summaries"][0]
        assert row["N"] == 7 and row["J"] == 11
        assert row["iterations"] == s.iterations
        assert row["mean_iter"] == s.mean_iterations
        assert blob["spec"]["method"] == "rfasd"
        assert blob["spec"]["seed"] == 42
        assert blob["spec"]["trials"] == 2


class TestReproduceTables:
    def test_multilevel_table_small_sizes(self):
        res = reproduce_tables(3, sizes=[7, 15], trials=2)
        assert [row["J"] for row in res.rows] == [11, 26]
        assert all(s.converged_fraction == 1.0 for s in res.summaries)
        text = res.text()
        assert "rfasd_uniform#it" in text and "rfasd_uniform#ep" in text
        assert "rfasd_cyclic#ep" in text

    def test_cyclic_runs_single_trial(self):
        res = reproduce_tables(3, sizes=[7], trials=3)
        by_sampler = {s.sampler: s for s in res.summaries}
        assert by_sampler["cyclic"].trials == 1
        assert by_sampler["uniform"].trials == 3

    def test_coordinate_table_skips_large_sizes(self):
        res = reproduce_tables(2, sizes=[7, 127], trials=1)
        assert [row["N"] for row in res.rows] == [7]
        assert any("127" in note for note in res.notes)
        assert "note:" in res.text()

    def test_invalid_table_number(self):
        with pytest.raises(ValueError):
            reproduce_tables(4)

    def test_invalid_multilevel_size(self):
        with pytest.raises(ValueError):
            reproduce_tables(3, sizes=[10], trials=1)


class TestTheoryCheck:
    def test_default_spec_passes(self):
        rep = theory_check(probe_count=20, decay_count=10)
        assert rep.all_passed
        assert rep.C_A == pytest.approx(1.0, abs=1e-9)

    def test_coordinate_method_unit_stability(self):
        rep = theory_check(
            tiny_spec(method="rcd", n=7), probe_count=10, decay_count=5
        )
        assert rep.C_A == pytest.approx(1.0, abs=1e-12)

    def test_with_rate_adds_check(self):
        rep = theory_check(
            tiny_spec(trials=10), probe_count=10, decay_count=5, with_rate=True
        )
        assert "empirical_rate_vs_bound" in [c.name for c in rep.checks]
        assert rep.all_passed

    def test_full_space_method_rejected(self):
        with pytest.raises(ValueError):
            theory_check(tiny_spec(method="gd"))


class TestCli:
    def test_run_writes_csv_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        code = main(
            [
                "run",
                "--n",
                "7",
                "--method",
                "rfasd",
                "--sampler",
                "uniform",
                "--trials",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == SUMMARY_HEADER
        printed = capsys.readouterr().out
        assert "mean iterations" in printed

    def test_run_json_format(self, tmp_path):
        out = tmp_path / "summary.json"
        code = main(
            ["run", "--n", "7", "--trials", "1", "--out", str(out), "--format", "json"]
        )
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["spec"]["n"] == 7

    def test_run_trace_dir(self, tmp_path):
        tdir = tmp_path / "traces"
        code = main(
            ["run", "--n", "7", "--trials", "1", "--trace", str(tdir)]
        )
        assert code == 0
        assert len(os.listdir(tdir)) == 1

    def test_run_nonconvergence_exit_one(self):
        code = main(["run", "--n", "7", "--trials", "1", "--max-iter", "3"])
        assert code == 1

    def test_bad_config_exit_two(self, capsys):
        code = main(["run", "--n", "10", "--method", "rfasd", "--trials", "1"])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_zero_trials_exit_two(self, capsys):
        code = main(["run", "--n", "7", "--trials", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: trials must be at least 1\n"

    def test_zero_block_size_exit_two(self, capsys):
        # only an absent block size means the default of 2
        code = main(["run", "--method", "rbcd", "--n", "15", "--block-size", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: block_size must be positive\n"

    def test_flat_tail_exit_two(self, capsys):
        # r < n leaves the last n - r coordinates without curvature
        code = main(["run", "--n", "7", "--r", "3", "--trials", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: r=3 < n=7: the built-in problem is flat")

    def test_divergence_exit_two(self, tmp_path, capsys):
        # Indefinite Hessian [[1, 2], [2, 1]]: gradient descent diverges.
        mp, rp = tmp_path / "m.txt", tmp_path / "r.txt"
        mp.write_text("2 3\n1 1 1.0\n1 2 2.0\n2 2 1.0\n")
        rp.write_text("1.0\n0.0\n")
        args = [
            "run", "--problem", "matrix", "--matrix", str(mp), "--rhs", str(rp),
            "--method", "gd", "--trials", "1",
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(args)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: objective")

    def test_check_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check", "--n", "7", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "check gradient_splitting_identity: PASS" in printed
        assert "check expected_decay: PASS" in printed
        blob = json.loads(out.read_text())
        assert blob["C_A"] == pytest.approx(1.0, abs=1e-9)

    def test_tables_smoke(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(
            [
                "tables",
                "--which",
                "3",
                "--sizes",
                "7",
                "--trials",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "rfasd_uniform#ep" in printed
        assert out.read_text().startswith(SUMMARY_HEADER)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "--n", "7"])
        assert args.tol == 1e-6
        assert args.trials == 10
        assert args.seed == 42
        assert args.lipschitz == 2.0
        assert args.max_iter == 2_000_000
