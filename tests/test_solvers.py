import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from packing import mixed_family
from subspace_descent.decomposition import (
    Decomposition,
    block_decomposition,
    coordinate_decomposition,
    multilevel_nodal_decomposition,
    with_local_lipschitz,
    with_quadratic_lipschitz,
)
from subspace_descent.experiments import ExperimentSpec, build_problem, theory_check
from subspace_descent.linalg import DimensionMismatchError, NotSpdError, SpdOperator
from subspace_descent import sampling, solvers
from subspace_descent.objectives import (
    QuadraticObjective,
    nesterov_matrix_form,
    nesterov_worst,
    quadratic_minimizer,
)
from subspace_descent.solvers import (
    METHODS,
    DivergenceError,
    LocalSolveError,
    QuadraticEnergyLocal,
    SolverConfig,
    fas_search_direction,
    rfasd_step,
    run_solver,
    solve_local_stationarity,
    subspace_search_direction,
)


def bisect_root(fn, lo, hi, steps=200):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class QuarticLocal:
    """f(w) = w^4/4 + a w^2/2 on one local coordinate."""

    dimension = 1

    def __init__(self, curvature=1.0):
        self.a = curvature

    def value(self, w):
        return float(0.25 * w[0] ** 4 + 0.5 * self.a * w[0] ** 2)

    def gradient(self, w):
        return np.array([w[0] ** 3 + self.a * w[0]])

    def hessian(self, w):
        return np.array([[3.0 * w[0] ** 2 + self.a]])


class StubbornLocal:
    """Gradient never reaches any target: constant, so Newton stalls."""

    dimension = 1

    def gradient(self, w):
        return np.array([1.0])

    def hessian(self, w):
        return np.array([[1.0]])


class TestSearchDirection:
    def test_orthogonal_gradient_gives_zero(self):
        d = multilevel_nodal_decomposition(3)
        g = np.zeros(7)  # subspace 0 is supported on index 0 only
        g[3] = 2.5
        assert np.array_equal(subspace_search_direction(g, d, 0), np.zeros(7))

    def test_coordinate_reduction(self):
        d = coordinate_decomposition(4)
        rng = np.random.default_rng(0)
        g = rng.standard_normal(4)
        for j in range(4):
            expect = np.zeros(4)
            expect[j] = -g[j]
            assert_allclose(subspace_search_direction(g, d, j), expect, rtol=0)

    def test_full_space_newton(self):
        obj = nesterov_worst(5)
        d = block_decomposition([list(range(5))], obj.hessian)
        x = np.ones(5)
        s = subspace_search_direction(obj.gradient(x), d, 0)
        assert_allclose(
            x + s,
            quadratic_minimizer(QuadraticObjective(obj.hessian, obj.rhs)),
            rtol=1e-12,
        )


class TestRfasdStep:
    def test_zero_gradient_fixed_point(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        xstar = obj.minimizer()
        for i in range(len(d)):
            assert_allclose(rfasd_step(xstar, d, i, obj), xstar, atol=1e-14)

    def test_strict_decrease_when_active(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(7)
            g_loc = d.restrict(obj.gradient(x))
            for i in range(len(d)):
                if np.linalg.norm(g_loc[d.slots[i] : d.slots[i + 1]]) < 1e-12:
                    continue
                assert obj.value(rfasd_step(x, d, i, obj)) < obj.value(x)

    def test_full_space_single_step(self):
        obj = nesterov_worst(7)
        d = block_decomposition([list(range(7))], obj.hessian)
        x1 = rfasd_step(np.ones(7), d, 0, obj)
        assert np.linalg.norm(obj.gradient(x1)) <= 1e-10


class TestFasDirection:
    def test_quadratic_local_matches_plain_direction(self):
        d = multilevel_nodal_decomposition(3)
        obj = nesterov_worst(7)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(7)
        for i in range(len(d)):
            loc = QuadraticEnergyLocal(d, i)
            fas = fas_search_direction(x, d, i, loc, obj)
            plain = subspace_search_direction(obj.gradient(x), d, i)
            assert np.array_equal(fas, plain)

    def test_quadratic_local_with_projection_cancels(self):
        # for the quadratic energy the tau correction removes the
        # projection analytically; any q gives the same direction
        d = multilevel_nodal_decomposition(3)
        obj = nesterov_worst(7)
        x = np.linspace(-1, 1, 7)
        support, basis = d.basis(8)
        loc = QuadraticEnergyLocal(d, 8)
        base = subspace_search_direction(obj.gradient(x), d, 8)
        got = fas_search_direction(
            x, d, 8, loc, obj, projection=lambda v: basis.T @ v[support]
        )
        assert_allclose(got, base, rtol=1e-12, atol=1e-14)

    def test_critical_point_gives_zero(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        xstar = obj.minimizer()
        for i in range(len(d)):
            loc = QuarticLocal()  # q = 0 is its unique critical point
            got = fas_search_direction(xstar, d, i, loc, obj)
            assert np.linalg.norm(got) <= 1e-10

    def test_quartic_newton_vs_bisection(self):
        # eta solves eta^3 + eta = 3
        loc = QuarticLocal()
        eta = solve_local_stationarity(loc, np.array([3.0]), np.zeros(1))
        oracle = bisect_root(lambda t: t**3 + t - 3.0, 0.0, 2.0)
        assert_allclose(eta[0], oracle, atol=1e-10)
        assert abs(eta[0] ** 3 + eta[0] - 3.0) <= 1e-10

    def test_newton_budget_error(self):
        with pytest.raises(LocalSolveError):
            solve_local_stationarity(StubbornLocal(), np.array([2.0]), np.zeros(1))


class TestRunSolver:
    def test_start_at_minimizer(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        tr = run_solver(
            SolverConfig(method="rfasd"), obj, d, x0=obj.minimizer()
        )
        assert tr.converged
        assert tr.iteration_count == 0
        assert tr.objective_values.size == 1

    def test_cyclic_coordinate_descent_count(self):
        from subspace_descent.decomposition import rcd_column_lipschitz

        obj = nesterov_worst(7)
        d = with_local_lipschitz(
            coordinate_decomposition(7, SpdOperator.identity(7)),
            rcd_column_lipschitz(obj.hessian),
        )
        tr = run_solver(SolverConfig(method="rcd", sampler="cyclic"), obj, d)
        assert tr.converged
        assert tr.iteration_count == 817
        # reference count 819; ordering conventions shift it slightly
        assert abs(tr.iteration_count - 819) <= 0.005 * 819

    def test_cyclic_fasd_epoch_band(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        tr = run_solver(SolverConfig(method="rfasd", sampler="cyclic"), obj, d)
        assert tr.converged
        assert tr.iteration_count == 67
        assert 5.5 <= tr.epoch_count <= 7.5

    def test_monotone_decay_realized_steps(self):
        obj = nesterov_worst(15)
        d = multilevel_nodal_decomposition(4)
        for sampler in ("uniform", "proportional", "permutation"):
            tr = run_solver(
                SolverConfig(method="rfasd", sampler=sampler, seed=3), obj, d
            )
            assert np.all(np.diff(tr.objective_values) <= 1e-14)

    def test_rbcd_touches_only_chosen_block(self):
        obj = nesterov_worst(6, 6, 2.0)
        d = block_decomposition(
            [[0, 1], [2, 3], [4, 5]], SpdOperator.identity(6)
        )
        from subspace_descent.decomposition import with_quadratic_lipschitz

        d = with_quadratic_lipschitz(d, obj.hessian)
        cfg = SolverConfig(method="rbcd", sampler="uniform", seed=1, max_iterations=40)
        tr = run_solver(cfg, obj, d)
        # replay: every update only moves coordinates of the chosen block
        x = np.ones(6)
        for k, i in enumerate(tr.chosen):
            x_next = rfasd_step(x, d, int(i), obj)
            off = np.setdiff1d(np.arange(6), d.basis(int(i))[0])
            assert np.array_equal(x_next[off], x[off])
            x = x_next

    @pytest.mark.parametrize(
        "hessian, method",
        [
            pytest.param(h, m, id=h if m == "rfasd" else f"{h}-{m}")
            for m in ("rfasd", "rbcd3", "rfas")
            for h in ("banded", "dense")
        ],
    )
    def test_replay_mixed_decomposition(self, hessian, method):
        # hats, k = 2 bases and a non-contiguous subspace in one family;
        # 3-blocks; or the family with one non-canonical rfas local
        if hessian == "banded":
            obj = nesterov_worst(7)
        else:
            m = np.random.default_rng(8).standard_normal((7, 7))
            h = SpdOperator.from_dense(m @ m.T + 7.0 * np.eye(7))
            obj = QuadraticObjective(h, np.arange(7.0))
        assert obj.hessian.is_banded == (hessian == "banded")
        if method == "rbcd3":
            d = block_decomposition([[0, 1, 2], [3, 4, 5], [6]], SpdOperator.identity(7))
        else:
            d = mixed_family()
        d = with_quadratic_lipschitz(d, obj.hessian)
        locals_ = [QuadraticEnergyLocal(d, i) for i in range(len(d))]
        if method == "rfas":  # on the non-contiguous subspace {0, 3, 5}
            locals_[-1] = QuarticLocal(d.scalars[-1])
        cfg = SolverConfig(method=method.rstrip("3"), seed=5, max_iterations=200)
        tr = run_solver(cfg, obj, d, local_objectives=locals_)
        assert set(tr.chosen.tolist()) == set(range(len(d)))
        x, f = np.ones(7), [obj.value(np.ones(7))]
        for i in tr.chosen:
            s = fas_search_direction(x, d, int(i), locals_[i], obj)
            x = x + (1.0 / d.lipschitz[i]) * s
            f.append(obj.value(x))
        assert_allclose(tr.final_x, x, rtol=1e-12)
        assert_allclose(tr.objective_values, f, rtol=1e-12)

    def test_determinism(self):
        obj = nesterov_worst(15)
        d = multilevel_nodal_decomposition(4)
        cfg = SolverConfig(method="rfasd", sampler="uniform", seed=11)
        a = run_solver(cfg, obj, d)
        b = run_solver(cfg, obj, d)
        assert np.array_equal(a.chosen, b.chosen)
        assert np.array_equal(a.objective_values, b.objective_values)
        assert np.array_equal(a.final_x, b.final_x)

    def test_pgd_one_step_any_start(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        rng = np.random.default_rng(9)
        for _ in range(5):
            x0 = rng.standard_normal(7) * 10
            tr = run_solver(SolverConfig(method="pgd"), obj, d, x0=x0)
            assert tr.converged
            assert tr.iteration_count == 1

    def test_pgd_past_the_dense_limit_without_step_size(self):
        obj = nesterov_worst(8191)
        d = multilevel_nodal_decomposition(13)
        assert obj.hessian is not d.preconditioner
        tr = run_solver(SolverConfig(method="pgd"), obj, d)
        assert tr.converged
        assert tr.iteration_count == 1

    def test_gd_converges_monotonically(self):
        obj = nesterov_worst(7)
        tr = run_solver(SolverConfig(method="gd"), obj)
        assert tr.converged
        assert tr.iteration_count == 309
        assert np.all(np.diff(tr.objective_values) <= 1e-14)

    def test_divergence_guard(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        bad = with_local_lipschitz(d, [1e-9] * len(d))  # step 1e9: overshoot
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                run_solver(
                    SolverConfig(method="rfasd", sampler="cyclic"), obj, bad
                )

    def test_max_iterations_flags_not_converged(self):
        obj = nesterov_worst(15)
        d = multilevel_nodal_decomposition(4)
        tr = run_solver(
            SolverConfig(method="rfasd", sampler="uniform", max_iterations=5),
            obj,
            d,
        )
        assert not tr.converged
        assert tr.iteration_count == 5

    @pytest.mark.parametrize("method", ["rcd", "rbcd", "pgd"])
    def test_max_iterations_must_be_whole(self, method):
        # the same on every path, the compiled kernel's (rcd) included
        obj = nesterov_worst(15)
        d = multilevel_nodal_decomposition(4)
        if method != "pgd":
            blocks = [list(range(i, i + 3)) for i in range(0, 15, 3)]
            d = with_quadratic_lipschitz(
                coordinate_decomposition(15) if method == "rcd" else block_decomposition(
                    blocks, obj.hessian
                ),
                obj.hessian,
            )
        for cap in (2.5, math.inf, math.nan, "7", True):
            with pytest.raises(ValueError, match="whole number"):
                run_solver(SolverConfig(method, max_iterations=cap), obj, d)
        cfg = SolverConfig(method, sampler="cyclic", tolerance=1e-300)
        whole = run_solver(SolverConfig(**{**vars(cfg), "max_iterations": 7.0}), obj, d)
        seven = run_solver(SolverConfig(**{**vars(cfg), "max_iterations": np.int32(7)}), obj, d)
        assert whole.iteration_count == seven.iteration_count == (2 if method == "pgd" else 7)
        assert np.array_equal(whole.final_x, seven.final_x)
        # past the kernel's int64 counter: no bound in effect, not a wrapped one
        assert run_solver(SolverConfig(method, "cyclic", max_iterations=2**64), obj, d).converged

    def test_semidefinite_needs_opt_in(self):
        obj = nesterov_worst(6, 3, 2.0)
        d = coordinate_decomposition(6)
        with pytest.raises(NotSpdError):
            run_solver(SolverConfig(method="rcd"), obj, d)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_solver(SolverConfig(method="bfgs"), nesterov_worst(3))

    def test_missing_decomposition_rejected(self):
        with pytest.raises(ValueError):
            run_solver(SolverConfig(method="rfasd"), nesterov_worst(3))

    def test_methods_roster(self):
        assert METHODS == ("gd", "pgd", "rcd", "rbcd", "rfasd", "rfas")


class TestFasEquivalence:
    def test_bit_identical_to_plain_descent(self):
        obj = nesterov_worst(15)
        d = multilevel_nodal_decomposition(4)
        kw = dict(sampler="uniform", seed=42, max_iterations=1000, tolerance=1e-14)
        a = run_solver(SolverConfig(method="rfasd", **kw), obj, d)
        b = run_solver(SolverConfig(method="rfas", **kw), obj, d)
        assert np.array_equal(a.chosen, b.chosen)
        assert np.array_equal(a.objective_values, b.objective_values)
        assert np.array_equal(a.gradient_norms, b.gradient_norms)
        assert np.array_equal(a.final_x, b.final_x)

    def test_general_locals_still_converge(self):
        # quartic locals whose curvature at the origin matches the
        # subspace energy: near the solution they act like the exact
        # local solves, farther out the cubic term damps the step
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        locals_ = [QuarticLocal(curvature=a_i) for a_i in d.scalars]
        tr = run_solver(
            SolverConfig(method="rfas", sampler="cyclic", max_iterations=20000),
            obj,
            d,
            local_objectives=locals_,
        )
        assert tr.converged


class TestRunTrace:
    def test_epoch_definition(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        tr = run_solver(SolverConfig(method="rfasd", sampler="uniform"), obj, d)
        assert tr.epoch_count * tr.subspace_count == pytest.approx(
            tr.iteration_count, rel=1e-15
        )

    def test_converged_tolerance_contract(self):
        obj = nesterov_worst(15)
        d = multilevel_nodal_decomposition(4)
        cfg = SolverConfig(method="rfasd", sampler="permutation", seed=2)
        tr = run_solver(cfg, obj, d)
        assert tr.converged
        assert tr.gradient_norms[-1] <= cfg.tolerance * tr.gradient_norms[0]
        # every earlier state was above tolerance (test-then-update)
        assert np.all(
            tr.gradient_norms[:-1] > cfg.tolerance * tr.gradient_norms[0]
        )

    def test_csv_layout_and_stability(self, tmp_path):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        cfg = SolverConfig(method="rfasd", sampler="uniform", seed=0)
        tr = run_solver(cfg, obj, d)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        tr.write_csv(str(p1))
        run_solver(cfg, obj, d).write_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "k,i_k,f,gnorm,gap"
        assert len(lines) == tr.iteration_count + 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == str(tr.chosen[0])
        assert lines[-1].split(",")[1] == "-1"
        # benchmark optimum is known, so the gap column is populated
        assert lines[1].split(",")[4] != ""
        gap0 = float(lines[1].split(",")[4])
        assert gap0 == pytest.approx(
            obj.value(np.ones(7)) - obj.known_minimum, rel=1e-12
        )

    def test_empty_run(self, tmp_path):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        tr = run_solver(SolverConfig(method="rfasd", max_iterations=0), obj, d)
        assert tr.iteration_count == 0 and not tr.converged
        assert tr.chosen.dtype == np.int64 and tr.chosen.shape == (0,)
        assert tr.objective_values.dtype == tr.gradient_norms.dtype == np.float64
        assert tr.objective_values.tolist() == [obj.value(np.ones(7))]
        assert tr.gradient_norms.tolist() == [np.linalg.norm(obj.gradient(np.ones(7)))]
        tr.write_csv(str(tmp_path / "t.csv"))
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].split(",")[:2] == ["0", "-1"]

    def test_gap_column_empty_without_known_minimum(self, tmp_path):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((5, 5))
        obj = QuadraticObjective(w @ w.T + 5 * np.eye(5), rng.standard_normal(5))
        d = coordinate_decomposition(5)
        from subspace_descent.decomposition import with_quadratic_lipschitz

        d = with_quadratic_lipschitz(d, obj.hessian)
        tr = run_solver(SolverConfig(method="rfasd", sampler="cyclic"), obj, d)
        p = tmp_path / "t.csv"
        tr.write_csv(str(p))
        assert p.read_text().splitlines()[1].endswith(",")


def replay_states(obj, d, chosen):
    """Iterates x_0 .. x_K of the reference single-step path from ones."""
    xs = [np.ones(obj.dimension)]
    for i in chosen:
        xs.append(rfasd_step(xs[-1], d, int(i), obj))
    return xs


def true_norms(obj, xs):
    return np.array([np.linalg.norm(obj.gradient(x)) for x in xs])


def replay_level6(obj, d):
    """Run rfasd at level 6 and check it against the single-step replay.

    The k = 1 hats are 1, 3, 7, 15, 31 and 63 wide, including both
    boundary hats.  Returns the decomposition and the trace.
    """
    cfg = SolverConfig(method="rfasd", seed=3, max_iterations=1500)
    tr = run_solver(cfg, obj, d)
    widths = np.diff(d.offsets)[tr.chosen]
    assert set(widths.tolist()) == {1, 3, 7, 15, 31, 63}
    xs = replay_states(obj, d, tr.chosen)
    assert_allclose(tr.final_x, xs[-1], rtol=1e-12)
    assert_allclose(tr.objective_values, [obj.value(x) for x in xs], rtol=1e-12)
    assert_allclose(tr.gradient_norms, true_norms(obj, xs), rtol=1e-9)
    return d, tr


def long_stencils(obj, d, tr):
    """Whether each step of ``tr`` moved g at more than the three rows of
    a hat's coarse-grid stencil (nnz of H P_i)."""
    return np.diff(d.applied(obj.hessian)[0])[tr.chosen] > 3


def prefix_of(short, long, k):
    """Whether ``short`` is the first ``k`` steps of ``long``, bit for bit."""
    return (
        short.iteration_count == k
        and np.array_equal(short.chosen, long.chosen[:k])
        and short.objective_values.tobytes() == long.objective_values[: k + 1].tobytes()
        and short.gradient_norms.tobytes() == long.gradient_norms[: k + 1].tobytes()
    )


class TestScalarStepAndStop:
    def test_replay_across_the_width_switch(self):
        obj = nesterov_worst(63)
        d = multilevel_nodal_decomposition(6)
        assert not long_stencils(obj, *replay_level6(obj, d)).any()

    def test_replay_long_stencils(self):
        # a random tridiagonal H: the wide hats' stencils cover the support
        rng = np.random.default_rng(11)
        h = SpdOperator.tridiagonal(2.0 + rng.random(63), -0.5 - 0.5 * rng.random(62))
        obj = QuadraticObjective(h, rng.standard_normal(63))
        d = with_quadratic_lipschitz(multilevel_nodal_decomposition(6), h)
        long = long_stencils(obj, *replay_level6(obj, d))
        assert long.any() and not long.all()

    def test_replay_coordinates(self):
        # rcd: every step is the kernel's, on one-entry supports
        obj, d = build_problem(ExperimentSpec(n=63, method="rcd"))
        cfg = SolverConfig(method="rcd", seed=3, max_iterations=1500)
        tr = run_solver(cfg, obj, d)
        assert set(tr.chosen.tolist()) == set(range(63))
        xs = replay_states(obj, d, tr.chosen)
        assert_allclose(tr.final_x, xs[-1], rtol=1e-12)
        assert_allclose(tr.objective_values, [obj.value(x) for x in xs], rtol=1e-12)
        assert_allclose(tr.gradient_norms, true_norms(obj, xs), rtol=1e-9)

    def test_kernel_hands_back_non_canonical_steps(self):
        # rfas with a quartic local on two hats: the kernel stops before
        # each of their steps and the general branch takes them
        obj, d = build_problem(ExperimentSpec(level=4, method="rfas"))
        locals_ = [QuadraticEnergyLocal(d, i) for i in range(len(d))]
        for i in (2, 9):
            locals_[i] = QuarticLocal(d.scalars[i])
        cfg = SolverConfig(method="rfas", seed=4, max_iterations=300)
        tr = run_solver(cfg, obj, d, local_objectives=locals_)
        picks = tr.chosen.tolist()
        assert 2 in picks and 9 in picks and len(set(picks)) == len(d)
        x, f = np.ones(15), [obj.value(np.ones(15))]
        for i in picks:
            x = x + (1.0 / d.lipschitz[i]) * fas_search_direction(x, d, i, locals_[i], obj)
            f.append(obj.value(x))
        assert_allclose(tr.final_x, x, rtol=1e-12)
        assert_allclose(tr.objective_values, f, rtol=1e-12)

    def test_gradient_of_the_wrong_length_is_refused(self):
        class Short(QuadraticObjective):
            def gradient(self, x):
                return super().gradient(x)[:-1]

        h, b = nesterov_matrix_form(15)
        with pytest.raises(DimensionMismatchError):
            run_solver(SolverConfig("rfasd"), Short(h, b), multilevel_nodal_decomposition(4))

    @pytest.mark.parametrize("sampler", ["uniform", "permutation"])
    def test_records_grow_under_both_branches(self, sampler):
        # 2-blocks at N = 63 leave one coordinate to the kernel; records
        # grow under general steps between its calls
        obj, d = build_problem(ExperimentSpec(n=63, method="rbcd", block_size=2))
        cfg = SolverConfig(method="rbcd", sampler=sampler, seed=0, max_iterations=3000)
        tr = run_solver(cfg, obj, d)
        assert (tr.chosen == 31).sum() > 50
        xs = replay_states(obj, d, tr.chosen)
        assert_allclose(tr.final_x, xs[-1], rtol=1e-12)
        assert_allclose(tr.objective_values, [obj.value(x) for x in xs], rtol=1e-12)

    @pytest.mark.parametrize(
        "method, sampler, cap",
        [
            ("rfasd", "uniform", 0),
            ("rfasd", "uniform", 700),  # inside the first batch of 1024
            ("rfasd", "uniform", 1500),  # inside the second
            ("rfasd", "cyclic", 2 * 26),  # on an epoch (and batch) boundary
            ("rfasd", "permutation", 3 * 26 + 5),  # just past one
            ("rcd", "permutation", 5 * 15),  # on an epoch and a batch boundary
            ("rcd", "proportional", 1024),  # at the end of a batch
        ],
    )
    def test_max_iterations_stops_anywhere(self, method, sampler, cap, monkeypatch):
        made = []

        def spy(*args, **kwargs):
            made.append(sampling.make_sampler(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(solvers, "make_sampler", spy)
        obj = nesterov_worst(15)
        d = with_quadratic_lipschitz(
            multilevel_nodal_decomposition(4) if method == "rfasd"
            else coordinate_decomposition(15),
            obj.hessian,
        )
        cfg = SolverConfig(method=method, sampler=sampler, seed=2, tolerance=1e-300)
        long = run_solver(SolverConfig(**{**vars(cfg), "max_iterations": 2000}), obj, d)
        short = run_solver(SolverConfig(**{**vars(cfg), "max_iterations": cap}), obj, d)
        assert long.iteration_count > cap and not short.converged
        assert prefix_of(short, long, cap)
        assert len(d) == {"rfasd": 26, "rcd": 15}[method]
        assert made[1].draw_count == cap

    @pytest.mark.parametrize(
        "n, level, seed, kw",
        [(7, 3, s, {}) for s in range(10)]
        + [(15, 4, 42, dict(max_iterations=1000, tolerance=1e-300))],
    )
    def test_stop_index_is_first_exact_crossing(self, n, level, seed, kw):
        # the n = 7 runs end at g = 0 exactly; at tolerance 1e-300 the
        # squared threshold underflows to 0
        obj, d = nesterov_worst(n), multilevel_nodal_decomposition(level)
        cfg = SolverConfig(method="rfasd", sampler="uniform", seed=seed, **kw)
        tr = run_solver(cfg, obj, d)
        norms = true_norms(obj, replay_states(obj, d, tr.chosen))
        hits = np.flatnonzero(norms <= cfg.tolerance * norms[0])
        assert tr.iteration_count == (hits[0] if hits.size else norms.size - 1)
        assert tr.converged == bool(hits.size)

    def test_exact_zero_gradient_stops_at_tiny_tolerance(self):
        # Only g = 0 meets tolerance 1e-300 (its square underflows), so the
        # carried norm's drift must not hide it.  The counts are those of
        # a loop that recomputes ||g|| every step, except seed 8: its
        # carried g is 0 at step 224 where grad f(x) is 1.5e-16, so the
        # run resyncs and goes on.  Seed 4 never reaches g = 0.
        obj, d = nesterov_worst(7), multilevel_nodal_decomposition(3)
        counts = []
        for seed in range(10):
            cfg = SolverConfig("rfasd", seed=seed, max_iterations=500, tolerance=1e-300)
            tr = run_solver(cfg, obj, d)
            assert tr.converged == (tr.gradient_norms[-1] == 0.0)
            counts.append(tr.iteration_count)
        assert counts == [67, 129, 39, 97, 500, 44, 86, 9, 500, 81]

    @pytest.mark.parametrize("kind", ["uniform", "proportional", "permutation", "cyclic"])
    def test_draw_count_is_iteration_count(self, kind, monkeypatch):
        made = []

        def spy(*args, **kwargs):
            made.append(sampling.make_sampler(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(solvers, "make_sampler", spy)
        obj, d = nesterov_worst(15), multilevel_nodal_decomposition(4)
        tr = run_solver(SolverConfig(method="rfasd", sampler=kind, seed=1), obj, d)
        assert tr.converged
        assert made[0].draw_count == tr.iteration_count > 0

    def test_applied_basis_built_once_per_banded_run(self, monkeypatch):
        calls = []
        build = Decomposition.applied

        def spy(self, operator):
            calls.append(self)
            return build(self, operator)

        monkeypatch.setattr(Decomposition, "applied", spy)
        theory_check(ExperimentSpec(level=5), probe_count=10, decay_count=5)
        assert calls == []
        for method in ("rcd", "rbcd", "rfasd"):
            obj, d = build_problem(ExperimentSpec(level=6, method=method))
            assert d._energies[3] is None
            for seed in (0, 1):  # trials share the cached set
                cfg = SolverConfig(method=method, seed=seed, max_iterations=5)
                run_solver(cfg, obj, d)
            assert calls == [d, d] and d._energies[3] is build(d, obj.hessian)
            calls.clear()

    def test_converged_means_true_gradient_met_tolerance(self):
        obj, d = nesterov_worst(1023), multilevel_nodal_decomposition(10)
        cfg = SolverConfig(method="rfasd", seed=0, tolerance=1e-12)
        tr = run_solver(cfg, obj, d)
        final = np.linalg.norm(obj.gradient(tr.final_x))
        assert tr.converged
        assert final <= cfg.tolerance * np.linalg.norm(obj.gradient(np.ones(1023)))
        assert tr.gradient_norms[-1] == final

    @pytest.mark.parametrize("hessian", ["banded", "dense"])
    def test_stale_carried_gradient_is_not_converged(self, hessian):
        # the carried gradient follows H, the true one H + 1e-3 I, so the
        # carried norm crosses the threshold first: the run resyncs from
        # the true gradient and goes on until that one crosses
        class Skewed(QuadraticObjective):
            def gradient(self, x):
                return super().gradient(x) + 1e-3 * np.asarray(x)

        h, b = nesterov_matrix_form(15)
        obj = Skewed(h if hessian == "banded" else h.dense(), b)
        d = multilevel_nodal_decomposition(4)
        tr = run_solver(SolverConfig(method="rfasd", seed=0), obj, d)
        g0 = np.linalg.norm(obj.gradient(np.ones(15)))
        assert tr.converged
        assert np.linalg.norm(obj.gradient(tr.final_x)) <= 1e-6 * g0
        assert tr.gradient_norms[-1] <= 1e-6 * g0
