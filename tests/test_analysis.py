import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from packing import mixed_family
from subspace_descent.analysis import (
    RateFit,
    decomposition_identity_check,
    empirical_rate_fit,
    expected_decay_check,
    linear_rate_bound,
    quadratic_metric_constants,
    r0_strongly_convex,
    sublinear_bound,
    theory_report,
)
from subspace_descent.decomposition import (
    block_decomposition,
    coordinate_decomposition,
    multilevel_nodal_decomposition,
    with_local_lipschitz,
    with_quadratic_lipschitz,
)
from subspace_descent.experiments import ExperimentSpec, build_problem
from subspace_descent.linalg import SpdOperator, a_norm, dirichlet_laplacian
from subspace_descent.objectives import (
    Objective,
    QuadraticObjective,
    nesterov_worst,
    quadratic_minimizer,
)
from subspace_descent.solvers import SolverConfig, rfasd_step, run_solver


class QuarticObjective(Objective):
    """f(x) = sum(x^4 / 4 + x^2 / 2): smooth and convex, not quadratic."""

    dimension = 7

    def value(self, x):
        return float(np.sum(0.25 * x**4 + 0.5 * x**2))

    def gradient(self, x):
        return x**3 + x


class TestMetricConstants:
    def test_hessian_equals_metric(self):
        a = dirichlet_laplacian(5)
        assert quadratic_metric_constants(a, a) == pytest.approx((1.0, 1.0))

    def test_euclidean_metric_gives_plain_spectrum(self):
        mu, big_l = quadratic_metric_constants(
            dirichlet_laplacian(3), SpdOperator.identity(3)
        )
        assert_allclose([mu, big_l], [2 - np.sqrt(2), 2 + np.sqrt(2)], rtol=1e-12)

    def test_scaling(self):
        a = dirichlet_laplacian(4)
        h = dirichlet_laplacian(4, scale=2.0)
        mu, big_l = quadratic_metric_constants(h, a)
        assert (mu, big_l) == pytest.approx((2.0, 2.0))

    def test_order(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((6, 6))
        h = SpdOperator.from_dense(w @ w.T + 6 * np.eye(6))
        mu, big_l = quadratic_metric_constants(h, dirichlet_laplacian(6))
        assert 0 < mu <= big_l

    def test_dense_limit(self):
        a = SpdOperator.from_dense(dirichlet_laplacian(8).dense())
        h = SpdOperator.from_dense(a.dense())  # an operator that is not a
        with pytest.raises(ValueError):
            quadratic_metric_constants(h, a, dense_limit=4)
        assert quadratic_metric_constants(a, a, dense_limit=4) == (1.0, 1.0)

    def test_banded_constants_past_the_dense_limit(self):
        # level 13: H and A equal as matrices, held as two banded operators
        h, a = nesterov_worst(8191).hessian, dirichlet_laplacian(8191)
        assert h is not a
        mu, big_l = quadratic_metric_constants(h, a)
        assert abs(mu - 1.0) <= 1e-10 and abs(big_l - 1.0) <= 1e-10
        assert quadratic_metric_constants(h, a) == (mu, big_l)

    @pytest.mark.parametrize("level", [13, 16])
    def test_shared_metric_gives_exactly_one(self, level):
        # the built-in problem with L = 2 uses its Hessian as the metric
        obj, d = build_problem(ExperimentSpec(level=level))
        assert d.preconditioner is obj.hessian
        assert quadratic_metric_constants(obj.hessian, d.preconditioner) == (1.0, 1.0)


class TestLinearRateBound:
    def test_one_step_regime(self):
        assert linear_rate_bound(1.0, 1.0, 1.0, 1) == 0.0

    def test_arithmetic(self):
        assert linear_rate_bound(1.0, 1.0, 2.0, 10) == pytest.approx(0.95)

    def test_coordinate_descent_form(self):
        # with C=1 and J=N the bound is the classic 1 - mu/(N*meanL)
        n, mu, mean_l = 12, 0.3, 2.0
        assert linear_rate_bound(mu, mean_l, 1.0, n) == pytest.approx(
            1.0 - mu / (n * mean_l)
        )

    def test_clamped_at_zero(self):
        assert linear_rate_bound(10.0, 1.0, 1.0, 2) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            linear_rate_bound(0.0, 1.0, 1.0, 3)


class TestSublinearBound:
    def test_k_zero_returns_initial_gap(self):
        b = sublinear_bound(0, 3.0, 1.0, 5, 1.0, 1.0)
        assert b.refined == 3.0
        assert b.loose == np.inf

    def test_half_decay_point(self):
        d0, r, j, ml, c = 2.0, 1.0, 4, 1.0, 1.0
        denom = 2 * r**2 * j * ml * c  # = 8, so d0*c*k = 1 at k = 4
        k = int(denom / d0)
        b = sublinear_bound(k, d0, r, j, ml, c)
        assert b.refined == pytest.approx(d0 / 2)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d0, r, ml, c = rng.random(4) + 0.1
            j = int(rng.integers(1, 30))
            vals = [
                sublinear_bound(k, d0, r, j, ml, c).refined for k in range(40)
            ]
            assert np.all(np.diff(vals) <= 0)

    def test_refined_not_larger_than_loose(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d0, r, ml, c = rng.random(4) + 0.1
            j = int(rng.integers(1, 30))
            k = int(rng.integers(1, 1000))
            b = sublinear_bound(k, d0, r, j, ml, c)
            assert b.refined <= b.loose + 1e-15


class TestRadiusBound:
    def test_zero_gap(self):
        assert r0_strongly_convex(0.0, 5.0) == 0.0

    def test_arithmetic(self):
        assert r0_strongly_convex(1.0, 2.0) == 1.0

    def test_exact_for_matched_metric(self):
        # H = A: d0 = 1/2 ||x0-x*||_A^2, so the radius formula is tight
        a = dirichlet_laplacian(6)
        from subspace_descent.objectives import QuadraticObjective

        rng = np.random.default_rng(7)
        q = QuadraticObjective(a, rng.standard_normal(6))
        xstar = quadratic_minimizer(q)
        for _ in range(20):
            x0 = rng.standard_normal(6)
            d0 = q.value(x0) - q.value(xstar)
            r0 = r0_strongly_convex(d0, 1.0)
            dist = a_norm(a, x0 - xstar)
            assert dist <= r0 + 1e-10
            assert dist == pytest.approx(r0, rel=1e-10)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            r0_strongly_convex(1.0, 0.0)


class TestIdentityCheck:
    def test_zero_gradient_trivially_passes(self):
        d = multilevel_nodal_decomposition(3)
        chk = decomposition_identity_check(np.zeros(7), d)
        assert chk.passed
        assert chk.pairing == 0.0
        assert chk.local_direction_energy == 0.0
        assert chk.stability_ratio == 0.0

    def test_full_space_equality(self):
        a = dirichlet_laplacian(5)
        d = block_decomposition([list(range(5))], a)
        rng = np.random.default_rng(2)
        for _ in range(10):
            chk = decomposition_identity_check(rng.standard_normal(5), d)
            assert chk.passed
            assert chk.stability_ratio == pytest.approx(1.0, rel=1e-10)

    def test_multilevel_random_gradients(self):
        d = multilevel_nodal_decomposition(3)
        rng = np.random.default_rng(11)
        for _ in range(100):
            chk = decomposition_identity_check(rng.standard_normal(7), d)
            assert chk.passed
            assert chk.stability_ratio <= chk.stability_constant * (1 + 1e-10)

    @pytest.mark.parametrize("n", [3, 7, 15])
    def test_equality_chain_across_builders(self, n):
        builders = [coordinate_decomposition(n, dirichlet_laplacian(n))]
        if n == 7:
            builders.append(multilevel_nodal_decomposition(3))
        if n == 15:
            builders.append(multilevel_nodal_decomposition(4))
            builders.append(
                block_decomposition(
                    [list(range(0, 5)), list(range(5, 15))],
                    dirichlet_laplacian(15),
                )
            )
        if n == 7:
            # k = 1 terms come from the flat arrays, k > 1 from the blocks
            builders.append(
                block_decomposition(
                    [[0], [1, 2], [3], [4, 5, 6]], dirichlet_laplacian(7)
                )
            )
        rng = np.random.default_rng(n)
        for d in builders:
            for _ in range(200 // len(builders)):
                g = rng.standard_normal(n) * rng.choice([0.01, 1.0, 100.0])
                chk = decomposition_identity_check(g, d)
                assert chk.identity_slack >= 0

    def test_ratio_supremum_approaches_constant(self):
        # the worst gradient direction realizes the stability constant
        d = multilevel_nodal_decomposition(3)
        c = d.stability_constant
        rng = np.random.default_rng(0)
        worst = max(
            decomposition_identity_check(rng.standard_normal(7), d).stability_ratio
            for _ in range(500)
        )
        assert worst <= c * (1 + 1e-10)
        assert worst >= 0.5 * c  # random probes get close for C ~ 1


class TestExpectedDecay:
    def test_at_minimizer_both_sides_vanish(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        chk = expected_decay_check(obj.minimizer(), obj, d)
        assert chk.passed
        assert abs(chk.decrease) <= 1e-12
        assert abs(chk.bound) <= 1e-12

    def test_all_ones_strict_decrease(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        chk = expected_decay_check(np.ones(7), obj, d)
        assert chk.passed
        assert chk.expected_value < chk.start_value
        assert chk.decrease >= chk.bound - 1e-10

    @pytest.mark.parametrize("n,level", [(7, 3), (15, 4)])
    @pytest.mark.parametrize("probs", ["uniform", "proportional"])
    def test_random_points(self, n, level, probs):
        obj = nesterov_worst(n)
        d = multilevel_nodal_decomposition(level)
        rng = np.random.default_rng(level)
        for _ in range(100):
            chk = expected_decay_check(rng.standard_normal(n), obj, d, probs)
            assert chk.passed

    def test_uniform_flagged_conservative(self):
        # needs genuinely unequal local constants: column-norm steps of
        # coordinate descent give sqrt(5) at the ends, sqrt(6) inside
        from subspace_descent.decomposition import rcd_column_lipschitz

        obj = nesterov_worst(7)
        lips = rcd_column_lipschitz(obj.hessian)
        d = with_local_lipschitz(coordinate_decomposition(7), lips)
        uni = expected_decay_check(np.ones(7), obj, d, "uniform")
        prop = expected_decay_check(np.ones(7), obj, d, "proportional")
        assert uni.conservative and uni.passed
        assert not prop.conservative and prop.passed

    def test_equal_constants_make_uniform_proportional(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        assert not expected_decay_check(np.ones(7), obj, d, "uniform").conservative

    def test_halved_constants_fail(self):
        # understating the local Lipschitz constants inflates the bound
        # beyond the achievable decrease: negative control
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        lied = with_local_lipschitz(d, [l / 2 for l in d.lipschitz])
        rng = np.random.default_rng(5)
        failures = sum(
            not expected_decay_check(rng.standard_normal(7), obj, lied).passed
            for _ in range(20)
        )
        assert failures > 0

    def test_explicit_probability_vector(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        p = d.lipschitz / d.lipschitz.sum()
        chk = expected_decay_check(np.ones(7), obj, d, p)
        assert chk.passed and not chk.conservative

    @pytest.mark.parametrize("hessian", ["banded", "dense"])
    @pytest.mark.parametrize("probs", ["uniform", "proportional"])
    def test_closed_form_matches_enumeration(self, hessian, probs):
        # hats, k = 2 bases and a non-contiguous subspace in one family
        if hessian == "banded":
            obj = nesterov_worst(7)
        else:
            m = np.random.default_rng(8).standard_normal((7, 7))
            h = SpdOperator.from_dense(m @ m.T + 7.0 * np.eye(7))
            obj = QuadraticObjective(h, np.arange(7.0))
        d = with_quadratic_lipschitz(mixed_family(), obj.hessian)
        lip = d.lipschitz
        p = np.full(len(d), 1.0 / len(d)) if probs == "uniform" else lip / lip.sum()
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(7)
            chk = expected_decay_check(x, obj, d, probs)
            expect = sum(
                p[i] * obj.value(rfasd_step(x, d, i, obj)) for i in range(len(d))
            )
            assert_allclose(chk.expected_value, expect, rtol=1e-12)
            assert_allclose(chk.decrease, obj.value(x) - expect, rtol=1e-10)
            assert chk.passed

    def test_non_quadratic_rejected(self):
        d = multilevel_nodal_decomposition(3)
        with pytest.raises(ValueError, match="quadratic"):
            expected_decay_check(np.ones(7), QuarticObjective(), d)

    def test_bad_probabilities_rejected(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        with pytest.raises(ValueError):
            expected_decay_check(np.ones(7), obj, d, np.full(11, 0.5))


class TestEmpiricalRateFit:
    def _rfasd_traces(self, seeds, n=7, level=3):
        obj = nesterov_worst(n)
        d = multilevel_nodal_decomposition(level)
        return [
            run_solver(
                SolverConfig(method="rfasd", sampler="uniform", seed=s), obj, d
            )
            for s in seeds
        ]

    def test_pgd_single_step_rate_zero(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        tr = run_solver(SolverConfig(method="pgd"), obj, d)
        fit = empirical_rate_fit([tr])
        assert fit.rate == pytest.approx(0.0, abs=1e-6)

    def test_duplicated_trace_same_fit(self):
        (tr,) = self._rfasd_traces([4])
        one = empirical_rate_fit([tr])
        two = empirical_rate_fit([tr, tr])
        assert one.rate == two.rate
        assert one.iterations == two.iterations

    def test_ensemble_beats_bound(self):
        traces = self._rfasd_traces(range(10))
        d = multilevel_nodal_decomposition(3)
        bound = 1.0 - 1.0 / (len(d) * d.stability_constant)
        fit = empirical_rate_fit(traces)
        assert 0.0 < fit.rate <= bound + 0.02

    def test_missing_gap_information_rejected(self):
        class Fake:
            gaps = None
            objective_values = np.array([1.0, 0.5])

        with pytest.raises(ValueError):
            empirical_rate_fit([Fake()])
        fit = empirical_rate_fit([Fake()], f_star=0.0)
        assert fit.rate == pytest.approx(0.5)

    def test_result_type(self):
        assert RateFit(0.5, 10, False).rate == 0.5


class TestTheoryReport:
    def test_smallest_instance_all_pass(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        rep = theory_report(obj, d, probe_count=50, decay_count=25)
        assert rep.all_passed
        assert rep.mu_A == pytest.approx(1.0, abs=1e-10)
        assert rep.L_A == pytest.approx(1.0, abs=1e-10)
        assert rep.mean_L_A == pytest.approx(1.0, abs=1e-12)
        assert rep.C_A == pytest.approx(1.0, abs=1e-9)
        assert rep.rate_bound == pytest.approx(1.0 - 1.0 / 11.0, rel=1e-9)

    def test_with_traces_adds_rate_check(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        traces = [
            run_solver(
                SolverConfig(method="rfasd", sampler="uniform", seed=s), obj, d
            )
            for s in range(10)
        ]
        rep = theory_report(obj, d, probe_count=10, decay_count=5, traces=traces)
        names = [c.name for c in rep.checks]
        assert "empirical_rate_vs_bound" in names
        assert rep.all_passed

    def test_negative_control_fails_and_reports(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        lied = with_local_lipschitz(d, [l / 2 for l in d.lipschitz])
        rep = theory_report(obj, lied, probe_count=10, decay_count=20)
        assert not rep.all_passed
        failed = [c for c in rep.checks if not c.passed]
        assert any(c.name == "expected_decay" for c in failed)

    def test_json_layout(self):
        obj = nesterov_worst(7)
        d = multilevel_nodal_decomposition(3)
        rep = theory_report(obj, d, probe_count=5, decay_count=5)
        blob = json.loads(rep.json_str())
        assert set(blob) == {
            "mu_A",
            "L_A",
            "mean_L_A",
            "C_A",
            "rate_bound",
            "checks",
        }
        for chk in blob["checks"]:
            assert set(chk) == {"name", "pass", "slack"}

    def test_requires_strongly_convex_quadratic(self):
        obj = nesterov_worst(6, 3, 2.0)
        d = multilevel_nodal_decomposition(3)
        with pytest.raises(ValueError):
            theory_report(obj, d)
