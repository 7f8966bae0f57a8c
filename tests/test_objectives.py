import numpy as np
import pytest
from numpy.testing import assert_allclose

from subspace_descent.linalg import SpdOperator, dirichlet_laplacian
from subspace_descent.objectives import (
    NesterovWorstObjective,
    QuadraticObjective,
    load_quadratic_problem,
    nesterov_matrix_form,
    nesterov_worst,
    quadratic_minimizer,
    save_quadratic_problem,
)


def central_difference(obj, x, eps=1e-5):
    n = x.size
    g = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = eps
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * eps)
    return g


class TestNesterovWorst:
    @pytest.mark.parametrize("n,r,L", [(5, 5, 2.0), (9, 4, 1.0), (3, 1, 7.5)])
    def test_zero_value(self, n, r, L):
        assert nesterov_worst(n, r, L).value(np.zeros(n)) == 0.0

    def test_known_minimum_formula(self):
        obj = nesterov_worst(7, 7, 4.0)
        assert_allclose(obj.known_minimum, -7.0 / 32.0, rtol=0)

    def test_gradient_at_origin(self):
        for n, L in [(4, 2.0), (9, 6.0)]:
            g = nesterov_worst(n, n, L).gradient(np.zeros(n))
            expect = np.zeros(n)
            expect[0] = -L / 4.0
            assert_allclose(g, expect, rtol=0, atol=0)

    def test_active_range_validated(self):
        with pytest.raises(ValueError):
            nesterov_worst(4, 5, 1.0)
        with pytest.raises(ValueError):
            nesterov_worst(4, 0, 1.0)
        with pytest.raises(ValueError):
            nesterov_worst(3, 3, -1.0)

    @pytest.mark.parametrize("n", [2, 7, 15])
    def test_matches_matrix_form(self, n):
        L = 2.0
        obj = nesterov_worst(n, n, L)
        h, b = nesterov_matrix_form(n, L)
        hd = h.dense()
        rng = np.random.default_rng(n)
        for _ in range(100):
            x = rng.standard_normal(n) * 3.0
            quad = 0.5 * x @ hd @ x - b @ x
            assert_allclose(obj.value(x), quad, rtol=1e-10, atol=1e-12)
            assert_allclose(
                obj.gradient(x), hd @ x - b, rtol=1e-10, atol=1e-12
            )

    def test_inactive_tail_does_not_move_gradient(self):
        obj = nesterov_worst(6, 3, 2.0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        g = obj.gradient(x)
        assert np.array_equal(g[3:], np.zeros(3))

    def test_partial_activity_not_strongly_convex(self):
        obj = nesterov_worst(6, 3, 2.0)
        assert not obj.strongly_convex
        assert obj.hessian is None
        full = nesterov_worst(6, 6, 2.0)
        assert full.strongly_convex
        assert full.hessian is not None

    def test_minimizer_closed_form(self):
        n = 7
        obj = nesterov_worst(n, n, 2.0)
        i = np.arange(1, n + 1)
        assert_allclose(
            obj.minimizer(), 0.5 * (1.0 - i / (n + 1.0)), rtol=1e-13
        )

    def test_convexity_sample(self):
        rng = np.random.default_rng(8)
        for n, r in [(5, 5), (8, 3)]:
            obj = nesterov_worst(n, r, 3.0)
            for _ in range(50):
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
                mid = obj.value(0.5 * (x + y))
                assert mid <= 0.5 * obj.value(x) + 0.5 * obj.value(y) + 1e-12


class TestMatrixForm:
    def test_size_two(self):
        h, b = nesterov_matrix_form(2, 2.0)
        assert np.array_equal(h.dense(), [[2.0, -1.0], [-1.0, 2.0]])
        assert np.array_equal(b, [0.5, 0.0])

    def test_size_one(self):
        # consistency with the minimum value (L/16)(-1 + 1/2) = -L/32
        # pins the 1x1 matrix at [L], not [L/2]
        h, b = nesterov_matrix_form(1, 4.0)
        assert np.array_equal(h.dense(), [[4.0]])
        assert np.array_equal(b, [1.0])
        assert_allclose(-0.5 * b[0] ** 2 / h.dense()[0, 0], -1.0 / 8.0, rtol=0)

    def test_default_curvature_gives_unit_laplacian(self):
        h, _ = nesterov_matrix_form(5, 2.0)
        assert np.array_equal(h.dense(), dirichlet_laplacian(5).dense())


class TestQuadraticObjective:
    def test_value_formula_exact(self):
        rng = np.random.default_rng(4)
        h = dirichlet_laplacian(5)
        b = rng.standard_normal(5)
        q = QuadraticObjective(h, b)
        for _ in range(20):
            x = rng.standard_normal(5)
            assert q.value(x) == 0.5 * np.dot(h.matvec(x), x) - np.dot(x, b)
            assert np.array_equal(q.gradient(x), h.matvec(x) - b)

    def test_semidefinite_accepted_without_hessian_operator(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        q = QuadraticObjective(m, np.zeros(2))
        assert q.hessian is None
        assert not q.strongly_convex
        assert q.value(np.array([1.0, -1.0])) == 0.0

    def test_known_minimum_set_from_solve(self):
        q = QuadraticObjective(SpdOperator.identity(2), np.array([1.0, 2.0]))
        x = quadratic_minimizer(q)
        assert_allclose(x, [1.0, 2.0], rtol=0)
        assert_allclose(q.value(x), -2.5, rtol=0)


class TestQuadraticMinimizer:
    def test_identity(self):
        q = QuadraticObjective(SpdOperator.identity(2), [1.0, 2.0])
        assert_allclose(quadratic_minimizer(q), [1.0, 2.0], rtol=0)

    def test_nesterov_seven(self):
        h, b = nesterov_matrix_form(7, 2.0)
        q = QuadraticObjective(h, b)
        x = quadratic_minimizer(q)
        assert_allclose(q.value(x), -0.109375, atol=1e-12)

    @pytest.mark.parametrize("n", [7, 15, 31])
    def test_value_hits_known_minimum(self, n):
        obj = nesterov_worst(n, n, 2.0)
        q = QuadraticObjective(obj.hessian, obj.rhs)
        x = quadratic_minimizer(q)
        assert abs(obj.value(x) - obj.known_minimum) <= 1e-10

    def test_first_order_optimality(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((6, 6))
        h = SpdOperator.from_dense(w @ w.T + 6 * np.eye(6))
        q = QuadraticObjective(h, rng.standard_normal(6))
        x = quadratic_minimizer(q)
        assert np.linalg.norm(q.gradient(x)) <= 1e-10

    def test_semidefinite_rejected(self):
        q = QuadraticObjective(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            quadratic_minimizer(q)


class TestFiniteDifferences:
    def test_quadratic_gradient_near_exact(self):
        rng = np.random.default_rng(3)
        for n in (3, 7):
            obj = nesterov_worst(n, n, 2.0)
            for _ in range(5):
                x = rng.standard_normal(n)
                assert_allclose(
                    obj.gradient(x), central_difference(obj, x), atol=1e-9
                )

    def test_general_contract(self):
        rng = np.random.default_rng(30)
        h = dirichlet_laplacian(5, scale=3.0)
        obj = QuadraticObjective(h, rng.standard_normal(5))
        x = rng.standard_normal(5)
        diff = np.abs(obj.gradient(x) - central_difference(obj, x))
        assert diff.max() <= 1e-5


class TestProblemFiles:
    def _write(self, tmp_path, matrix_text, rhs_text):
        mp = tmp_path / "m.txt"
        rp = tmp_path / "r.txt"
        mp.write_text(matrix_text)
        rp.write_text(rhs_text)
        return str(mp), str(rp)

    def test_round_trip(self, tmp_path):
        h, b = nesterov_matrix_form(5, 2.0)
        q = QuadraticObjective(h, b)
        mp = str(tmp_path / "m.txt")
        rp = str(tmp_path / "r.txt")
        save_quadratic_problem(q, mp, rp)
        q2 = load_quadratic_problem(mp, rp)
        assert q2.dimension == 5
        assert np.array_equal(q2.hessian_matrix.dense(), h.dense())
        assert np.array_equal(q2.rhs, b)

    def test_small_hand_file(self, tmp_path):
        mp, rp = self._write(
            tmp_path, "2 3\n1 1 2.0\n1 2 -1.0\n2 2 2.0\n", "0.5\n0.0\n"
        )
        q = load_quadratic_problem(mp, rp)
        assert np.array_equal(
            q.hessian_matrix.dense(), [[2.0, -1.0], [-1.0, 2.0]]
        )
        assert np.array_equal(q.rhs, [0.5, 0.0])

    def test_tridiagonal_file_loads_banded(self, tmp_path):
        mp, rp = self._write(
            tmp_path,
            "3 5\n1 1 2.0\n1 2 -1.0\n2 2 2.0\n2 3 -1.0\n3 3 2.0\n",
            "1\n0\n0\n",
        )
        q = load_quadratic_problem(mp, rp)
        assert q.hessian.is_banded
        assert np.array_equal(q.hessian.dense(), dirichlet_laplacian(3).dense())

    def test_off_band_or_indefinite_file_stays_dense(self, tmp_path):
        mp, rp = self._write(
            tmp_path, "3 4\n1 1 2.0\n1 3 -1.0\n2 2 2.0\n3 3 2.0\n", "0\n0\n0\n"
        )
        assert not load_quadratic_problem(mp, rp).hessian.is_banded
        mp, rp = self._write(
            tmp_path, "2 3\n1 1 1.0\n1 2 2.0\n2 2 1.0\n", "0\n0\n"
        )
        q = load_quadratic_problem(mp, rp)
        assert q.hessian is None
        assert np.array_equal(q.hessian_matrix, [[1.0, 2.0], [2.0, 1.0]])

    def test_lower_triangle_rejected(self, tmp_path):
        mp, rp = self._write(tmp_path, "2 2\n1 1 2.0\n2 1 -1.0\n", "0\n0\n")
        with pytest.raises(ValueError):
            load_quadratic_problem(mp, rp)

    def test_duplicate_entry_rejected(self, tmp_path):
        mp, rp = self._write(
            tmp_path, "2 3\n1 1 2.0\n1 1 1.0\n2 2 2.0\n", "0\n0\n"
        )
        with pytest.raises(ValueError):
            load_quadratic_problem(mp, rp)

    def test_count_mismatch_rejected(self, tmp_path):
        mp, rp = self._write(tmp_path, "2 3\n1 1 2.0\n2 2 2.0\n", "0\n0\n")
        with pytest.raises(ValueError):
            load_quadratic_problem(mp, rp)

    def test_index_out_of_range_rejected(self, tmp_path):
        mp, rp = self._write(tmp_path, "2 1\n1 3 2.0\n", "0\n0\n")
        with pytest.raises(ValueError):
            load_quadratic_problem(mp, rp)

    def test_rhs_length_checked(self, tmp_path):
        mp, rp = self._write(tmp_path, "2 2\n1 1 2.0\n2 2 2.0\n", "0.5\n")
        with pytest.raises(ValueError):
            load_quadratic_problem(mp, rp)


def test_default_benchmark_objects_share_values():
    # class front-end and helper agree
    a = NesterovWorstObjective(9)
    b = nesterov_worst(9, 9, 2.0)
    x = np.linspace(-1, 1, 9)
    assert a.value(x) == b.value(x)
    assert a.curvature == 2.0
    assert a.active_length == 9
