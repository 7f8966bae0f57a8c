import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from subspace_descent.linalg import (
    DimensionMismatchError,
    NotSpdError,
    SpdOperator,
    a_inner_product,
    a_norm,
    dirichlet_laplacian,
    dual_norm,
    extreme_eigenvalues,
    inner_product,
    spd_solve,
)


def random_spd(rng, n):
    w = rng.standard_normal((n, n))
    return w @ w.T + n * np.eye(n)


def laplacian_eigs(n):
    k = np.arange(1, n + 1)
    return 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))


class TestInnerProduct:
    def test_orthogonal_units(self):
        assert inner_product([1, 0, 0], [0, 1, 0]) == 0.0

    def test_ones(self):
        assert inner_product([1, 1], [1, 1]) == 2.0

    def test_hand_value(self):
        assert inner_product([1, 2, 3], [4, 5, 6]) == 32.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product([1, 2], [1, 2, 3])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            inner_product([np.nan, 0.0], [1.0, 1.0])


class TestAInnerProduct:
    def test_identity_reduces_to_l2(self):
        a = SpdOperator.identity(2)
        assert a_inner_product(a, [1, 1], [1, 1]) == 2.0

    def test_tridiag_size2(self):
        a = dirichlet_laplacian(2)
        assert a_inner_product(a, [1, 0], [1, 0]) == 2.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(3)
        a = SpdOperator.from_dense(random_spd(rng, 6))
        for _ in range(25):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            assert_allclose(
                a_inner_product(a, x, y), a_inner_product(a, y, x), rtol=1e-12
            )


class TestANorm:
    def test_zero(self):
        assert a_norm(SpdOperator.identity(3), np.zeros(3)) == 0.0

    def test_identity(self):
        assert a_norm(SpdOperator.identity(2), [3, 4]) == 5.0

    def test_diagonal(self):
        a = SpdOperator.from_dense(np.diag([4.0, 9.0]))
        assert_allclose(a_norm(a, [1, 1]), np.sqrt(13.0), rtol=1e-15)

    def test_squared_matches_inner(self):
        rng = np.random.default_rng(11)
        a = SpdOperator.from_dense(random_spd(rng, 5))
        for _ in range(40):
            x = rng.standard_normal(5)
            assert_allclose(
                a_norm(a, x) ** 2, a_inner_product(a, x, x), rtol=1e-12
            )


class TestDualNorm:
    def test_identity_unit(self):
        assert dual_norm(SpdOperator.identity(3), [1, 0, 0]) == 1.0

    def test_tridiag_size2(self):
        # inverse of [[2,-1],[-1,2]] is (1/3)[[2,1],[1,2]]
        a = dirichlet_laplacian(2)
        assert_allclose(dual_norm(a, [1, 0]), np.sqrt(2.0 / 3.0), rtol=1e-14)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(5)
        a = SpdOperator.from_dense(random_spd(rng, 7))
        for _ in range(40):
            g = rng.standard_normal(7)
            x = rng.standard_normal(7)
            assert dual_norm(a, g) * a_norm(a, x) >= abs(np.dot(g, x)) - 1e-10

    def test_adjoint_identity(self):
        # ||A x||_{A^{-1}} = ||x||_A
        rng = np.random.default_rng(17)
        a = SpdOperator.from_dense(random_spd(rng, 6))
        for _ in range(30):
            x = rng.standard_normal(6)
            assert_allclose(dual_norm(a, a.matvec(x)), a_norm(a, x), rtol=1e-10)


class TestSpdSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert_allclose(spd_solve(SpdOperator.identity(3), b), b, rtol=0, atol=0)

    def test_diagonal(self):
        a = SpdOperator.from_dense(np.diag([2.0, 4.0]))
        assert_allclose(spd_solve(a, [2.0, 4.0]), [1.0, 1.0], rtol=1e-15)

    def test_tridiag_hand_solve(self):
        a = dirichlet_laplacian(3)
        assert_allclose(
            spd_solve(a, [1.0, 0.0, 0.0]), [0.75, 0.5, 0.25], rtol=1e-13
        )

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_residual_contract_random(self, n):
        rng = np.random.default_rng(n)
        a = SpdOperator.from_dense(random_spd(rng, n))
        for _ in range(10):
            b = rng.standard_normal(n)
            x = spd_solve(a, b)
            r = np.linalg.norm(a.matvec(x) - b)
            assert r <= 1e-12 * max(1.0, np.linalg.norm(b))

    def test_refinement_tightens_moderate_conditioning(self):
        # condition number ~1.7e3: a single backsolve may miss the
        # 1e-12 relative residual, refinement closes the gap
        n = 63
        a = dirichlet_laplacian(n)
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = rng.standard_normal(n)
            x = a.solve(b)
            assert np.linalg.norm(a.matvec(x) - b) <= 1e-12 * max(
                1.0, np.linalg.norm(b)
            )

    def test_ill_conditioned_best_effort(self):
        # condition number ~6.8e6: the strict residual target is below
        # the float64 floor, so solve returns the refined iterate with
        # a tiny normwise backward error instead of raising
        n = 4095
        a = dirichlet_laplacian(n)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n)
        x = a.solve(b)
        r = np.linalg.norm(a.matvec(x) - b)
        eta = r / (np.linalg.norm(b) + 4.0 * np.linalg.norm(x))
        assert eta <= 1e-14

    def test_roundtrip(self):
        rng = np.random.default_rng(23)
        a = SpdOperator.from_dense(random_spd(rng, 8))
        for _ in range(20):
            b = rng.standard_normal(8)
            assert_allclose(a.matvec(a.solve(b)), b, rtol=1e-10, atol=1e-10)

    def test_not_spd_rejected(self):
        with pytest.raises(NotSpdError):
            SpdOperator.from_dense([[1.0, 2.0], [2.0, 1.0]])  # indefinite

    def test_singular_rejected(self):
        with pytest.raises(NotSpdError):
            SpdOperator.from_dense([[1.0, 1.0], [1.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSpdError):
            SpdOperator.from_dense([[2.0, 1.0], [0.0, 2.0]])


class TestExtremeEigenvalues:
    def test_identity(self):
        lo, hi = extreme_eigenvalues(np.eye(5))
        assert (lo, hi) == (1.0, 1.0)

    def test_diagonal(self):
        lo, hi = extreme_eigenvalues(np.diag([1.0, 3.0, 7.0]))
        assert (lo, hi) == (1.0, 7.0)

    @pytest.mark.parametrize("n", [3, 7, 15])
    def test_laplacian_closed_form(self, n):
        w = laplacian_eigs(n)
        lo, hi = extreme_eigenvalues(dirichlet_laplacian(n).dense())
        assert_allclose([lo, hi], [w[0], w[-1]], rtol=1e-8)
        # banded fast path agrees
        lo2, hi2 = dirichlet_laplacian(n).extreme_eigenvalues()
        assert_allclose([lo2, hi2], [w[0], w[-1]], rtol=1e-8)

    def test_size3_exact_form(self):
        lo, hi = extreme_eigenvalues(dirichlet_laplacian(3).dense())
        assert_allclose([lo, hi], [2 - np.sqrt(2), 2 + np.sqrt(2)], rtol=1e-12)

    def test_dense_limit(self):
        with pytest.raises(ValueError):
            extreme_eigenvalues(np.eye(8), dense_limit=4)


def random_tridiagonal_spd(rng, n):
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(0.1, 2.0, n)
    diag[1:] += np.abs(off)
    diag[:-1] += np.abs(off)
    return SpdOperator.tridiagonal(diag, off)


class TestPencilEigenvalues:
    @pytest.mark.parametrize("n", [3, 64, 1023])
    def test_banded_pencil_matches_dense_eigh(self, n):
        rng = np.random.default_rng(n)
        h, a = random_tridiagonal_spd(rng, n), random_tridiagonal_spd(rng, n)
        w = sla.eigh(h.dense(), a.dense(), eigvals_only=True)
        assert_allclose(extreme_eigenvalues(h, a), [w[0], w[-1]], rtol=1e-10)

    def test_repeats_bitwise(self):
        rng = np.random.default_rng(5)
        h, a = random_tridiagonal_spd(rng, 200), random_tridiagonal_spd(rng, 200)
        assert extreme_eigenvalues(h, a) == extreme_eigenvalues(h, a)

    def test_size_limit_only_for_dense_inputs(self):
        rng = np.random.default_rng(6)
        h, a = random_tridiagonal_spd(rng, 8), random_tridiagonal_spd(rng, 8)
        w = sla.eigh(h.dense(), a.dense(), eigvals_only=True)
        got = extreme_eigenvalues(h, a, dense_limit=4)
        assert_allclose(got, [w[0], w[-1]], rtol=1e-10)
        with pytest.raises(ValueError, match="refused"):
            extreme_eigenvalues(SpdOperator.from_dense(h.dense()), a, dense_limit=4)

    def test_small_and_dense_pencils_take_the_dense_solve(self):
        rng = np.random.default_rng(7)
        for n in (1, 2):
            h, a = random_tridiagonal_spd(rng, n), random_tridiagonal_spd(rng, n)
            w = sla.eigh(h.dense(), a.dense(), eigvals_only=True)
            assert extreme_eigenvalues(h, a) == (w[0], w[-1])
        m = random_spd(rng, 6)
        w = sla.eigh(m, np.diag(np.arange(1.0, 7.0)), eigvals_only=True)
        assert extreme_eigenvalues(m, np.diag(np.arange(1.0, 7.0))) == (w[0], w[-1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            extreme_eigenvalues(dirichlet_laplacian(5), dirichlet_laplacian(6))

    def test_package_import_leaves_scipy_sparse_unloaded(self):
        # the sparse modules load on the first pencil or stability call
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", "import sys, subspace_descent; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestSpdOperatorStorage:
    def test_banded_dense_agree(self):
        rng = np.random.default_rng(2)
        n = 9
        diag = 2.0 + rng.random(n)
        off = -rng.random(n - 1) * 0.5
        banded = SpdOperator.tridiagonal(diag, off)
        dense = SpdOperator.from_dense(banded.dense())
        x = rng.standard_normal(n)
        assert_allclose(banded.matvec(x), dense.matvec(x), rtol=1e-14)
        b = rng.standard_normal(n)
        assert_allclose(banded.solve(b), dense.solve(b), rtol=1e-9)

    def test_matvec_tridiag(self):
        a = dirichlet_laplacian(3)
        assert_allclose(a.matvec([1.0, 1.0, 1.0]), [1.0, 0.0, 1.0], rtol=0, atol=0)

    def test_symmetrized_exactly(self):
        m = np.array([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
        a = SpdOperator.from_dense(m)
        d = a.dense()
        assert np.array_equal(d, d.T)

    def test_diagonal_banded(self):
        a = dirichlet_laplacian(4, scale=3.0)
        assert_allclose(a.diagonal(), 6.0 * np.ones(4), rtol=0)

    @pytest.mark.parametrize("n", [1, 2, 63])
    def test_identity_equals_the_lapack_factor(self, n):
        eye = SpdOperator.identity(n)
        factored = SpdOperator.tridiagonal(np.ones(n), np.zeros(n - 1))
        assert eye._factor.tobytes() == factored._factor.tobytes()
        assert eye._factor.flags.f_contiguous == factored._factor.flags.f_contiguous
        assert eye.bands[0].tolist() == [1.0] * n and eye.bands[1].tolist() == [0.0] * (n - 1)
        b = np.random.default_rng(n).standard_normal(n)
        assert eye.solve(b).tobytes() == factored.solve(b).tobytes() == b.tobytes()
        with pytest.raises(ValueError):
            SpdOperator.identity(0)

    def test_dimension_checks(self):
        a = dirichlet_laplacian(4)
        with pytest.raises(DimensionMismatchError):
            a.matvec(np.ones(5))
        with pytest.raises(DimensionMismatchError):
            SpdOperator.tridiagonal(np.ones(4), np.zeros(4))


def test_dirichlet_laplacian_entries():
    d = dirichlet_laplacian(4).dense()
    expect = np.array(
        [
            [2, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -1, 2, -1],
            [0, 0, -1, 2],
        ],
        dtype=float,
    )
    assert np.array_equal(d, expect)
    assert_allclose(dirichlet_laplacian(3, scale=2.0).dense()[0, 0], 4.0)
    with pytest.raises(ValueError):
        dirichlet_laplacian(0)
