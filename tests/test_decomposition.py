import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from packing import galerkin, mixed_family, pack, parts_of, prolongation
from subspace_descent.analysis import (
    decomposition_identity_check,
    expected_decay_check,
)
from subspace_descent.decomposition import (
    Decomposition,
    block_decomposition,
    coordinate_decomposition,
    export_decomposition,
    multilevel_nodal_decomposition,
    rcd_column_lipschitz,
    stability_constant,
    with_local_lipschitz,
    with_quadratic_lipschitz,
)
from subspace_descent.linalg import (
    DimensionMismatchError,
    SpdOperator,
    a_inner_product,
    dirichlet_laplacian,
)
from subspace_descent.objectives import nesterov_worst
from subspace_descent.solvers import QuadraticEnergyLocal, SolverConfig, run_solver


def columns(d):
    """The (n, sum k) matrix of every basis column, prolonged."""
    return np.column_stack([d.prolong(e) for e in np.eye(d.slots[-1])])


class TestCoordinate:
    def test_identity_metric(self):
        d = coordinate_decomposition(3)
        assert len(d) == 3
        for i in range(3):
            support, basis = d.basis(i)
            assert np.array_equal(support, [i]) and np.array_equal(basis, [[1.0]])
        assert np.array_equal(d.k, [1, 1, 1]) and np.array_equal(d.scalars, np.ones(3))
        assert d.stability_constant == pytest.approx(1.0, abs=1e-12)

    def test_laplacian_metric_locals(self):
        d = coordinate_decomposition(2, dirichlet_laplacian(2))
        assert np.array_equal(d.scalars, [2.0, 2.0])

    def test_prolongation_columns_are_units(self):
        assert np.array_equal(columns(coordinate_decomposition(4)), np.eye(4))


class TestBlock:
    def test_two_blocks_identity(self):
        d = block_decomposition([[0, 1], [2]], SpdOperator.identity(3))
        assert len(d) == 2
        assert np.array_equal(d.local(0), np.eye(2)) and d.local(1).tolist() == [[1.0]]
        assert d.groups[2].tolist() == [0] and d.scalars[1] == 1.0
        assert np.array_equal(d.inverses[2], [np.eye(2)])

    def test_single_block_is_full_space(self):
        a = dirichlet_laplacian(4)
        d = block_decomposition([[0, 1, 2, 3]], a)
        assert len(d) == 1
        assert np.array_equal(d.local(0), a.dense())
        assert d.stability_constant == pytest.approx(1.0, abs=1e-12)

    def test_laplacian_submatrix(self):
        d = block_decomposition([[0, 1], [2, 3]], dirichlet_laplacian(4))
        assert np.array_equal(d.local(0), [[2.0, -1.0], [-1.0, 2.0]])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            block_decomposition([[0, 1], [1, 2]], SpdOperator.identity(3))

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            block_decomposition([[0], [2]], SpdOperator.identity(3))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            block_decomposition([[0, 3]], SpdOperator.identity(3))


class TestMultilevelNodal:
    def test_level3_counts_and_hats(self):
        d = multilevel_nodal_decomposition(3)
        assert len(d) == 11
        # eighth subspace: first hat of the middle level
        support, basis = d.basis(7)
        full = np.zeros(7)
        full[support] = basis[:, 0]
        assert np.array_equal(full, [0.5, 1.0, 0.5, 0, 0, 0, 0])
        # last subspace: the single coarsest hat spanning the domain
        assert np.array_equal(
            d.basis(10)[1][:, 0], [0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25]
        )

    def test_level1_single_node(self):
        d = multilevel_nodal_decomposition(1)
        assert len(d) == 1
        assert np.array_equal(columns(d), [[1.0]])

    def test_finest_level_comes_first(self):
        d = multilevel_nodal_decomposition(3)
        for i in range(7):
            support, basis = d.basis(i)
            assert d.k[i] == 1
            assert np.array_equal(support, [i])
            assert np.array_equal(basis, [[1.0]])

    @pytest.mark.parametrize("level", range(1, 13))
    def test_count_formula(self, level):
        d = multilevel_nodal_decomposition(level)
        assert len(d) == 2 * (2**level - 1) - level

    def test_counts_match_reference_sequence(self):
        got = [len(multilevel_nodal_decomposition(l)) for l in range(3, 13)]
        assert got == [11, 26, 57, 120, 247, 502, 1013, 2036, 4083, 8178]

    @pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
    def test_surjective(self, level):
        d = multilevel_nodal_decomposition(level)
        n = d.ambient_dimension
        assert np.linalg.matrix_rank(columns(d)) == n

    def test_level_attribute_recorded(self):
        d = multilevel_nodal_decomposition(3)
        assert d.level.tolist() == [3] * 7 + [2] * 3 + [1]

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            multilevel_nodal_decomposition(0)

    def test_metric_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            multilevel_nodal_decomposition(3, metric=dirichlet_laplacian(5))


class TestGalerkin:
    def test_identity_prolongation_returns_metric(self):
        a = dirichlet_laplacian(3)
        g = pack(a, [(range(3), np.eye(3))]).local(0)
        assert_allclose(g, a.dense(), rtol=0, atol=0)

    def test_interior_hat_energy(self):
        # a hat of stride s has 2s edges of slope 1/s: energy 2/s
        n = 15
        a = dirichlet_laplacian(n)
        for stride, peak in [(2, 3), (4, 7)]:
            hat = np.maximum(
                0.0, 1.0 - np.abs(np.arange(1, n + 1) - (peak + 1)) / stride
            )
            sup = np.flatnonzero(hat)
            g = pack(a, [(sup, hat[sup])]).scalars
            assert_allclose(g, [2.0 / stride], rtol=1e-14)

    def test_coarsest_hat_seven(self):
        a = dirichlet_laplacian(7)
        hat = np.array([0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25])
        g = pack(a, [(range(7), hat)]).scalars
        assert_allclose(g, [0.5], rtol=1e-14)

    @pytest.mark.parametrize("level", [3, 4])
    def test_reproduces_metric_inner_product(self, level):
        d = multilevel_nodal_decomposition(level)
        a = d.preconditioner
        rng = np.random.default_rng(level)
        for i in range(len(d)):
            for _ in range(5):
                v = rng.standard_normal(d.k[i])
                lhs = float(v @ QuadraticEnergyLocal(d, i).matrix @ v)
                pv = prolongation(d, i) @ v
                rhs = a_inner_product(a, pv, pv)
                assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


class TestLocalLipschitz:
    def test_hessian_equals_metric(self):
        d = multilevel_nodal_decomposition(3)
        lip = with_quadratic_lipschitz(d, d.preconditioner).lipschitz
        assert_allclose(lip, 1.0, rtol=0, atol=1e-12)

    def test_scaling(self):
        d = multilevel_nodal_decomposition(3)
        lip = with_quadratic_lipschitz(d, dirichlet_laplacian(7, scale=2.0)).lipschitz
        assert_allclose(lip, 2.0, rtol=1e-12)

    def test_one_dimensional_is_rayleigh_quotient(self):
        a = dirichlet_laplacian(5)
        rng = np.random.default_rng(6)
        w = rng.standard_normal((5, 5))
        h = SpdOperator.from_dense(w @ w.T + 5 * np.eye(5))
        d = with_quadratic_lipschitz(coordinate_decomposition(5, a), h)
        hd = h.dense()
        for i in range(5):
            phi = np.zeros(5)
            phi[i] = 1.0
            expect = (phi @ hd @ phi) / a_inner_product(a, phi, phi)
            assert d.lipschitz[i] == pytest.approx(expect, rel=1e-12)


    def test_nonpositive_constant_named(self):
        d = multilevel_nodal_decomposition(3)
        with pytest.raises(ValueError, match="subspace 3 has 0.0"):
            with_quadratic_lipschitz(d, nesterov_worst(7, 3).hessian_matrix)
        with pytest.raises(ValueError, match="subspace 1 has -2.0"):
            with_local_lipschitz(d, [1.0, -2.0] + [1.0] * (len(d) - 2))


class TestRcdColumn:
    def test_laplacian_columns(self):
        h = dirichlet_laplacian(5)
        assert_allclose(
            rcd_column_lipschitz(h), np.sqrt([5.0, 6.0, 6.0, 6.0, 5.0]), rtol=1e-15
        )

    def test_identity(self):
        assert np.array_equal(rcd_column_lipschitz(SpdOperator.identity(4)), np.ones(4))

    def test_banded_summation_order(self):
        # d_i^2 + e_{i-1}^2 + e_i^2 in that order, so rcd traces keep their bits
        rng = np.random.default_rng(5)
        d, e = 4.0 + rng.random(200), rng.standard_normal(199)
        expect = [d[0] ** 2 + e[0] ** 2]
        expect += [d[i] ** 2 + e[i - 1] ** 2 + e[i] ** 2 for i in range(1, 199)]
        expect += [d[199] ** 2 + e[198] ** 2]
        got = rcd_column_lipschitz(SpdOperator.tridiagonal(d, e))
        assert np.array_equal(got, np.sqrt(expect))

    def test_matches_dense_norm(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((6, 6))
        m = w @ w.T + 6 * np.eye(6)
        got = rcd_column_lipschitz(SpdOperator.from_dense(m))
        assert_allclose(got, [np.linalg.norm(m[:, i]) for i in range(6)], rtol=1e-14)


def reference_stability_constant(d):
    """``1 / lambda_min(B A)`` from the dense B, summed one outer product
    (or block) per subspace from dense arrays, and a dense generalized
    eigensolve."""
    n = d.ambient_dimension
    ad = d.preconditioner.dense()
    b = np.zeros((n, n))
    for i in range(len(d)):
        support, basis = d.basis(i)
        local = basis.T @ ad[np.ix_(support, support)] @ basis
        b[np.ix_(support, support)] += basis @ np.linalg.solve(local, basis.T)
    return 1.0 / sla.eigh(ad @ b @ ad, ad, eigvals_only=True)[0]


class TestStabilityConstant:
    def test_coordinate_identity(self):
        d = coordinate_decomposition(5)
        assert stability_constant(d) == pytest.approx(1.0, abs=1e-12)

    def test_full_space_block(self):
        a = dirichlet_laplacian(6)
        d = block_decomposition([list(range(6))], a)
        assert stability_constant(d) == pytest.approx(1.0, abs=1e-12)

    def test_multilevel_level3_in_band(self):
        c = stability_constant(multilevel_nodal_decomposition(3))
        assert 1.0 <= c + 1e-12 <= 5.0

    @pytest.mark.parametrize("level", range(3, 11))
    def test_level_independent_bound(self, level):
        base = stability_constant(multilevel_nodal_decomposition(3))
        c = stability_constant(multilevel_nodal_decomposition(level))
        assert c <= 2.0 * base + 1e-9

    def test_reordering_invariance(self):
        d = multilevel_nodal_decomposition(3)
        c = stability_constant(d)
        rng = np.random.default_rng(0)
        order = rng.permutation(len(d))
        parts = parts_of(d)
        shuffled = pack(d.preconditioner, [parts[i] for i in order])
        assert stability_constant(shuffled) == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("level", [5, 7])
    def test_matrix_free_matches_dense(self, level):
        d = multilevel_nodal_decomposition(level)
        dense = stability_constant(d)
        est = stability_constant(d, dense_limit=4)
        assert est == pytest.approx(dense, rel=1e-6)
        assert stability_constant(d, dense_limit=4) == est

    @pytest.mark.parametrize("case", [*range(3, 11), "mixed", "shuffled", "dense"])
    def test_matches_outer_product_reference(self, case):
        if case == "mixed":
            d = mixed_family()
        elif case == "shuffled":
            d = mixed_family()
            order = np.random.default_rng(1).permutation(len(d))
            d = pack(d.preconditioner, [parts_of(d)[i] for i in order])
        elif case == "dense":
            w = np.random.default_rng(2).standard_normal((15, 15))
            metric = SpdOperator.from_dense(w @ w.T + 15 * np.eye(15))
            d = multilevel_nodal_decomposition(4, metric)
        else:
            d = multilevel_nodal_decomposition(case)
        got = stability_constant(d)
        assert got == pytest.approx(reference_stability_constant(d), rel=1e-12)
        assert stability_constant(d) == got

    def test_redundant_splitting_is_below_one(self):
        # two copies of the coordinates: B A = 2 I, although the local
        # matrices are Galerkin
        d = pack(SpdOperator.identity(4), 2 * parts_of(coordinate_decomposition(4)))
        assert stability_constant(d) == pytest.approx(0.5, rel=1e-14)
        assert stability_constant(d, dense_limit=2) == pytest.approx(0.5, rel=1e-6)

    def test_not_spanning_raises(self):
        d = pack(SpdOperator.identity(3), parts_of(coordinate_decomposition(3))[:2])
        for limit in (3, 2):
            with pytest.raises(ValueError, match="span"):
                stability_constant(d, dense_limit=limit)

    def test_cached_on_decomposition(self):
        d = coordinate_decomposition(3)
        first = d.stability_constant
        assert d.stability_constant is first or d.stability_constant == first


class TestSubspaceMechanics:
    def test_restrict_prolong_roundtrip(self):
        d = multilevel_nodal_decomposition(3)
        rng = np.random.default_rng(1)
        g = rng.standard_normal(7)
        expect = columns(d).T @ g
        for i, lo in enumerate(d.slots[:-1]):
            support, basis = d.basis(i)
            r = basis.T @ g[support]
            assert r.shape == (d.k[i],)
            assert_allclose(r, expect[lo : lo + d.k[i]], rtol=1e-14)

    def test_solve_local_inverts(self):
        d = multilevel_nodal_decomposition(4)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(d.slots[-1])
        y = d.solve_local(b)
        assert_allclose(d.apply_local(y), b, rtol=1e-10, atol=1e-12)


# One malformed input each on R^4: (offsets, rows, vals, keywords, message).
MALFORMED = {
    "support-not-increasing-k1": (
        [0, 2], [2, 1], [1.0, 1.0], {}, "strictly increasing"
    ),
    "support-not-increasing-k2": (
        [0, 4], [1, 1, 0, 0], [1.0, 0, 0, 1.0], {"k": [2]}, "strictly increasing"
    ),
    "support-row-not-repeated-k2": (
        [0, 4], [0, 1, 2, 2], [1.0, 0, 0, 1.0], {"k": [2]}, "k times"
    ),
    "row-out-of-range": ([0, 2], [2, 4], [1.0, 1.0], {}, "out of range"),
    "row-negative": ([0, 1], [-1], [1.0], {}, "out of range"),
    "zero-basis": ([0, 1, 3], [0, 1, 2], [1.0, 0.0, 0.0], {}, "zero"),
    "rank-deficient-basis": (
        [0, 6], [0, 0, 1, 1, 2, 2], [1.0, 2.0, 0.0, 0.0, 1.0, 2.0], {"k": [2]},
        "linearly dependent",
    ),
    "run-not-divisible-by-k": (
        [0, 3], [0, 1, 2], [1.0, 1.0, 1.0], {"k": [2]}, "multiple of k"
    ),
    "lipschitz-zero": (
        [0, 1, 2], [0, 1], [1.0, 1.0], {"lipschitz": [1.0, 0.0]}, "Lipschitz"
    ),
    "lipschitz-negative": ([0, 1], [3], [1.0], {"lipschitz": [-2.0]}, "Lipschitz"),
    "vals-inf": ([0, 1, 2, 3], [0, 1, 2], [1.0, np.inf, 1.0], {}, "non-finite"),
    "vals-nan": ([0, 1, 2, 3], [0, 1, 2], [1.0, np.nan, 1.0], {}, "non-finite"),
    "lipschitz-inf": (
        [0, 1, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0], {"lipschitz": [1.0, np.inf, 1.0]},
        "non-finite",
    ),
}


class TestConstructor:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_rejects_malformed(self, case):
        offsets, rows, vals, named, message = MALFORMED[case]
        with pytest.raises(ValueError, match=message):
            Decomposition(dirichlet_laplacian(4), offsets, rows, vals, **named)

    def test_rejects_inconsistent_lengths(self):
        with pytest.raises(DimensionMismatchError):
            Decomposition(SpdOperator.identity(3), [0, 1, 2], [0, 1], [1.0, 1.0], k=[1])

    def test_defaults(self):
        d = Decomposition(dirichlet_laplacian(3), [0, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0])
        assert d.k.tolist() == [1, 1] and d.level.tolist() == [0, 0]
        assert d.lipschitz.tolist() == [1.0, 1.0] and d.groups == d.matrices == {}
        assert d.scalars.tolist() == [2.0, 2.0]
        assert not d.rows.flags.writeable and not d.scalars.flags.writeable


class TestFlatKernel:
    def test_matches_dense_reference(self):
        d = mixed_family()
        m = np.random.default_rng(8).standard_normal((7, 7))
        h = SpdOperator.from_dense(m @ m.T + 7.0 * np.eye(7))
        assert d.groups[2].tolist() == [11, 12] and d.slots[-1] == len(d) + 2
        v = np.random.default_rng(3).standard_normal(7)
        c = d.restrict(v)
        solved, applied = d.solve_local(c), d.apply_local(c)
        curved = d.apply_local(c, h)
        total = np.zeros(7)
        for i, lo in enumerate(d.slots[:-1]):
            at = slice(lo, lo + d.k[i])
            p, a_i = prolongation(d, i), galerkin(d, i, d.preconditioner)
            assert_allclose(c[at], p.T @ v, rtol=1e-14)
            assert_allclose(a_i @ solved[at], c[at], rtol=1e-12)
            assert_allclose(applied[at], a_i @ c[at], rtol=1e-14)
            assert_allclose(curved[at], galerkin(d, i, h) @ c[at], rtol=1e-14)
            total += p @ c[at]
        assert_allclose(d.prolong(c), total, rtol=1e-14)

    def test_local_energies_cached_per_operator(self):
        d = mixed_family()
        h = dirichlet_laplacian(7, scale=1.5)
        scal, local = d.local_energies(h)
        assert d.local_energies(h)[1] is local and local.keys() == d.groups.keys() == {2}
        for i in range(len(d)):
            expect = galerkin(d, i, h)
            got = d.local(i, (scal, local))
            assert_allclose(got, expect, rtol=1e-14)
        assert with_quadratic_lipschitz(d, h).local_energies(h)[1] is local

    def test_theory_tools_run_on_the_kernel(self):
        obj = nesterov_worst(63)
        d = with_quadratic_lipschitz(multilevel_nodal_decomposition(6), obj.hessian)
        rng = np.random.default_rng(0)
        assert decomposition_identity_check(rng.standard_normal(63), d).passed
        assert expected_decay_check(rng.standard_normal(63), obj, d).passed
        assert stability_constant(d) == pytest.approx(1.0, abs=1e-9)
        # the matrix-free path applies B through the kernel too
        small = multilevel_nodal_decomposition(4)
        assert stability_constant(small, dense_limit=4) == pytest.approx(1.0, rel=1e-6)


def random_tridiagonal(n, seed):
    """A random SPD tridiagonal operator with non-dyadic bands."""
    rng = np.random.default_rng(seed)
    off = -(0.5 + 0.5 * rng.random(n - 1))
    return SpdOperator.tridiagonal(2.0 + rng.random(n), off)


def applied_rows(d, applied, i):
    """Rows and (rows, k) values of subspace i's ``M P_i`` in ``applied``."""
    offsets, rows, vals = applied
    k, at = int(d.k[i]), slice(offsets[i], offsets[i + 1])
    assert rows[at].tolist() == np.repeat(rows[at][::k], k).tolist()
    return rows[at][::k], vals[at].reshape(-1, k)


class TestAppliedBasis:
    @pytest.mark.parametrize("level", range(1, 9))
    def test_hats_match_dense_stencil(self, level):
        h = nesterov_worst(2**level - 1).hessian
        d = multilevel_nodal_decomposition(level)
        offsets, rows, vals = d.applied(h)
        dense = h.dense()
        for i in range(len(d)):
            col = dense @ prolongation(d, i)[:, 0]
            at = slice(offsets[i], offsets[i + 1])
            assert rows[at].tolist() == np.flatnonzero(col).tolist()
            assert vals[at].tolist() == col[col != 0].tolist()

    def test_every_hat_has_at_most_three_entries(self):
        # the coarse-grid stencil: O(1) work per step, O(J) memory
        for level in range(1, 14):
            d = multilevel_nodal_decomposition(level)
            offsets = d.applied(nesterov_worst(2**level - 1).hessian)[0]
            assert offsets[-1] <= 3 * len(d) and np.diff(offsets).max() <= 3

    def test_blocks_and_gaps_match_dense_stencil(self):
        # the mixed family's k = 2 bases and its support {0, 3, 5}, whose
        # runs {3} and {5} share row 4: every nonzero row once, in order
        d = mixed_family()
        h = nesterov_worst(7).hessian
        applied = d.applied(h)
        for i in [*d.groups[2], len(d) - 1]:
            product = h.dense() @ prolongation(d, i)
            rows, vals = applied_rows(d, applied, i)
            nonzero = np.flatnonzero(product.any(axis=1))
            assert rows.tolist() == nonzero.tolist()
            assert vals.tolist() == product[nonzero].tolist()
        assert applied_rows(d, applied, len(d) - 1)[0].tolist() == list(range(7))

    @pytest.mark.parametrize("family", ["hats", "mixed"])
    def test_random_tridiagonal_matches_matvec(self, family):
        d = multilevel_nodal_decomposition(6) if family == "hats" else mixed_family()
        n = d.ambient_dimension
        h = random_tridiagonal(n, seed=3)
        applied = d.applied(h)
        bound = 4 * np.finfo(float).eps * np.linalg.norm(h.dense(), 2)
        if family == "hats":  # non-dyadic: the interior entries are kept
            assert np.diff(applied[0]).max() == 63  # the whole-domain hat
        for i in range(len(d)):
            p = prolongation(d, i)
            rows, vals = applied_rows(d, applied, i)
            product = np.zeros_like(p)
            product[rows] = vals
            assert np.all(np.diff(rows) > 0)
            err = np.abs(product - h.dense() @ p).max()
            assert err <= bound * np.linalg.norm(p, 2)

    @pytest.mark.parametrize("n", [1, 2, 9, 63])
    def test_one_row_supports_match_dense_stencil(self, n):
        # coordinates, and scaled single rows out of order and repeated,
        # under a band with zeros in it: the direct build, bit for bit
        off = -(0.25 + 0.25 * (np.arange(n - 1) % 3)) * (np.arange(n - 1) % 4 != 1)
        h = SpdOperator.tridiagonal(2.0 + np.arange(n) % 5, off)
        rows = np.concatenate((np.arange(n), np.arange(n)[::-1], [n // 2]))
        scattered = Decomposition(
            h, np.arange(rows.size + 1), rows, np.linspace(-1.5, 2.5, rows.size) + 0.1
        )
        for d in (coordinate_decomposition(n), scattered):
            offsets, got_rows, got_vals = d.applied(h)
            for i in range(len(d)):
                col = h.dense() @ prolongation(d, i)[:, 0]
                at = slice(offsets[i], offsets[i + 1])
                assert got_rows[at].tolist() == np.flatnonzero(col).tolist()
                assert got_vals[at].tolist() == col[col != 0].tolist()

    def test_cached_with_the_energies(self):
        d = mixed_family()
        h = random_tridiagonal(7, seed=1)
        first = d.applied(h)
        assert d.applied(h) is first
        assert with_quadratic_lipschitz(d, h).applied(h) is first
        d.local_energies(d.preconditioner)  # another operator replaces it
        again = d.applied(h)
        assert again is not first
        assert all(np.array_equal(a, b) for a, b in zip(again, first))
        with pytest.raises(ValueError, match="tridiagonal"):
            d.applied(SpdOperator.from_dense(h.dense()))


def test_export_format(tmp_path):
    d = multilevel_nodal_decomposition(3)
    p = tmp_path / "dec.txt"
    export_decomposition(d, str(p))
    lines = p.read_text().splitlines()
    assert len(lines) == 11
    first = lines[0].split()
    assert first[:4] == ["0", "3", "1", "1.0"]
    assert first[4] == "0:1.0"
    # last line holds the coarsest hat with its seven weighted entries
    tail = lines[-1].split()
    assert tail[:4] == ["10", "1", "1", "1.0"]
    assert tail[4:] == [
        "0:0.25",
        "1:0.5",
        "2:0.75",
        "3:1.0",
        "4:0.75",
        "5:0.5",
        "6:0.25",
    ]


def per_hat_reference(level, hessian):
    """Hats built one at a time: (support, values, A_i, L_i, level) each."""
    n = 2**level - 1
    a = dirichlet_laplacian(n).dense()
    h = hessian.dense()
    out = []
    for l in range(level, 0, -1):
        stride = 2 ** (level - l)
        for j in range(1, 2**l):
            centre = j * stride
            lo, hi = max(1, centre - stride + 1), min(n, centre + stride - 1)
            idx = np.arange(lo, hi + 1)
            vals = 1.0 - np.abs(idx - centre) / stride
            sup = idx - 1
            energy = vals @ a[np.ix_(sup, sup)] @ vals
            curvature = vals @ h[np.ix_(sup, sup)] @ vals
            out.append((sup, vals, energy, curvature / energy, l))
    return out


class TestFlatLayout:
    @pytest.mark.parametrize("level", range(3, 11))
    def test_builder_matches_per_hat_reference(self, level):
        n = 2**level - 1
        d = multilevel_nodal_decomposition(level)
        assert np.array_equal(d.k, np.ones(len(d)))
        for scale in (1.0, 1.5):
            h = dirichlet_laplacian(n, scale=scale)
            ref = per_hat_reference(level, h)
            assert len(ref) == len(d)
            lip = with_quadratic_lipschitz(d, h).lipschitz
            for i, (sup, vals, energy, lipschitz, lev) in enumerate(ref):
                lo, hi = d.offsets[i], d.offsets[i + 1]
                assert np.array_equal(d.rows[lo:hi], sup)
                assert np.array_equal(d.vals[lo:hi], vals)
                # dyadic hat values: the energies are exact in any order
                assert d.scalars[i] == energy
                assert d.level[i] == lev
                if scale == 1.0:
                    assert lip[i] == lipschitz == 1.0
                else:
                    assert lip[i] == pytest.approx(lipschitz, rel=1e-14)

    def test_level12_setup_stays_small(self):
        # A dense |support|^2 window for the coarsest hat alone is 128 MiB.
        obj = nesterov_worst(4095)
        tracemalloc.start()
        try:
            d = multilevel_nodal_decomposition(12)
            d = with_quadratic_lipschitz(d, obj.hessian)
            cfg = SolverConfig(method="rfasd", sampler="cyclic", max_iterations=0)
            run_solver(cfg, obj, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_packs_shuffled_hats_and_blocks(self):
        a = dirichlet_laplacian(7)
        hats = multilevel_nodal_decomposition(3)
        blocks = block_decomposition([[0, 1, 2], [3, 4], [5], [6]], a)
        skew = ([1, 3, 4], np.array([[1.0, 0.5], [0.0, 1.0], [2.0, -1.0]]))
        pool = [*parts_of(hats), *parts_of(blocks), skew]
        levels = [*hats.level, *blocks.level, 0]
        order = np.random.default_rng(4).permutation(len(pool))
        parts = [pool[i] for i in order]
        d = pack(a, parts, lipschitz=1.0 + order, level=[levels[i] for i in order])
        k = [np.shape(b)[1] for _, b in parts]
        assert d.k.tolist() == k
        for (sup, basis), lo, hi in zip(parts, d.offsets[:-1], d.offsets[1:]):
            assert np.array_equal(d.rows[lo:hi], np.repeat(sup, np.shape(basis)[1]))
            assert np.array_equal(d.vals[lo:hi], np.ravel(basis))
        assert {c: g.tolist() for c, g in d.groups.items()} == {
            c: [i for i, ci in enumerate(k) if ci == c] for c in (2, 3)
        }
        # basis(i) reads the arrays back, and a copy shares them
        copy = with_local_lipschitz(d, d.lipschitz)
        assert copy.rows is d.rows and copy.vals is d.vals
        assert copy.matrices is d.matrices and copy.inverses is d.inverses
        dense = a.dense()
        for i, (sup, basis) in enumerate(parts):
            got_support, got_basis = copy.basis(i)
            assert np.array_equal(got_support, sup)
            assert np.array_equal(got_basis, basis)
            local = basis.T @ dense[np.ix_(sup, sup)] @ basis
            assert_allclose(QuadraticEnergyLocal(copy, i).matrix, local, rtol=1e-14)
            lip, lev = copy.lipschitz[i], copy.level[i]
            assert (lip, lev) == (1.0 + order[i], levels[order[i]])
        h = dirichlet_laplacian(7, scale=1.5)
        expect = []
        for sup, basis in parts:
            hloc = basis.T @ h.dense()[np.ix_(sup, sup)] @ basis
            aloc = basis.T @ dense[np.ix_(sup, sup)] @ basis
            expect.append(sla.eigh(hloc, aloc, eigvals_only=True)[-1])
        assert_allclose(with_quadratic_lipschitz(d, h).lipschitz, expect, rtol=1e-14)
        assert stability_constant(d, dense_limit=4) == pytest.approx(
            stability_constant(d), rel=1e-4
        )
