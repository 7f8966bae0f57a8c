import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from subspace_descent.decomposition import (
    Decomposition,
    Subspace,
    block_decomposition,
    coordinate_decomposition,
    export_decomposition,
    galerkin_local_matrix,
    local_lipschitz_quadratic,
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
from subspace_descent.solvers import SolverConfig, run_solver


class TestCoordinate:
    def test_identity_metric(self):
        d = coordinate_decomposition(3)
        assert len(d) == 3
        for i, s in enumerate(d):
            assert s.dimension == 1
            assert np.array_equal(s.support, [i])
            assert np.array_equal(s.local_matrix.dense(), [[1.0]])
        assert d.stability_constant == pytest.approx(1.0, abs=1e-12)

    def test_laplacian_metric_locals(self):
        d = coordinate_decomposition(2, dirichlet_laplacian(2))
        for s in d:
            assert np.array_equal(s.local_matrix.dense(), [[2.0]])

    def test_prolongation_columns_are_units(self):
        d = coordinate_decomposition(4)
        for i, s in enumerate(d):
            col = s.prolongation_dense()[:, 0]
            e = np.zeros(4)
            e[i] = 1.0
            assert np.array_equal(col, e)


class TestBlock:
    def test_two_blocks_identity(self):
        d = block_decomposition([[0, 1], [2]], SpdOperator.identity(3))
        assert len(d) == 2
        assert np.array_equal(d[0].local_matrix.dense(), np.eye(2))
        assert np.array_equal(d[1].local_matrix.dense(), [[1.0]])

    def test_single_block_is_full_space(self):
        a = dirichlet_laplacian(4)
        d = block_decomposition([[0, 1, 2, 3]], a)
        assert len(d) == 1
        assert np.array_equal(d[0].local_matrix.dense(), a.dense())
        assert d.stability_constant == pytest.approx(1.0, abs=1e-12)

    def test_laplacian_submatrix(self):
        d = block_decomposition([[0, 1], [2, 3]], dirichlet_laplacian(4))
        assert np.array_equal(
            d[0].local_matrix.dense(), [[2.0, -1.0], [-1.0, 2.0]]
        )

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
        s = d[7]
        full = np.zeros(7)
        full[s.support] = s.basis[:, 0]
        assert np.array_equal(full, [0.5, 1.0, 0.5, 0, 0, 0, 0])
        # last subspace: the single coarsest hat spanning the domain
        s = d[10]
        assert np.array_equal(
            s.basis[:, 0], [0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25]
        )

    def test_level1_single_node(self):
        d = multilevel_nodal_decomposition(1)
        assert len(d) == 1
        assert np.array_equal(d[0].prolongation_dense(), [[1.0]])

    def test_finest_level_comes_first(self):
        d = multilevel_nodal_decomposition(3)
        for i in range(7):
            s = d[i]
            assert s.dimension == 1
            assert np.array_equal(s.support, [i])
            assert s.basis[0, 0] == 1.0

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
        cols = np.hstack([s.prolongation_dense() for s in d])
        assert np.linalg.matrix_rank(cols) == n

    def test_level_attribute_recorded(self):
        d = multilevel_nodal_decomposition(3)
        assert [s.level for s in d] == [3] * 7 + [2] * 3 + [1]

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            multilevel_nodal_decomposition(0)

    def test_metric_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            multilevel_nodal_decomposition(3, metric=dirichlet_laplacian(5))


class TestGalerkin:
    def test_identity_prolongation_returns_metric(self):
        a = dirichlet_laplacian(3)
        g = galerkin_local_matrix(a, np.eye(3))
        assert_allclose(g.dense(), a.dense(), rtol=0, atol=0)

    def test_interior_hat_energy(self):
        # a hat of stride s has 2s edges of slope 1/s: energy 2/s
        n = 15
        a = dirichlet_laplacian(n)
        for stride, peak in [(2, 3), (4, 7)]:
            hat = np.maximum(
                0.0, 1.0 - np.abs(np.arange(1, n + 1) - (peak + 1)) / stride
            )
            g = galerkin_local_matrix(a, hat.reshape(-1, 1))
            assert_allclose(g.dense(), [[2.0 / stride]], rtol=1e-14)

    def test_coarsest_hat_seven(self):
        a = dirichlet_laplacian(7)
        hat = np.array([0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25])
        g = galerkin_local_matrix(a, hat.reshape(-1, 1))
        assert_allclose(g.dense(), [[0.5]], rtol=1e-14)

    def test_rank_deficient_rejected(self):
        a = SpdOperator.identity(3)
        p = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            galerkin_local_matrix(a, p)

    @pytest.mark.parametrize("level", [3, 4])
    def test_reproduces_metric_inner_product(self, level):
        d = multilevel_nodal_decomposition(level)
        a = d.preconditioner
        rng = np.random.default_rng(level)
        for s in d:
            for _ in range(5):
                v = rng.standard_normal(s.dimension)
                lhs = float(v @ s.local_matrix.dense() @ v)
                rhs = a_inner_product(a, s.prolong(v), s.prolong(v))
                assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


class TestLocalLipschitz:
    def test_hessian_equals_metric(self):
        d = multilevel_nodal_decomposition(3)
        h = d.preconditioner
        for s in d:
            assert local_lipschitz_quadratic(h, s) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_scaling(self):
        d = multilevel_nodal_decomposition(3)
        h = dirichlet_laplacian(7, scale=2.0)
        for s in d:
            assert local_lipschitz_quadratic(h, s) == pytest.approx(
                2.0, rel=1e-12
            )

    def test_one_dimensional_is_rayleigh_quotient(self):
        a = dirichlet_laplacian(5)
        rng = np.random.default_rng(6)
        w = rng.standard_normal((5, 5))
        h = SpdOperator.from_dense(w @ w.T + 5 * np.eye(5))
        d = with_quadratic_lipschitz(coordinate_decomposition(5, a), h)
        hd = h.dense()
        for i, s in enumerate(d):
            phi = np.zeros(5)
            phi[i] = 1.0
            expect = (phi @ hd @ phi) / a_inner_product(a, phi, phi)
            assert s.local_lipschitz == pytest.approx(expect, rel=1e-12)


class TestRcdColumn:
    def test_laplacian_columns(self):
        h = dirichlet_laplacian(5)
        assert rcd_column_lipschitz(h, 2) == pytest.approx(np.sqrt(6.0))
        assert rcd_column_lipschitz(h, 0) == pytest.approx(np.sqrt(5.0))
        assert rcd_column_lipschitz(h, 4) == pytest.approx(np.sqrt(5.0))

    def test_identity(self):
        h = SpdOperator.identity(4)
        for i in range(4):
            assert rcd_column_lipschitz(h, i) == 1.0

    def test_matches_dense_norm(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((6, 6))
        m = w @ w.T + 6 * np.eye(6)
        h = SpdOperator.from_dense(m)
        for i in range(6):
            assert rcd_column_lipschitz(h, i) == pytest.approx(
                np.linalg.norm(m[:, i]), rel=1e-14
            )


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
        shuffled = Decomposition(
            [d[int(i)] for i in order], d.preconditioner
        )
        assert stability_constant(shuffled) == pytest.approx(c, rel=1e-12)

    def test_power_iteration_matches_dense(self):
        d = multilevel_nodal_decomposition(5)
        dense = stability_constant(d)
        est = stability_constant(d, dense_limit=4)
        assert est == pytest.approx(dense, rel=1e-4)

    def test_cached_on_decomposition(self):
        d = coordinate_decomposition(3)
        first = d.stability_constant
        assert d.stability_constant is first or d.stability_constant == first


class TestSubspaceMechanics:
    def test_restrict_prolong_roundtrip(self):
        d = multilevel_nodal_decomposition(3)
        rng = np.random.default_rng(1)
        g = rng.standard_normal(7)
        for s in d:
            r = s.restrict(g)
            assert r.shape == (s.dimension,)
            assert_allclose(r, s.prolongation_dense().T @ g, rtol=1e-14)

    def test_add_prolonged_matches_dense(self):
        d = multilevel_nodal_decomposition(3)
        rng = np.random.default_rng(7)
        for s in d:
            x = rng.standard_normal(7)
            v = rng.standard_normal(s.dimension)
            expect = x + s.prolongation_dense() @ v
            got = x.copy()
            s.add_prolonged(got, v)
            assert_allclose(got, expect, rtol=1e-14)

    def test_solve_local_inverts(self):
        d = multilevel_nodal_decomposition(4)
        rng = np.random.default_rng(3)
        for s in d:
            b = rng.standard_normal(s.dimension)
            y = s.solve_local(b)
            assert_allclose(s.local_matrix.matvec(y), b, rtol=1e-10, atol=1e-12)

    def test_support_must_increase(self):
        with pytest.raises(ValueError):
            Subspace(
                support=np.array([2, 1]),
                basis=np.ones((2, 1)),
                ambient_dimension=4,
                local_matrix=SpdOperator.identity(1),
                local_lipschitz=1.0,
            )


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
        basis = np.array([[1.0, 0.5], [0.0, 1.0], [2.0, -1.0]])
        p = np.zeros((7, 2))
        p[[1, 3, 4]] = basis
        skew = Subspace(7, [1, 3, 4], basis, galerkin_local_matrix(a, p))
        pool = [*hats, *blocks, skew]
        subs = []
        for i in np.random.default_rng(4).permutation(len(pool)):
            s = pool[i]
            lip = 1.0 + i
            subs.append(Subspace(7, s.support, s.basis, s.local_matrix, lip, s.level))
        d = Decomposition(subs, a)
        assert d.subspaces == tuple(subs)
        assert d.k.tolist() == [s.dimension for s in subs]
        for s, lo, hi in zip(subs, d.offsets[:-1], d.offsets[1:]):
            assert np.array_equal(d.rows[lo:hi], np.repeat(s.support, s.dimension))
            assert np.array_equal(d.vals[lo:hi], s.basis.ravel())
        assert sorted(d.blocks) == [i for i, s in enumerate(subs) if s.dimension > 1]
        # a copy drops the cached views and rebuilds them from the arrays
        copy = with_local_lipschitz(d, d.lipschitz)
        for s, v in zip(subs, copy):
            assert v is not s
            assert np.array_equal(v.support, s.support)
            assert np.array_equal(v.basis, s.basis)
            assert np.array_equal(v.local_matrix.dense(), s.local_matrix.dense())
            assert (v.local_lipschitz, v.level) == (s.local_lipschitz, s.level)
        h = dirichlet_laplacian(7, scale=1.5)
        assert_allclose(
            with_quadratic_lipschitz(d, h).lipschitz,
            [local_lipschitz_quadratic(h, s) for s in subs],
            rtol=1e-14,
        )
        assert stability_constant(d, dense_limit=4) == pytest.approx(
            stability_constant(d), rel=1e-4
        )
