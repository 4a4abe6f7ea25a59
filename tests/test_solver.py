import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sl
import scipy.sparse as sp

from iwgfem.analysis import example1
from iwgfem.assembly import assemble_system, build_level_plan, coarse_basis
from iwgfem.mesh import build_mesh
from reference import allocating_cg, run_level, wg0_columns
from test_assembly import one, zero
import iwgfem.solver as solver_module
from iwgfem.solver import (
    NoConvergence,
    NotPositiveDefinite,
    _deflation,
    _factor,
    _preconditioner,
    _sorted_csr,
    solve,
    superlu,
)


class TestSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        x, stats = solve(sp.eye(3, format="csr"), b)
        np.testing.assert_allclose(x, b, atol=1e-14)
        assert stats.residual < 1e-14

    def test_hand_2x2(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x, _ = solve(a, np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("method", ["cholesky", "cg"])
    def test_random_spd(self, method):
        rng = np.random.default_rng(0)
        b_mat = rng.standard_normal((30, 30))
        a = sp.csr_matrix(b_mat @ b_mat.T + 30 * np.eye(30))
        b = rng.standard_normal(30)
        x, stats = solve(a, b, method)
        assert stats.residual < 1e-11

    def test_not_positive_definite(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(NotPositiveDefinite):
            solve(a, np.array([1.0, 1.0]), "cholesky")

    def test_singular(self):
        with pytest.raises(NotPositiveDefinite, match="factorization failed"):
            solve(sp.csr_matrix(np.ones((2, 2))), np.ones(2))

    def test_a_factor_from_another_thread_is_joined_and_checked(self):
        # A factorization the caller started in a worker gives the same x, and
        # a failed or indefinite one raises the direct path's typed error.
        rng = np.random.default_rng(0)
        b_mat = rng.standard_normal((30, 30))
        a = sp.csc_matrix(b_mat @ b_mat.T + 30 * np.eye(30))
        b = rng.standard_normal(30)
        indefinite = sp.csc_matrix(np.diag([1.0, -1.0]))
        singular = sp.csc_matrix(np.ones((2, 2)))
        with ThreadPoolExecutor(max_workers=1) as worker:
            x, stats = solve(a, b, factor=worker.submit(superlu, a))
            with pytest.raises(NotPositiveDefinite, match="non-positive pivot"):
                solve(indefinite, np.ones(2), factor=worker.submit(superlu, indefinite))
            with pytest.raises(NotPositiveDefinite, match="factorization failed"):
                solve(singular, np.ones(2), factor=worker.submit(superlu, singular))
        x_here, stats_here = solve(a, b)
        np.testing.assert_array_equal(x, x_here)
        assert stats == stats_here

    def test_unknown_method_is_refused(self):
        with pytest.raises(ValueError, match="unknown method 'gmres'"):
            solve(sp.eye(2, format="csr"), np.ones(2), "gmres")

    def test_cg_budget_exhaustion(self, monkeypatch):
        rng = np.random.default_rng(1)
        b_mat = rng.standard_normal((50, 50))
        a = sp.csr_matrix(b_mat @ b_mat.T + 1e-6 * np.eye(50))
        monkeypatch.setattr(solver_module, "CG_MAX_ITER", 3)
        with pytest.raises(NoConvergence):
            solve(a, rng.standard_normal(50), "cg")

    def test_direct_and_cg_agree_on_assembled_system(self, monkeypatch):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(2, ms.interface)
        system, _ = assemble_system(build_level_plan(mesh, 1, ms.f), 1.0, 10.0, ms.g)
        x_direct, _ = solve(system.matrix, system.rhs, "cholesky")
        monkeypatch.setattr(solver_module, "CG_TOL", 1e-13)
        x_cg, stats = solve(system.matrix, system.rhs, "cg")
        assert np.max(np.abs(x_direct - x_cg)) < 1e-9
        assert stats.iterations > 0

    def test_in_place_cg_matches_the_allocating_loop(self):
        # The in-place updates and the CSR matvec do the reference's
        # arithmetic in the same order, so the iterates agree bit for bit.
        ms = example1(1.0, 1000.0)
        mesh = build_mesh(1, ms.interface, n_override=16)
        system, _ = assemble_system(build_level_plan(mesh, 2, ms.f), 1.0, 1000.0, ms.g, "arc")
        x, stats = solve(system.matrix, system.rhs, "cg")
        x_ref, iters = allocating_cg(system.matrix, system.rhs)
        assert stats.iterations == iters > 0
        np.testing.assert_array_equal(x, x_ref)

    def test_cg_sorts_a_non_canonical_matrix(self):
        rng = np.random.default_rng(3)
        b_mat = rng.standard_normal((20, 20))
        a = sp.csr_matrix(b_mat @ b_mat.T + 20 * np.eye(20))
        b = rng.standard_normal(20)
        shuffled = a.copy()
        for i in range(20):
            row = slice(shuffled.indptr[i], shuffled.indptr[i + 1])
            order = rng.permutation(row.stop - row.start)
            shuffled.indices[row] = shuffled.indices[row][order]
            shuffled.data[row] = shuffled.data[row][order]
        shuffled.has_sorted_indices = False
        x, _ = solve(shuffled, b, "cg")
        np.testing.assert_array_equal(x, solve(a, b, "cg")[0])
        assert not shuffled.has_sorted_indices  # the caller's matrix is left as it was

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        b_mat = rng.standard_normal((20, 20))
        a = sp.csr_matrix(b_mat @ b_mat.T + 20 * np.eye(20))
        b = rng.standard_normal(20)
        for method in ("cholesky", "cg"):
            x1, _ = solve(a, b, method)
            x2, _ = solve(a, b, method)
            np.testing.assert_array_equal(x1, x2)


def contrast_level(n: int):
    """The level plan, assembled system and spaces of the N = n, k = 2, (1, 1000) level."""
    ms = example1(1.0, 1000.0)
    mesh = build_mesh(1, ms.interface, n_override=n)
    plan = build_level_plan(mesh, 2, ms.f)
    system, spaces = assemble_system(plan, 1.0, 1000.0, ms.g, "arc")
    return plan, system, spaces


@pytest.fixture(scope="module")
def contrast16():
    return contrast_level(16)


@pytest.fixture(scope="module")
def contrast_system(contrast16):
    """The assembled N = 16, k = 2, (1, 1000) system."""
    return contrast16[1]


class TestMixedPrecision:
    """The direct path's float32 factor, its float64 refinement and the float64 fallback."""

    def test_spd_matrix_singular_in_float32_falls_back(self):
        # 1 - 1e-9 rounds to 1 in float32, so the float32 factor has a zero pivot.
        a = sp.csc_matrix(np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]]))
        b = np.array([1.0, 2.0])
        x, stats = solve(a, b)
        assert stats.fallback and stats.refinements == 0 and stats.iterations == 0
        np.testing.assert_array_equal(x, _factor(a).solve(b))
        assert stats.residual < 1e-6  # the system's condition number is 2e9

    def test_refinement_that_hits_its_cap_falls_back(self, contrast_system, monkeypatch):
        a, b = contrast_system.matrix, contrast_system.rhs
        _, refined = solve(a, b)
        assert refined.refinements > 1 and not refined.fallback
        monkeypatch.setattr(solver_module, "REFINE_MAX_STEPS", 1)
        x, stats = solve(a, b)
        assert stats.fallback and stats.refinements == 0
        np.testing.assert_array_equal(x, _factor(a).solve(b))

    def test_refined_solution_matches_the_float64_factor(self):
        _, system, _ = contrast_level(32)
        a, b = sp.csc_matrix(system.matrix), system.rhs
        x, stats = solve(a, b)
        x64 = _factor(a).solve(b)
        residual64 = np.linalg.norm(a @ x64 - b) / np.linalg.norm(b)
        assert not stats.fallback and stats.iterations == 0 and 0 < stats.refinements < 10
        assert np.linalg.norm(x - x64) <= 1e-12 * np.linalg.norm(x64)
        assert stats.residual <= 2 * residual64

    def test_factor_is_float32_and_the_band_factor_float64(self, contrast16):
        plan, system, _ = contrast16
        a = sp.csc_matrix(system.matrix)
        assert superlu(a).L.dtype == np.float32
        cols = plan.dofmap.band.columns
        assert _factor(a[cols][:, cols], permc_spec="COLAMD").L.dtype == np.float64


class TestBand:
    def test_band_is_the_union_of_the_free_columns_of_each_row_block(self, contrast_system):
        dm = contrast_system.dofmap
        band = dm.band
        assert [element for element, _ in band.blocks] == dm.elements.tolist()
        for i, (_, own) in enumerate(band.blocks):
            block = dm.columns[i]
            np.testing.assert_array_equal(own, np.unique(block[block < dm.n_free]))
        np.testing.assert_array_equal(band.columns, np.unique(np.concatenate([own for _, own in band.blocks])))
        assert 0 < len(band.columns) < dm.n_free

    def test_preconditioner_matches_the_dense_inverse(self, contrast_system):
        # M^-1 = D_u^-1 + R_b^T A_bb^-1 R_b, with D_u the diagonal off the band.
        a = _sorted_csr(contrast_system.matrix)
        cols = contrast_system.dofmap.band.columns
        inv_du, band_cols, precondition = _preconditioner(a, contrast_system.dofmap.band)
        np.testing.assert_array_equal(band_cols, cols)
        dense = a.toarray()
        rest = np.setdiff1d(np.arange(len(dense)), cols)
        ref = np.zeros_like(dense)
        ref[np.ix_(cols, cols)] = sl.cho_solve(sl.cho_factor(dense[np.ix_(cols, cols)]), np.eye(len(cols)))
        ref[rest, rest] = 1.0 / dense[rest, rest]
        np.testing.assert_array_equal(inv_du[rest], ref[rest, rest])
        assert np.all(inv_du[cols] == 0.0)
        for v in np.random.default_rng(4).standard_normal((3, len(dense))):
            expected = ref @ v
            assert np.abs(precondition(v) - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_band_cg_matches_direct_in_fewer_iterations(self, contrast_system):
        a, b = contrast_system.matrix, contrast_system.rhs
        x_direct, _ = solve(a, b)
        x, stats = solve(a, b, "cg", contrast_system.dofmap.band)
        _, jacobi = solve(a, b, "cg")
        assert np.max(np.abs(x - x_direct)) <= 1e-9 * np.max(np.abs(x_direct))
        assert 0 < stats.iterations < jacobi.iterations

    def test_one_level_iterates_match_the_allocating_loop(self, contrast_system):
        # Without a coarse basis the band CG does the reference's arithmetic
        # in the same order with the same preconditioner, so the iterates
        # agree bit for bit.
        a, b = contrast_system.matrix, contrast_system.rhs
        band = contrast_system.dofmap.band
        x, stats = solve(a, b, "cg", band, coarse=None)
        x_ref, iters = allocating_cg(a, b, _preconditioner(_sorted_csr(a), band)[2])
        assert stats.iterations == iters > 0
        np.testing.assert_array_equal(x, x_ref)

    @staticmethod
    def _indefinite_pair(system, i, j):
        """The system's matrix with a_ij = a_ji = 2 sqrt(a_ii a_jj): that 2 x 2 block is indefinite."""
        a = sp.lil_matrix(system.matrix)
        a[i, j] = a[j, i] = 2.0 * np.sqrt(a[i, i] * a[j, j])
        return a.tocsr()

    def test_indefinite_band_names_its_element(self, contrast_system):
        dm = contrast_system.dofmap
        element = int(dm.elements[len(dm.elements) // 2])
        # Two interior columns of one element lie in its own block; an
        # off-diagonal entry above sqrt(a_ii a_jj) makes that block and the
        # band indefinite and keeps every diagonal entry positive.
        i = wg0_columns(dm)[element]
        a = self._indefinite_pair(contrast_system, i, i + 1)
        with pytest.raises(NotPositiveDefinite, match=f"interface element {element}: "):
            solve(a, contrast_system.rhs, "cg", dm.band)

    def test_indefinite_band_without_an_indefinite_element_names_the_band(self, contrast_system):
        # Interior columns of two elements share no element block, so every
        # element's own block stays SPD while the band's is not.
        dm = contrast_system.dofmap
        first = wg0_columns(dm)
        a = self._indefinite_pair(contrast_system, first[dm.elements[0]], first[dm.elements[-1]])
        with pytest.raises(NotPositiveDefinite, match="^interface band: "):
            solve(a, contrast_system.rhs, "cg", dm.band)


class TestCoarseLevel:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("a1, a2", [(1.0, 1.0), (1.0, 1000.0), (1000.0, 1.0)])
    def test_direct_solve_of_a_constant_is_the_coarse_vector(self, k, a1, a2):
        # A constant satisfies both jump conditions, so with f = 0 and g = 1
        # the discrete solution is its Q_0 / Q_b projection: Z's row sums.
        ms = example1(a1, a2)
        mesh = build_mesh(1, ms.interface, n_override=16)
        plan = build_level_plan(mesh, k, zero)
        system, spaces = assemble_system(plan, a1, a2, one, "segment" if k == 1 else "arc")
        z = coarse_basis(plan, spaces)
        assert z.shape == (plan.dofmap.n_free, plan.aggregates[1])
        assert np.all(np.diff(z.indptr) <= 1)  # each column lies in one aggregate
        x, _ = solve(system.matrix, system.rhs)
        assert np.max(np.abs(x - np.asarray(z.sum(axis=1)).ravel())) <= 1e-11

    def test_aggregates_are_grid_cells_split_by_the_interface(self, contrast16):
        plan = contrast16[0]
        agg, n_agg = plan.aggregates
        # C = 16 / 2 = 8 cells per side, 64 cells. The circle crosses 20 of
        # them, and 14 hold unknowns on both of its sides; in the other 6 the
        # inside part holds no node, centroid or edge midpoint. 64 + 14 = 78.
        assert n_agg == 78
        assert agg.shape == (plan.dofmap.n_free,)
        assert np.all(np.bincount(agg, minlength=n_agg) > 0)

    def test_coarse_matrix_is_exactly_symmetric_and_a_zeroed_pivot_raises(self, contrast16):
        plan, system, spaces = contrast16
        a = _sorted_csr(system.matrix)
        inv_du, cols, _ = _preconditioner(a, plan.dofmap.band)
        e, _, _ = _deflation(a, coarse_basis(plan, spaces), inv_du, cols)
        assert (e != e.T).nnz == 0
        _factor(e)
        e = e.tolil()
        e[0, 0] = 0.0
        with pytest.raises(NotPositiveDefinite):
            _factor(e)

    def test_deflation_terms_are_w_transpose(self, contrast16):
        # W_1^T r - G y_b is W^T r = Z^T r - Z^T A M^-1 r up to rounding.
        plan, system, spaces = contrast16
        a = _sorted_csr(system.matrix)
        z = coarse_basis(plan, spaces)
        inv_du, cols, precondition = _preconditioner(a, plan.dofmap.band)
        _, w1_t, g = _deflation(a, z, inv_du, cols)
        r = np.random.default_rng(5).standard_normal(a.shape[0])
        y = precondition(r)
        expected = z.T @ r - z.T @ (a @ y)
        assert np.abs(w1_t @ r - g @ y[cols] - expected).max() <= 1e-11 * np.abs(z.T @ r).max()

    def test_a_zero_coarse_column_raises(self, contrast16):
        plan, system, spaces = contrast16
        z = coarse_basis(plan, spaces).tocsc()
        z.data[z.indptr[0] : z.indptr[1]] = 0.0
        with pytest.raises(NotPositiveDefinite):
            solve(system.matrix, system.rhs, "cg", plan.dofmap.band, z)

    def test_deflated_cg_matches_direct(self, contrast16):
        plan, system, spaces = contrast16
        a, b = system.matrix, system.rhs
        x_direct, _ = solve(a, b)
        x, stats = solve(a, b, "cg", plan.dofmap.band, coarse_basis(plan, spaces))
        assert stats.iterations > 0
        assert np.max(np.abs(x - x_direct)) <= 1e-9 * np.max(np.abs(x_direct))

    def test_deflation_saves_iterations_at_high_contrast(self):
        # With the band, the 78 aggregates of H = 2h save iterations at
        # N = 16 (100 -> 55 at contrast 1000) and more from N = 32 on
        # (210 -> 69).
        plan, system, spaces = contrast_level(32)
        a, b = system.matrix, system.rhs
        _, one_level = solve(a, b, "cg", plan.dofmap.band)
        x, two_level = solve(a, b, "cg", plan.dofmap.band, coarse_basis(plan, spaces))
        assert 0 < two_level.iterations < 0.9 * one_level.iterations
        x_direct, _ = solve(a, b)
        assert np.max(np.abs(x - x_direct)) <= 1e-9 * np.max(np.abs(x_direct))

    def test_coarse_level_pays_at_the_coarsest_cg_level(self, contrast16):
        # N = 16, k = 2, (1, 1000): the band alone takes 100 iterations, the
        # two-level CG 55 (84 with H = 4h, where the coarse level cost time).
        plan, system, spaces = contrast16
        a, b = system.matrix, system.rhs
        _, one_level = solve(a, b, "cg", plan.dofmap.band)
        _, two_level = solve(a, b, "cg", plan.dofmap.band, coarse_basis(plan, spaces))
        assert 0 < two_level.iterations < 0.7 * one_level.iterations


def test_two_level_cg_is_robust_to_the_contrast():
    # N = 32, k = 2: (1000, 1) takes 94 iterations against 61 at (1, 1)
    # (163 against 115 with H = 4h); element patches in place of the band
    # took 508 against 136.
    ms = example1(1.0, 1.0)
    mesh = build_mesh(1, ms.interface, n_override=32)
    plan = build_level_plan(mesh, 2, ms.f)
    iterations = {}
    for pair in [(1.0, 1.0), (1000.0, 1.0)]:
        ms = example1(*pair)
        system, spaces = assemble_system(plan, *pair, ms.g, "arc")
        z = coarse_basis(plan, spaces)
        _, stats = solve(system.matrix, system.rhs, "cg", plan.dofmap.band, z)
        iterations[pair] = stats.iterations
    assert 0 < iterations[1000.0, 1.0] < 2 * iterations[1.0, 1.0]


def high_contrast_cg():
    """Matrix data, rhs, CG solution and iterations of the N = 64, k = 2, (1, 1000) level."""
    _, stats, _, system, _, x = run_level(example1(1.0, 1000.0), 2, 1, "arc", "cg", n_override=64)
    return {"data": system.matrix.data, "rhs": system.rhs, "x": x, "iterations": stats.iterations}


def test_cg_iterates_do_not_depend_on_the_blas_thread_count(tmp_path):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")])
    out = tmp_path / "one_thread.npz"
    code = "import sys, numpy as np, test_solver; np.savez(sys.argv[1], **test_solver.high_contrast_cg())"
    subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True, timeout=300)
    child = np.load(out)
    here = high_contrast_cg()
    np.testing.assert_array_equal(child["data"], here["data"])
    np.testing.assert_array_equal(child["rhs"], here["rhs"])
    assert int(child["iterations"]) == here["iterations"]
    np.testing.assert_array_equal(child["x"], here["x"])

