import numpy as np
import pytest
import scipy.sparse as sp

from iwgfem.analysis import example1
from iwgfem.assembly import assemble_system
from iwgfem.mesh import build_mesh
from reference import jacobi_cg
from iwgfem.solver import (
    NoConvergence,
    NotPositiveDefinite,
    SolverConfig,
    solve,
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
        x, stats = solve(a, b, SolverConfig(method=method))
        assert stats.residual < 1e-11

    def test_not_positive_definite(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(NotPositiveDefinite):
            solve(a, np.array([1.0, 1.0]), SolverConfig(method="cholesky"))

    def test_cg_budget_exhaustion(self):
        rng = np.random.default_rng(1)
        b_mat = rng.standard_normal((50, 50))
        a = sp.csr_matrix(b_mat @ b_mat.T + 1e-6 * np.eye(50))
        with pytest.raises(NoConvergence):
            solve(a, rng.standard_normal(50), SolverConfig(method="cg", cg_max_iter=3))

    def test_direct_and_cg_agree_on_assembled_system(self):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(2, ms.interface)
        system, _ = assemble_system(mesh, 1, 1.0, 10.0, ms.f, ms.g)
        x_direct, _ = solve(system.matrix, system.rhs, SolverConfig(method="cholesky"))
        x_cg, stats = solve(
            system.matrix, system.rhs, SolverConfig(method="cg", cg_tol=1e-13)
        )
        assert np.max(np.abs(x_direct - x_cg)) < 1e-9
        assert stats.iterations > 0

    def test_in_place_cg_matches_the_allocating_loop(self):
        # The in-place updates and the CSR matvec do the reference's
        # arithmetic in the same order, so the iterates agree bit for bit.
        ms = example1(1.0, 1000.0)
        mesh = build_mesh(1, ms.interface, n_override=16)
        system, _ = assemble_system(mesh, 2, 1.0, 1000.0, ms.f, ms.g, mode="arc")
        x, stats = solve(system.matrix, system.rhs, SolverConfig(method="cg"))
        x_ref, iters = jacobi_cg(system.matrix, system.rhs)
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
        x, _ = solve(shuffled, b, SolverConfig(method="cg"))
        np.testing.assert_array_equal(x, solve(a, b, SolverConfig(method="cg"))[0])
        assert not shuffled.has_sorted_indices  # the caller's matrix is left as it was

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        b_mat = rng.standard_normal((20, 20))
        a = sp.csr_matrix(b_mat @ b_mat.T + 20 * np.eye(20))
        b = rng.standard_normal(20)
        for method in ("cholesky", "cg"):
            x1, _ = solve(a, b, SolverConfig(method=method))
            x2, _ = solve(a, b, SolverConfig(method=method))
            np.testing.assert_array_equal(x1, x2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="gmres")
        with pytest.raises(ValueError):
            SolverConfig(cg_tol=2.0)
        with pytest.raises(ValueError):
            SolverConfig(cg_max_iter=0)
