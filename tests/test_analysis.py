import math

import numpy as np
import pytest

from iwgfem.analysis import (
    NonPositiveError,
    check_interface_conditions,
    convergence_orders,
    example1,
    interpolation_errors,
    linear_solution,
)
from iwgfem.assembly import build_ife_spaces
from iwgfem.cli import run_level
from iwgfem.geometry import OMEGA1, OMEGA2, CircleInterface
from iwgfem.mesh import build_mesh


class CircleFixture:
    interface = CircleInterface()


class TestManufacturedSolution:
    @pytest.mark.parametrize("a2", [1.0, 10.0, 100.0, 1000.0])
    def test_interface_conditions(self, a2):
        ms = example1(1.0, a2)
        val_jump, flux_jump = check_interface_conditions(ms)
        assert val_jump < 1e-12
        assert flux_jump < 1e-12

    def test_source_against_finite_differences(self):
        # f = -div(A grad u), checked with fourth-order central differences of
        # the side extensions away from the interface.
        ms = example1(1.0, 10.0)
        h = 1e-3

        def d2(fun, x, y, axis):
            dx, dy = (h, 0.0) if axis == 0 else (0.0, h)
            return (
                -fun(x + 2 * dx, y + 2 * dy)
                + 16 * fun(x + dx, y + dy)
                - 30 * fun(x, y)
                + 16 * fun(x - dx, y - dy)
                - fun(x - 2 * dx, y - 2 * dy)
            ) / (12 * h**2)

        for x, y, side, a in [(0.2, 0.1, OMEGA1, 1.0), (0.8, 0.5, OMEGA2, 10.0)]:
            fun = lambda xx, yy: ms.u_side(xx, yy, side)
            lap = d2(fun, x, y, 0) + d2(fun, x, y, 1)
            assert abs(-a * lap - ms.f(x, y)) < 1e-6

    def test_source_is_single_smooth_expression(self):
        ms = example1(1.0, 1000.0)
        x = np.linspace(-0.99, 0.99, 101)
        f1 = ms.f(x, 0.0)
        want = 4 * np.pi * np.sin(np.pi * x**2) + 4 * np.pi**2 * x**2 * np.cos(np.pi * x**2)
        np.testing.assert_allclose(f1, want, atol=1e-13)

    def test_gradient_against_finite_differences(self):
        ms = example1(1.0, 100.0)
        h = 1e-6
        for x, y, side in [(0.25, -0.3, OMEGA1), (0.7, 0.6, OMEGA2)]:
            g = ms.grad_side(x, y, side)
            gx = (ms.u_side(x + h, y, side) - ms.u_side(x - h, y, side)) / (2 * h)
            gy = (ms.u_side(x, y + h, side) - ms.u_side(x, y - h, side)) / (2 * h)
            assert abs(g[0] - gx) < 1e-8
            assert abs(g[1] - gy) < 1e-8

    def test_boundary_data_is_outside_branch(self):
        ms = example1(1.0, 10.0)
        assert ms.g(1.0, 1.0) == pytest.approx(ms.u_side(1.0, 1.0, OMEGA2))

    def test_u_evaluates_each_side_at_its_own_points(self):
        # Against both closed forms evaluated everywhere, one kept by the
        # phi < 0 rule. The circle r = 1/2 passes exactly through (+-1/2, 0)
        # and (0, +-1/2), where phi is exactly zero.
        ms = example1(1.0, 1000.0, CircleInterface((0.0, 0.0), 0.25))
        rng = np.random.default_rng(5)
        on_circle = np.array([(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)])
        pts = np.vstack([rng.uniform(-1.0, 1.0, (300, 2)), on_circle])
        x, y = pts[:, 0], pts[:, 1]
        phi = ms.interface.value(x, y)
        assert np.count_nonzero(phi == 0.0) == 4 and np.any(phi < 0.0) and np.any(phi > 0.0)
        want = np.where(phi < 0.0, ms.u_side(x, y, OMEGA1), ms.u_side(x, y, OMEGA2))
        np.testing.assert_array_equal(ms.u(x, y), want)
        for px, py in [(0.5, 0.0), (0.1, 0.2), (0.9, -0.7)]:
            want = np.where(ms.interface.value(px, py) < 0.0, ms.u_side(px, py, OMEGA1), ms.u_side(px, py, OMEGA2))
            assert ms.u(px, py) == want


class TestConvergenceOrders:
    def test_simple_halving(self):
        assert convergence_orders([0.2, 0.1]) == [pytest.approx(1.0)]

    def test_benchmark_l2_pair(self):
        (order,) = convergence_orders([3.0795e-02, 7.6231e-03])
        assert order == pytest.approx(2.0142, abs=5e-4)

    def test_benchmark_energy_pair(self):
        (order,) = convergence_orders([2.2370e00, 1.1168e00])
        assert order == pytest.approx(1.0021, abs=5e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveError):
            convergence_orders([0.1, 0.0])


class TestErrorNorms:
    def test_exact_projection_gives_zero_errors(self):
        # Synthetic solution vector assembled from the exact projections.
        from iwgfem.analysis import compute_errors
        from iwgfem.assembly import build_dof_map
        from iwgfem.ife import project_qb

        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, ms.interface)
        spaces = build_ife_spaces(mesh, 1, 1.0, 10.0)
        dm = build_dof_map(mesh, 1)
        x = np.zeros(dm.n_total)
        valid = dm.node_col >= 0
        x[dm.node_col[valid]] = ms.u(dm.node_coords[valid, 0], dm.node_coords[valid, 1])
        for t, sp in spaces.items():
            base = dm.wg0_col[t]
            x[base : base + sp.m] = sp.project_interior(ms.u)
        for e in np.flatnonzero(dm.trace_col >= 0):
            a, b = mesh.edges[e]
            x[dm.trace_col[e] : dm.trace_col[e] + dm.k] = project_qb(
                ms.u, mesh.vertices[a], mesh.vertices[b], dm.k, mesh.interface
            )
        errors = compute_errors(mesh, dm, spaces, x, ms, 1)
        # The interface parts vanish identically (they compare projections);
        # the CG parts measure interpolation error, so only check the band.
        from iwgfem.analysis import _interface_errors

        e_b, l_b, _ = _interface_errors(mesh, dm, spaces, x, ms, 1)
        assert math.sqrt(l_b) < 1e-13
        # Weak-gradient part of the band error is the projection mismatch of
        # Q_h u itself, nonzero but small; only the nodal CG part remains in
        # the total.
        assert errors["l2"] > 0.0

    def test_patch_solution_has_zero_errors(self):
        ms = linear_solution(1.0, 2.0, -3.0)
        errors, *_ = run_level(ms, 1, 1, "segment")
        assert errors["energy"] < 1e-9
        assert errors["l2"] < 1e-9
        assert errors["linf"] < 1e-9


    @pytest.mark.parametrize("k, mode", [(1, "segment"), (2, "arc")])
    def test_stored_basis_values_equal_fresh_evaluation(self, k, mode):
        # The error loops evaluate the basis through values_at_rules, the
        # stored monomial values times the coefficient block, instead of at
        # the rule points afresh; the two must agree bit for bit.
        mesh = build_mesh(2, CircleFixture.interface)
        spaces = build_ife_spaces(mesh, k, 1.0, 1000.0, mode=mode)
        for space in spaces.values():
            stored = space.values_at_rules(np.eye(space.m))
            for side in (OMEGA1, OMEGA2):
                fresh = space.eval_basis(space.rules[side].points, side)
                np.testing.assert_array_equal(stored[side], fresh)


class TestInterpolationDiagnostic:
    def test_member_of_space_is_reproduced(self):
        ms = linear_solution(0.5, 1.0, 2.0)
        mesh = build_mesh(1, ms.interface)
        spaces = build_ife_spaces(mesh, 1, 1.0, 1.0)
        d = interpolation_errors(mesh, spaces, ms, 1)
        assert d["cg_h1"] < 1e-12
        assert d["q0_l2"] < 1e-12

    def test_orders(self):
        ms = example1(1.0, 10.0)
        errs = []
        for level in (2, 3, 4):
            mesh = build_mesh(level, ms.interface)
            spaces = build_ife_spaces(mesh, 1, 1.0, 10.0)
            errs.append(interpolation_errors(mesh, spaces, ms, 1))
        h1_orders = convergence_orders([e["cg_h1"] for e in errs])
        l2_orders = convergence_orders([e["q0_l2"] for e in errs])
        assert h1_orders[-1] == pytest.approx(1.0, abs=0.2)
        assert l2_orders[-1] == pytest.approx(2.0, abs=0.4)

    def test_matched_coefficients_equal_plain_interpolation(self):
        # With A1 = A2 the projector onto V_k(T) equals the plain P_k
        # projector; check with polynomial inputs, which both quadratures
        # integrate exactly (an uncut-triangle rule is the oracle).
        mesh = build_mesh(2, CircleFixture.interface)
        spaces = build_ife_spaces(mesh, 1, 2.0, 2.0)
        t, space = next(iter(spaces.items()))
        from iwgfem.geometry import triangle_rule

        rule = triangle_rule(mesh.triangle_coords(t), 8)
        vander = space.poly.eval(space.local_coords(rule.points))
        mass = vander.T @ (rule.weights[:, None] * vander)
        for a, b in [(0, 0), (1, 0), (1, 1), (2, 1), (0, 3)]:
            f = lambda x, y: x**a * y**b
            q0 = space.project_interior(f)
            mom = vander.T @ (rule.weights * f(rule.points[:, 0], rule.points[:, 1]))
            coeffs_plain = np.linalg.solve(mass, mom)
            uh_vals = space.eval_basis(rule.points, OMEGA2) @ q0
            plain_vals = vander @ coeffs_plain
            np.testing.assert_allclose(uh_vals, plain_vals, atol=1e-10)
