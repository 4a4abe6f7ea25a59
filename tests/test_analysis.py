import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwgfem.analysis import (
    ERROR_BLOCK,
    AnalysisError,
    NonPositiveError,
    _interface_errors,
    _noninterface_errors,
    compute_errors,
    convergence_orders,
    example1,
)
from iwgfem.assembly import build_ife_spaces, build_level_plan
from iwgfem.geometry import OMEGA1, OMEGA2, CircleInterface, GeometryError
from iwgfem.mesh import build_mesh
from reference import (
    block,
    check_interface_conditions,
    example1_sides,
    interpolation_errors,
    level_spaces,
    linear_solution,
    noninterface_errors,
    project_qb,
    run_level,
    sample_sides,
    triangle_coords,
    triangle_rule,
    wg0_columns,
)
from test_geometry import OFF_CENTRE, off_centre_circle


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

    @pytest.mark.parametrize("pair", [(1.0, 1.0), (1.0, 1000.0), (1000.0, 1.0)])
    def test_profile_steps_equal_the_closed_forms_per_side(self, pair):
        # The error pass steps the shared profiles to each pair's u and grad u;
        # every CSV stays byte-identical only if that is the same arithmetic.
        ms = example1(*pair)
        u_side, grad_side = example1_sides(*pair)
        x, y = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 64, 7))
        for side in (OMEGA1, OMEGA2):
            for got in (ms.u_step(ms.u_profile(x, y), side), ms.u_side(x, y, side)):
                np.testing.assert_array_equal(got, u_side(x, y, side))
            for got in (ms.grad_step(ms.grad_profile(x, y), x, y, side), ms.grad_side(x, y, side)):
                np.testing.assert_array_equal(got, grad_side(x, y, side))

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
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, ms.interface)
        plan = build_level_plan(mesh, 1, ms.f)
        spaces = build_ife_spaces(plan.geometry, 1.0, 10.0)
        dm = plan.dofmap
        x = np.zeros(dm.n_total)
        valid = dm.node_col >= 0
        x[dm.node_col[valid]] = ms.u(dm.node_coords[valid, 0], dm.node_coords[valid, 1])
        for t, q0 in zip(spaces, spaces.project_interior(sample_sides(spaces.geometry, ms.u_side))):
            x[wg0_columns(dm)[t] + np.arange(dm.m)] = q0
        for e in np.flatnonzero(dm.trace_col >= 0):
            a, b = mesh.edges[e]
            x[dm.trace_col[e] : dm.trace_col[e] + dm.k] = project_qb(
                ms.u, mesh.vertices[a], mesh.vertices[b], dm.k, mesh.interface
            )
        ((e_b, l_b, m_b),) = _interface_errors(plan, [(x, ms, spaces)])
        (errors,) = compute_errors(plan, [(x, ms, spaces)])
        # The interface parts vanish identically (they compare projections);
        # the CG parts measure interpolation error, so only check the band.
        assert math.sqrt(l_b) < 1e-13
        # Weak-gradient part of the band error is the projection mismatch of
        # Q_h u itself, nonzero but small; only the nodal CG part remains in
        # the total.
        assert errors["l2"] > 0.0

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("level", [3, 5])
    def test_planned_noninterface_errors_match_the_einsum_reference(self, level, k):
        # The plan's matmul and tensordot reductions sum in another order
        # than the reference's einsums, so they agree to rounding. Level 5
        # (N = 64, 7,938 non-interface elements) takes more than one block.
        ms = example1(1.0, 1000.0)
        mesh = build_mesh(level, ms.interface)
        plan = build_level_plan(mesh, k, ms.f)
        if level == 5:
            assert max(len(sel) for sel, _, _ in plan.sides.values()) > ERROR_BLOCK
        x = np.random.default_rng(k).standard_normal(plan.dofmap.n_total)
        (got,) = _noninterface_errors(plan, [(x, ms)])
        want = noninterface_errors(mesh, plan.dofmap, x, ms, k, 2 * k + 4)
        for g, w in zip(got, want):
            assert w > 0.0 and abs(g - w) <= 1e-14 * w

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_level_pass_returns_each_pair_what_a_batch_of_one_returns(self, k):
        # Level 5 (N = 64) takes more than one block per side, so a pair's
        # sums are made of several blocks between which the other pairs run.
        # The interface half steps one sampled profile per pair.
        ms = example1(1.0, 1.0)
        plan = build_level_plan(build_mesh(5, ms.interface), k, ms.f)
        assert max(len(sel) for sel, _, _ in plan.sides.values()) > ERROR_BLOCK
        rng = np.random.default_rng(k)
        solved = [(rng.standard_normal(plan.dofmap.n_total), example1(1.0, a2)) for a2 in (1.0, 10.0, 100.0, 1000.0)]
        assert _noninterface_errors(plan, solved) == [_noninterface_errors(plan, [s])[0] for s in solved]
        mode = "segment" if k == 1 else "arc"
        solved = [(x, ms, build_ife_spaces(plan.geometry, ms.a1, ms.a2, mode)) for x, ms in solved]
        assert _interface_errors(plan, solved) == [_interface_errors(plan, [s])[0] for s in solved]
        assert compute_errors(plan, solved) == [compute_errors(plan, [s])[0] for s in solved]
        with pytest.raises(AnalysisError, match="share"):
            compute_errors(plan, solved[:1] + [(solved[1][0], linear_solution(1.0, 2.0, -3.0), solved[1][2])])

    def test_patch_solution_has_zero_errors(self):
        ms = linear_solution(1.0, 2.0, -3.0)
        errors, *_ = run_level(ms, 1, 1, "segment")
        assert errors["energy"] < 1e-9
        assert errors["l2"] < 1e-9
        assert errors["linf"] < 1e-9

    @settings(deadline=None, max_examples=20)
    @given(**OFF_CENTRE, n=st.integers(min_value=8, max_value=32))
    def test_patch_solution_has_zero_errors_on_off_centre_circles(self, radius, u, v, n):
        # Criterion 4's patch test with the interface drawn off centre
        # (worst seen over 260 draws: 7.0e-14).
        ms = dataclasses.replace(linear_solution(1.0, 2.0, -3.0), interface=off_centre_circle(radius, u, v))
        try:
            errors, *_ = run_level(ms, 1, 1, "segment", n_override=n)
        except GeometryError:
            return
        assert max(errors.values()) <= 1e-9, errors

    @pytest.mark.parametrize("pairs", [1, 4])
    @pytest.mark.parametrize("k, bound_mb", [(1, 11), (2, 17)])
    def test_noninterface_error_pass_memory_does_not_grow_with_the_mesh(self, k, bound_mb, pairs):
        # The pass streams ERROR_BLOCK elements at a time, so at N = 128
        # (32,266 elements) its traced peak stays a few MB: 7.0 MB at k = 1
        # and 10.7 MB at k = 2 when measured for one pair, 8.1 and 11.8 MB for
        # four. Each pair gathers its coefficients per block: whole-mesh
        # coefficient copies per pair would grow with the mesh and the pairs.
        ms = example1(1.0, 1000.0)
        mesh = build_mesh(6, ms.interface)
        plan = build_level_plan(mesh, k, ms.f)
        rng = np.random.default_rng(k)
        solved = [(rng.standard_normal(plan.dofmap.n_total), example1(1.0, a2)) for a2 in (1000.0, 1.0, 10.0, 100.0)]
        tracemalloc.start()
        try:
            _noninterface_errors(plan, solved[:pairs])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6, peak


class TestInterpolationDiagnostic:
    def test_member_of_space_is_reproduced(self):
        ms = linear_solution(0.5, 1.0, 2.0)
        plan = build_level_plan(build_mesh(1, ms.interface), 1, ms.f)
        spaces = build_ife_spaces(plan.geometry, 1.0, 1.0)
        d = interpolation_errors(plan, spaces, ms)
        assert d["cg_h1"] < 1e-12
        assert d["q0_l2"] < 1e-12

    def test_orders(self):
        ms = example1(1.0, 10.0)
        errs = []
        for level in (2, 3, 4):
            plan = build_level_plan(build_mesh(level, ms.interface), 1, ms.f)
            spaces = build_ife_spaces(plan.geometry, 1.0, 10.0)
            errs.append(interpolation_errors(plan, spaces, ms))
        h1_orders = convergence_orders([e["cg_h1"] for e in errs])
        l2_orders = convergence_orders([e["q0_l2"] for e in errs])
        assert h1_orders[-1] == pytest.approx(1.0, abs=0.2)
        assert l2_orders[-1] == pytest.approx(2.0, abs=0.4)

    def test_matched_coefficients_equal_plain_interpolation(self):
        # With A1 = A2 the projector onto V_k(T) equals the plain P_k
        # projector; check with polynomial inputs, which both quadratures
        # integrate exactly (an uncut-triangle rule is the oracle).
        mesh = build_mesh(2, CircleFixture.interface)
        spaces = level_spaces(mesh, 1, 2.0, 2.0)
        t, space = next(iter(spaces.items()))
        rule = triangle_rule(triangle_coords(mesh, t), 8)
        vander = space.poly.eval(space.local_coords(rule.points))
        mass = vander.T @ (rule.weights[:, None] * vander)
        pts = spaces.geometry.rule_points
        for a, b in [(0, 0), (1, 0), (1, 1), (2, 1), (0, 3)]:
            f = lambda x, y: x**a * y**b
            q0 = spaces.project_interior(f(pts[:, 0], pts[:, 1]))[0]
            mom = vander.T @ (rule.weights * f(rule.points[:, 0], rule.points[:, 1]))
            coeffs_plain = np.linalg.solve(mass, mom)
            uh_vals = vander @ block(space, OMEGA2) @ q0
            plain_vals = vander @ coeffs_plain
            np.testing.assert_allclose(uh_vals, plain_vals, atol=1e-10)
