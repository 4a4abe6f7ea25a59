import math

import numpy as np
import pytest
import scipy.sparse as sp

from iwgfem.analysis import example1, linear_solution
from iwgfem.assembly import (
    TRACE_NONE,
    TRACE_SLAVED,
    AssemblyError,
    InconsistentConstraint,
    WgBlocks,
    _element_jacobians,
    _orientation_classes,
    apply_constraints,
    assemble_interface,
    assemble_noninterface,
    assemble_system,
    build_dof_map,
    build_ife_spaces,
    cg_element_stiffness,
    dump_matrix,
    element_node_table,
    routing_matrix,
)
from iwgfem.geometry import INTERFACE, OMEGA1, OMEGA2, CircleInterface
from iwgfem.mesh import build_mesh
from iwgfem.solver import solve

CIRCLE = CircleInterface()


class TestCgStiffness:
    def test_unit_right_triangle_hand_values(self):
        k = cg_element_stiffness([(0, 0), (1, 0), (0, 1)], k=1)
        want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        np.testing.assert_allclose(k, want, atol=1e-14)

    def test_linear_in_coefficient(self):
        tri = [(0.1, 0.2), (0.6, 0.1), (0.3, 0.8)]
        k1 = cg_element_stiffness(tri, 1, a=1.0)
        k2 = cg_element_stiffness(tri, 1, a=2.0)
        np.testing.assert_allclose(k2, 2.0 * k1, rtol=1e-14)

    def test_laplace_patch_identity(self):
        # K u_nodal has zero entries for linear u (f = 0 interior residual).
        tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        k = cg_element_stiffness(tri, 1)
        u = 1.0 + 2.0 * tri[:, 0] - 3.0 * tri[:, 1]
        res = k @ u
        # Row sums of residual over the patch vanish only globally; per element
        # the residual equals the boundary flux, which is nonzero, but the
        # matrix must annihilate constants exactly.
        np.testing.assert_allclose(k @ np.ones(3), 0.0, atol=1e-14)
        assert abs(res.sum()) < 1e-14  # divergence theorem with f = 0

    def test_batched_matches_single(self):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, CIRCLE)
        cg = assemble_noninterface(mesh, 1, {OMEGA1: 1.0, OMEGA2: 10.0}, ms.f)
        for idx in (0, 1, len(cg.elements) - 1):
            t = int(cg.elements[idx])
            a = 1.0 if mesh.element_class[t] == OMEGA1 else 10.0
            want = cg_element_stiffness(mesh.triangle_coords(t), 1, a)
            np.testing.assert_allclose(cg.stiffness[idx], want, atol=1e-13)

    def test_p2_annihilates_quadratics(self):
        # P2 stiffness times nodal values of u must reproduce (grad u, grad psi).
        tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        k = cg_element_stiffness(tri, 2)
        np.testing.assert_allclose(k @ np.ones(6), 0.0, atol=1e-13)


class TestDofMap:
    def test_unique_ownership(self):
        mesh = build_mesh(2, CIRCLE)
        for k in (1, 2):
            dm = build_dof_map(mesh, k)
            cols = []
            cols.extend(dm.node_col[dm.node_col >= 0])
            for t, base in dm.wg0_col.items():
                cols.extend(range(base, base + dm.m))
            for e in np.flatnonzero(dm.trace_col >= 0):
                cols.extend(range(dm.trace_col[e], dm.trace_col[e] + k))
            cols = np.array(sorted(cols))
            np.testing.assert_array_equal(cols, np.arange(dm.n_total))

    def test_free_count_formula(self):
        mesh = build_mesh(2, CIRCLE)
        for k in (1, 2):
            dm = build_dof_map(mesh, k)
            n_interior_nodes = int(
                np.sum((dm.node_col >= 0) & (dm.node_col < dm.n_free))
            )
            n_wg0 = dm.m * len(mesh.interface_elements())
            n_free_traces = k * int(
                np.sum((dm.trace_col >= 0) & (dm.trace_col < dm.n_free))
            )
            assert dm.n_free == n_interior_nodes + n_wg0 + n_free_traces

    def test_slaved_edges_have_no_columns(self):
        from iwgfem.mesh import EDGE_COUPLING

        mesh = build_mesh(2, CIRCLE)
        dm = build_dof_map(mesh, 1)
        for e in np.flatnonzero(mesh.edge_class == EDGE_COUPLING):
            assert dm.trace_col[e] == TRACE_SLAVED

    def test_coupling_block_projects_cg_trace(self):
        # Every slaved slot of P must map a linear function's CG interpolant
        # to the Q_b projection of the function on its edge.
        from iwgfem.ife import project_qb
        from iwgfem.mesh import EDGE_COUPLING

        mesh = build_mesh(2, CIRCLE)
        u = lambda x, y: 0.3 + 1.7 * x - 0.4 * y
        for k in (1, 2):
            dm = build_dof_map(mesh, k)
            x = np.zeros(dm.n_total)
            valid = dm.node_col >= 0
            x[dm.node_col[valid]] = u(dm.node_coords[valid, 0], dm.node_coords[valid, 1])
            locs = (dm.P @ x).reshape(len(dm.wg0_col), dm.m + 3 * k)
            checked = 0
            for t, loc in zip(dm.wg0_col, locs):
                for i, e in enumerate(mesh.tri_edges[t]):
                    if dm.trace_col[e] != TRACE_SLAVED:
                        continue
                    a, b = mesh.edges[e]
                    want = project_qb(u, mesh.vertices[a], mesh.vertices[b], k)
                    got = loc[dm.m + i * k : dm.m + (i + 1) * k]
                    np.testing.assert_allclose(got, want, atol=1e-13)
                    checked += 1
            assert checked == np.sum(mesh.edge_class == EDGE_COUPLING) > 0


def _reference_dof_columns(mesh, k):
    """Plain per-node / per-edge loop over the documented column order."""
    from iwgfem.geometry import INTERFACE
    from iwgfem.mesh import EDGE_WG_INTERIOR

    n_nodes = mesh.n_vertices + (mesh.n_edges if k == 2 else 0)
    active = np.zeros(n_nodes, dtype=bool)
    for t in range(mesh.n_triangles):
        if mesh.element_class[t] != INTERFACE:
            active[element_node_table(mesh, k)[t]] = True
    on_boundary = np.zeros(n_nodes, dtype=bool)
    for e in range(mesh.n_edges):
        if mesh.edge_tris[e, 1] < 0:
            a, b = mesh.edges[e]
            on_boundary[a] = on_boundary[b] = True
            if k == 2:
                on_boundary[mesh.n_vertices + e] = True
    node_col = np.full(n_nodes, -1)
    trace_col = np.full(mesh.n_edges, -1)
    col = 0
    for n in range(n_nodes):
        if active[n] and not on_boundary[n]:
            node_col[n] = col
            col += 1
    wg0_col = {}
    for t in range(mesh.n_triangles):
        if mesh.element_class[t] == INTERFACE:
            wg0_col[t] = col
            col += (k + 1) * (k + 2) // 2
    boundary_wg = []
    for e in range(mesh.n_edges):
        if mesh.edge_class[e] == EDGE_WG_INTERIOR:
            if mesh.edge_tris[e, 1] < 0:
                boundary_wg.append(e)
            else:
                trace_col[e] = col
                col += k
    pinned = []
    for n in range(n_nodes):
        if active[n] and on_boundary[n]:
            node_col[n] = col
            pinned.append(n)
            col += 1
    for e in boundary_wg:
        trace_col[e] = col
        col += k
    return node_col, trace_col, wg0_col, pinned


class TestDofMapColumns:
    # The off-centre circle crosses boundary elements, so pinned trace
    # blocks occur; the default circle has none.
    @pytest.mark.parametrize("interface", [CIRCLE, CircleInterface((0.3, 0.2), 0.36)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_columns_equal_plain_loop(self, k, interface):
        from iwgfem.assembly import TRACE_SLAVED
        from iwgfem.mesh import EDGE_COUPLING

        mesh = build_mesh(2, interface)
        dm = build_dof_map(mesh, k)
        node_col, trace_col, wg0_col, pinned = _reference_dof_columns(mesh, k)
        trace_col[mesh.edge_class == EDGE_COUPLING] = TRACE_SLAVED
        np.testing.assert_array_equal(dm.node_col, node_col)
        np.testing.assert_array_equal(dm.trace_col, trace_col)
        assert dm.wg0_col == wg0_col
        np.testing.assert_array_equal(dm.pinned_nodes, pinned)
        if interface is not CIRCLE:
            assert len(dm.pinned_trace_edges) > 0


class TestRoutingChecks:
    """The routing matrix refuses a DOF map or blocks it cannot route."""

    @staticmethod
    def _first_slot_edge(mesh, dm, want):
        """(element, edge) of the first trace slot in P's row order with trace_col == want."""
        for t in dm.wg0_col:
            for e in mesh.tri_edges[t]:
                if want(dm.trace_col[e]):
                    return t, int(e)
        raise AssertionError("no such edge")

    @pytest.mark.parametrize("k", [1, 2])
    def test_slaved_edge_on_inactive_node_raises(self, k):
        mesh = build_mesh(2, CIRCLE)
        dm = build_dof_map(mesh, k)
        t, e = self._first_slot_edge(mesh, dm, lambda tc: tc == TRACE_SLAVED)
        dm.node_col[mesh.edges[e, 1]] = -1
        with pytest.raises(InconsistentConstraint, match=f"edge {e} of interface element {t} "):
            routing_matrix(mesh, dm)

    @pytest.mark.parametrize("k", [1, 2])
    def test_edge_without_trace_dofs_raises(self, k):
        mesh = build_mesh(2, CIRCLE)
        dm = build_dof_map(mesh, k)
        t, e = self._first_slot_edge(mesh, dm, lambda tc: tc >= 0)
        dm.trace_col[e] = TRACE_NONE
        with pytest.raises(InconsistentConstraint, match=f"edge {e} of interface element {t} has no"):
            routing_matrix(mesh, dm)

    def test_blocks_out_of_routing_order_raise(self):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, CIRCLE)
        spaces = build_ife_spaces(mesh, 1, 1.0, 10.0)
        dm = build_dof_map(mesh, 1)
        cg = assemble_noninterface(mesh, 1, {OMEGA1: 1.0, OMEGA2: 10.0}, ms.f)
        wg = assemble_interface(mesh, spaces, 1, ms.f)
        wg = WgBlocks(wg.elements[1:], wg.stiffness[1:], wg.load[1:])
        with pytest.raises(AssemblyError, match="element order"):
            apply_constraints(mesh, dm, cg, wg, ms.g)


def _edge_lagrange_function(k, i, p0, p1):
    """The i-th P_k Lagrange shape on the edge p0 -> p1 (nodes p0, p1, midpoint)."""
    d = p1 - p0

    def shape(x, y):
        t = ((np.asarray(x, float) - p0[0]) * d[0] + (np.asarray(y, float) - p0[1]) * d[1]) / (d @ d)
        if k == 1:
            return (1.0 - t, t)[i]
        return ((1.0 - t) * (1.0 - 2.0 * t), t * (2.0 * t - 1.0), 4.0 * t * (1.0 - t))[i]

    return shape


def _reference_folded_system(mesh, k, spaces, ms, a1, a2):
    """Dense reduced K and b, routed one element at a time by the documented layout.

    CG blocks scatter to their node columns. An interface element's local
    slots [v0; vb per local edge] map to its interior columns, to the trace
    columns of owned edges and, on a coupling edge, to the Q_b projections
    of the edge's CG shape functions, computed here with project_qb.
    """
    from iwgfem.ife import load_vector, project_qb

    dm = build_dof_map(mesh, k)
    n, m, n_loc = dm.n_total, dm.m, dm.m + 3 * k
    kmat = np.zeros((n, n))
    rhs = np.zeros(n)
    cg = assemble_noninterface(mesh, k, {OMEGA1: a1, OMEGA2: a2}, ms.f)
    for t, stiff, load in zip(cg.elements, cg.stiffness, cg.load):
        cols = dm.node_col[element_node_table(mesh, k)[t]]
        kmat[np.ix_(cols, cols)] += stiff
        rhs[cols] += load
    for t in sorted(spaces):
        route = np.zeros((n_loc, n))
        route[np.arange(m), dm.wg0_col[t] + np.arange(m)] = 1.0
        for i, e in enumerate(mesh.tri_edges[t]):
            slots = m + i * k + np.arange(k)
            if dm.trace_col[e] >= 0:
                route[slots, dm.trace_col[e] + np.arange(k)] = 1.0
                continue
            assert dm.trace_col[e] == TRACE_SLAVED
            a, b = mesh.edges[e]
            p0, p1 = mesh.vertices[a], mesh.vertices[b]
            nodes = [a, b] if k == 1 else [a, b, mesh.n_vertices + e]
            for j, node in enumerate(nodes):
                shape = _edge_lagrange_function(k, j, p0, p1)
                route[slots, dm.node_col[node]] = project_qb(shape, p0, p1, k)
        load = np.zeros(n_loc)
        load[:m] = load_vector(spaces[t], ms.f)
        kmat += route.T @ spaces[t].stiffness @ route
        rhs += route.T @ load
    pinned = [ms.g(*dm.node_coords[node]) for node in dm.pinned_nodes]
    for e in dm.pinned_trace_edges:
        a, b = mesh.edges[e]
        pinned.extend(project_qb(ms.g, mesh.vertices[a], mesh.vertices[b], k, mesh.interface))
    nf = dm.n_free
    return kmat[:nf, :nf], rhs[:nf] - kmat[:nf, nf:] @ np.array(pinned)


class TestFoldedSystem:
    @pytest.mark.parametrize("interface", [CIRCLE, CircleInterface((0.3, 0.2), 0.36)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_dense_per_element_folding(self, k, interface):
        a1, a2 = 1.0, 1000.0
        ms = example1(a1, a2, interface)
        mesh = build_mesh(2, interface)
        system, spaces = assemble_system(mesh, k, a1, a2, ms.f, ms.g)
        k_ref, b_ref = _reference_folded_system(mesh, k, spaces, ms, a1, a2)
        k_got = system.matrix.toarray()
        assert np.abs(k_got - k_ref).max() <= 1e-14 * np.abs(k_ref).max()
        assert np.abs(system.rhs - b_ref).max() <= 1e-14 * np.abs(b_ref).max()
        # The sparse products keep no explicit zeros in the stored pattern.
        assert np.all(system.matrix.data != 0.0)


class TestGlobalSystem:
    def test_zero_dirichlet_zero_lift(self):
        mesh = build_mesh(1, CIRCLE)
        spaces = build_ife_spaces(mesh, 1, 1.0, 10.0)
        dm = build_dof_map(mesh, 1)
        f = lambda x, y: np.zeros_like(np.asarray(x, float))
        cg = assemble_noninterface(mesh, 1, {OMEGA1: 1.0, OMEGA2: 10.0}, f)
        wg = assemble_interface(mesh, spaces, 1, f)
        system = apply_constraints(mesh, dm, cg, wg, lambda x, y: 0.0)
        assert np.all(system.pinned_values == 0.0)
        np.testing.assert_allclose(system.rhs, 0.0, atol=1e-15)

    def test_symmetry(self):
        ms = example1(1.0, 100.0)
        for k in (1, 2):
            mesh = build_mesh(2, CIRCLE)
            system, _ = assemble_system(mesh, k, 1.0, 100.0, ms.f, ms.g, mode="segment")
            assert system.asymmetry <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_spd_dense_eigensolve(self, k):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, CIRCLE)
        system, _ = assemble_system(mesh, k, 1.0, 10.0, ms.f, ms.g)
        lam = np.linalg.eigvalsh(system.matrix.toarray())
        assert lam[0] > 0.0

    def test_cg_only_oracle(self):
        # Interface disabled: the pipeline must match an independent textbook
        # P_k assembly in solution coefficients.
        ms = example1(1.0, 1.0)
        for k in (1, 2):
            mesh = build_mesh(1, None)
            system, _ = assemble_system(mesh, k, 1.0, 1.0, ms.f, ms.g)
            x, _ = solve(system.matrix, system.rhs)
            x_ref = _textbook_cg_solve(mesh, k, ms)
            np.testing.assert_allclose(x, x_ref[: system.dofmap.n_free], atol=1e-10)

    def test_linearity_in_data(self):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, CIRCLE)
        spaces = build_ife_spaces(mesh, 1, 1.0, 10.0)

        def solve_with(scale):
            f = lambda x, y: scale * ms.f(x, y)
            g = lambda x, y: scale * ms.g(x, y)
            system, _ = assemble_system(mesh, 1, 1.0, 10.0, f, g, spaces=spaces)
            x, _ = solve(system.matrix, system.rhs)
            return x

        x1 = solve_with(1.0)
        x3 = solve_with(3.0)
        np.testing.assert_allclose(x3, 3.0 * x1, rtol=1e-9, atol=1e-12)

    def test_quadrature_independence_polynomial_data(self):
        # Raising the quadrature degree must not change assembled entries for
        # polynomial data (the rules are already exact).
        mesh = build_mesh(1, CIRCLE)
        f = lambda x, y: 1.0 + x - 2.0 * y
        g = lambda x, y: np.zeros_like(np.asarray(x, float))
        sys1, _ = assemble_system(mesh, 1, 1.0, 10.0, f, g, quad_degree=6)
        sys2, _ = assemble_system(mesh, 1, 1.0, 10.0, f, g, quad_degree=8)
        d = (sys1.matrix - sys2.matrix).tocoo()
        scale = np.abs(sys1.matrix.data).max()
        assert (np.abs(d.data).max() if d.nnz else 0.0) < 1e-10 * scale
        np.testing.assert_allclose(sys1.rhs, sys2.rhs, atol=1e-12)

    def test_matrix_dump(self, tmp_path):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, CIRCLE)
        system, _ = assemble_system(mesh, 1, 1.0, 10.0, ms.f, ms.g)
        path = tmp_path / "matrix.txt"
        dump_matrix(system, path)
        lines = path.read_text().splitlines()
        assert len(lines) - 1 == system.matrix.nnz


def _unique_partition(j_mats):
    """The orientation classes as np.unique(axis=0) finds them, as sorted index tuples."""
    _, inv = np.unique(np.round(j_mats.reshape(len(j_mats), -1), 14), axis=0, return_inverse=True)
    inv = inv.ravel()
    return sorted(tuple(np.flatnonzero(inv == c)) for c in np.unique(inv))


class TestOrientationClasses:
    def test_same_partition_as_unique_on_a_mesh(self):
        mesh = build_mesh(2, CIRCLE)
        _, j_mats = _element_jacobians(mesh, np.flatnonzero(mesh.element_class != INTERFACE))
        classes = _orientation_classes(j_mats)
        assert sorted(tuple(c) for c in classes) == _unique_partition(j_mats)
        # Each class is led by its first element, the representative the
        # reference blocks are built from.
        assert all(c[0] == c.min() for c in classes)

    def test_noise_below_rounding_joins_a_class(self):
        a = np.array([[0.125, 0.0], [0.0, 0.125]])
        b = np.array([[0.125, 0.0], [0.125, 0.125]])
        c = np.array([[0.0, 0.125], [-0.125, 0.0]])
        j_mats = np.stack([a, b, a + 3e-16, c, b - 2e-16, c + 1e-16, a])
        classes = _orientation_classes(j_mats)
        assert sorted(tuple(cl) for cl in classes) == _unique_partition(j_mats)
        assert sorted(tuple(cl) for cl in classes) == [(0, 2, 6), (1, 4), (3, 5)]


class TestWgBlocks:
    def test_constant_mode_in_kernel(self):
        mesh = build_mesh(1, CIRCLE)
        spaces = build_ife_spaces(mesh, 1, 1.0, 10.0)
        for t, space in spaces.items():
            v0 = np.zeros(space.m)
            v0[0] = 1.0
            loc = np.concatenate([v0, (space.trace @ v0).ravel()])
            np.testing.assert_allclose(space.stiffness @ loc, 0.0, atol=1e-11)

    def test_block_psd_with_one_dim_kernel(self):
        mesh = build_mesh(1, CIRCLE)
        spaces = build_ife_spaces(mesh, 1, 1.0, 10.0)
        t, space = next(iter(spaces.items()))
        lam = np.linalg.eigvalsh(space.stiffness)
        assert lam[0] > -1e-11
        assert np.sum(np.abs(lam) < 1e-9) == 1  # exactly the constant mode

    def test_matched_coefficients_reduce_to_standard_stiffness(self):
        # With A1 = A2 the IFE space is P_k; restricting the WG block to
        # v_b = Q_b v_0 must reproduce the plain stiffness on that basis.
        mesh = build_mesh(1, CIRCLE)
        spaces = build_ife_spaces(mesh, 1, 1.0, 1.0)
        t, space = next(iter(spaces.items()))
        m = space.m
        lift = np.vstack([np.eye(m), space.trace.reshape(-1, m)])
        reduced = lift.T @ space.stiffness @ lift
        # Independent standard stiffness in the same orthonormal basis.
        want = np.zeros((m, m))
        for side in (OMEGA1, OMEGA2):
            rule = space.rules[side]
            g = space.poly.grad(space.local_coords(rule.points)) @ space.f_mat
            g = np.einsum("njd,jq->nqd", g, space.block(side))
            want += np.einsum("nid,n,njd->ij", g, rule.weights, g)
        np.testing.assert_allclose(reduced, want, atol=1e-11)


def _textbook_cg_solve(mesh, k, ms):
    """Independent dense P_k assembly with nodal Dirichlet elimination."""
    from iwgfem.geometry import _triangle_rule_reference

    dm = build_dof_map(mesh, k)
    n = dm.n_total
    kmat = np.zeros((n, n))
    rhs = np.zeros(n)
    ref, w = _triangle_rule_reference(2 * k + 2)
    from iwgfem.assembly import _cg_shape_values

    shapes = _cg_shape_values(k, ref)
    for t in range(mesh.n_triangles):
        tri = mesh.triangle_coords(t)
        nodes = element_node_table(mesh, k)[t]
        cols = dm.node_col[nodes]
        kmat[np.ix_(cols, cols)] += cg_element_stiffness(tri, k)
        jm = np.array([tri[1] - tri[0], tri[2] - tri[0]])
        det = abs(np.linalg.det(jm))
        pts = tri[0] + ref @ jm
        fv = ms.f(pts[:, 0], pts[:, 1])
        rhs[cols] += det * (shapes.T @ (w * fv))
    nf = dm.n_free
    g_pin = np.array(
        [ms.g(*dm.node_coords[nd]) for nd in dm.pinned_nodes]
    )
    reduced = kmat[:nf, :nf]
    b = rhs[:nf] - kmat[:nf, nf:] @ g_pin
    return np.concatenate([np.linalg.solve(reduced, b), g_pin])
