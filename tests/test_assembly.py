import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwgfem.analysis import example1
from iwgfem.assembly import (
    TRACE_NONE,
    TRACE_SLAVED,
    AssemblyError,
    InconsistentConstraint,
    _cg_shape_values,
    _element_jacobians,
    _orientation_classes,
    apply_constraints,
    assemble_interface,
    assemble_noninterface,
    assemble_system,
    build_cut_geometries,
    build_dof_map,
    build_ife_spaces,
    build_level_plan,
    dump_matrix,
    element_node_table,
    _element_routes,
)
from iwgfem.geometry import INTERFACE, OMEGA1, OMEGA2, CircleInterface, GeometryError, _triangle_rule_reference
from iwgfem.ife import PolyBasis
from iwgfem.mesh import build_mesh
from iwgfem.solver import _factor, solve
from reference import (
    block,
    cg_element_stiffness,
    level_spaces,
    local_coords,
    project_qb,
    side_rules,
    triangle_coords,
    wg0_columns,
)
from test_geometry import OFF_CENTRE, off_centre_circle

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
        plan = build_level_plan(mesh, 1, ms.f)
        stiffness = assemble_noninterface(plan, {OMEGA1: 1.0, OMEGA2: 10.0})
        for idx in (0, 1, len(plan.elements) - 1):
            t = int(plan.elements[idx])
            a = 1.0 if mesh.element_class[t] == OMEGA1 else 10.0
            want = cg_element_stiffness(triangle_coords(mesh, t), 1, a)
            np.testing.assert_allclose(stiffness[idx], want, atol=1e-13)

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
            for base in wg0_columns(dm).values():
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
            n_wg0 = dm.m * len(mesh.cuts)
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
        # Every slaved slot of the routes must map a linear function's CG interpolant
        # to the Q_b projection of the function on its edge.
        from iwgfem.mesh import EDGE_COUPLING

        mesh = build_mesh(2, CIRCLE)
        u = lambda x, y: 0.3 + 1.7 * x - 0.4 * y
        for k in (1, 2):
            dm = build_dof_map(mesh, k)
            x = np.zeros(dm.n_total)
            valid = dm.node_col >= 0
            x[dm.node_col[valid]] = u(dm.node_coords[valid, 0], dm.node_coords[valid, 1])
            locs = (dm.routes @ x[dm.columns][..., None]).reshape(len(dm.elements), dm.m + 3 * k)
            checked = 0
            for t, loc in zip(dm.elements, locs):
                for i, e in enumerate(mesh.tri_edges[t]):
                    if dm.trace_col[e] != TRACE_SLAVED:
                        continue
                    a, b = mesh.edges[e]
                    want = project_qb(u, mesh.vertices[a], mesh.vertices[b], k)
                    got = loc[dm.m + i * k : dm.m + (i + 1) * k]
                    np.testing.assert_allclose(got, want, atol=1e-13)
                    checked += 1
            assert checked == np.sum(mesh.edge_class == EDGE_COUPLING) > 0

    @pytest.mark.parametrize("interface", [CIRCLE, CircleInterface((0.3, 0.2), 0.36)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_padding_columns_repeat_a_trace_column_of_their_edge_at_zero_weight(self, k, interface):
        # An owned (free or pinned) edge maps its k slots to its k trace
        # columns by identity; its (k+1)-th column only pads the block.
        mesh = build_mesh(2, interface)
        dm = build_dof_map(mesh, k)
        m, padded = dm.m, 0
        for i, t in enumerate(dm.elements):
            for j, e in enumerate(mesh.tri_edges[t]):
                if dm.trace_col[e] == TRACE_SLAVED:
                    continue
                block = slice(m + j * (k + 1), m + (j + 1) * (k + 1))
                cols, route = dm.columns[i, block], dm.routes[i, :, block]
                np.testing.assert_array_equal(cols[:k], dm.trace_col[e] + np.arange(k))
                np.testing.assert_array_equal(route[m + j * k : m + (j + 1) * k, :k], np.eye(k))
                assert cols[k] in cols[:k]
                assert np.all(route[:, k] == 0.0)
                padded += 1
        assert padded > 0


def _reference_dof_columns(mesh, k):
    """Plain per-node / per-edge loop over the documented column order."""
    from iwgfem.geometry import INTERFACE
    from iwgfem.mesh import EDGE_WG_INTERIOR

    n_nodes = mesh.n_vertices + (mesh.n_edges if k == 2 else 0)
    active = np.zeros(n_nodes, dtype=bool)
    for t in range(len(mesh.triangles)):
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
    for t in range(len(mesh.triangles)):
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
        assert wg0_columns(dm) == wg0_col
        np.testing.assert_array_equal(dm.pinned_nodes, pinned)
        if interface is not CIRCLE:
            assert np.any(dm.trace_col >= dm.n_free)


class TestRoutingChecks:
    """The routes refuse a DOF map or blocks they cannot route."""

    @staticmethod
    def _first_slot_edge(mesh, dm, want):
        """(element, edge) of the first trace slot in the routes' order with trace_col == want."""
        for t in dm.elements:
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
            _element_routes(mesh, dm)

    @pytest.mark.parametrize("k", [1, 2])
    def test_edge_without_trace_dofs_raises(self, k):
        mesh = build_mesh(2, CIRCLE)
        dm = build_dof_map(mesh, k)
        t, e = self._first_slot_edge(mesh, dm, lambda tc: tc >= 0)
        dm.trace_col[e] = TRACE_NONE
        with pytest.raises(InconsistentConstraint, match=f"edge {e} of interface element {t} has no"):
            _element_routes(mesh, dm)

    def test_blocks_out_of_routing_order_raise(self):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, CIRCLE)
        plan = build_level_plan(mesh, 1, ms.f)
        cg = assemble_noninterface(plan, {OMEGA1: 1.0, OMEGA2: 10.0})
        other = build_level_plan(build_mesh(2, CIRCLE), 1, ms.f)
        spaces = build_ife_spaces(other.geometry, 1.0, 10.0)
        load = assemble_interface(spaces, other.moments)
        with pytest.raises(AssemblyError, match="element order"):
            apply_constraints(plan, cg, spaces, load, ms.g)


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
    from test_packed_rule import element_moments, element_samples

    dm = build_dof_map(mesh, k)
    n, m, n_loc = dm.n_total, dm.m, dm.m + 3 * k
    kmat = np.zeros((n, n))
    plan = build_level_plan(mesh, k, ms.f, geometries=spaces.geometry)
    rhs = plan.load.copy()
    for t, stiff in zip(plan.elements, assemble_noninterface(plan, {OMEGA1: a1, OMEGA2: a2})):
        cols = dm.node_col[element_node_table(mesh, k)[t]]
        kmat[np.ix_(cols, cols)] += stiff
    for t in sorted(spaces):
        route = np.zeros((n_loc, n))
        route[np.arange(m), wg0_columns(dm)[t] + np.arange(m)] = 1.0
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
        row = spaces.geometry.row(t)
        load[:m] = element_moments(spaces, row, element_samples(spaces, row, ms.f))
        kmat += route.T @ spaces.stiffness[row] @ route
        rhs += route.T @ load
    pinned = [ms.g(*dm.node_coords[node]) for node in dm.pinned_nodes]
    pinned_edges = np.flatnonzero(dm.trace_col >= dm.n_free)
    for e in pinned_edges[np.argsort(dm.trace_col[pinned_edges])]:
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
        system, spaces = assemble_system(build_level_plan(mesh, k, ms.f), a1, a2, ms.g)
        k_ref, b_ref = _reference_folded_system(mesh, k, spaces, ms, a1, a2)
        k_got = system.matrix.toarray()
        assert np.abs(k_got - k_ref).max() <= 1e-14 * np.abs(k_ref).max()
        assert np.abs(system.rhs - b_ref).max() <= 1e-14 * np.abs(b_ref).max()
        # The sum of the scattered blocks keeps no explicit zeros in the stored pattern.
        assert np.all(system.matrix.data != 0.0)


class TestPinnedTraces:
    @pytest.mark.parametrize(
        "center, radius, level, n_edges",
        [((0.3, 0.2), 0.36, 2, 5), ((-0.5, 0.4), 0.5, 3, 8), ((0.7, -0.6), 0.3, 5, 4)],
    )
    @pytest.mark.parametrize("k", [1, 2])
    def test_pinned_traces_are_the_reference_projection_bit_for_bit(self, k, center, radius, level, n_edges):
        # Off-centre circles that reach the boundary: each pinned trace is Q_b g on
        # its cut element's edge rule, which the reference rebuilds from the edge alone.
        interface = CircleInterface(center, radius)
        ms = example1(1.0, 1000.0, interface)
        mesh = build_mesh(level, interface)
        plan = build_level_plan(mesh, k, ms.f)
        system, _ = assemble_system(plan, 1.0, 1000.0, ms.g)
        dm = plan.dofmap
        edges = np.flatnonzero(dm.trace_col >= dm.n_free)
        assert len(edges) == n_edges
        a, b = mesh.edges[edges].T
        want = project_qb(ms.g, mesh.vertices[a], mesh.vertices[b], k, interface)
        got = system.pinned_values[dm.trace_col[edges][:, None] - dm.n_free + np.arange(k)]
        np.testing.assert_array_equal(got, want)


class TestLevelPlan:
    def test_shared_plan_gives_a_fresh_plans_system(self):
        # Pairs that share a plan must not see each other's assembly.
        ms = example1(1.0, 10.0)
        mesh = build_mesh(2, CIRCLE)
        plan = build_level_plan(mesh, 2, ms.f)
        for a2 in (10.0, 1000.0):
            got, _ = assemble_system(plan, 1.0, a2, ms.g, "arc")
            want, _ = assemble_system(build_level_plan(mesh, 2, ms.f), 1.0, a2, ms.g, "arc")
            assert (got.matrix != want.matrix).nnz == 0
            np.testing.assert_array_equal(got.rhs, want.rhs)

    @pytest.mark.parametrize("k", [1, 2])
    def test_pairs_of_a_level_share_the_pattern_of_k(self, k):
        # Every element enters K as a dense block at its columns, so the
        # pairs of a level differ in K's values, not in its CSR pattern.
        plan = build_level_plan(build_mesh(2, CIRCLE), k, example1(1.0, 1.0).f)
        patterns = []
        for a1, a2 in ((1.0, 1.0), (1.0, 1000.0), (1000.0, 1.0)):
            system, _ = assemble_system(plan, a1, a2, example1(a1, a2).g, "segment" if k == 1 else "arc")
            patterns.append((system.matrix.indptr, system.matrix.indices))
        for indptr, indices in patterns[1:]:
            np.testing.assert_array_equal(indptr, patterns[0][0])
            np.testing.assert_array_equal(indices, patterns[0][1])

    @pytest.mark.parametrize("k", [1, 2])
    def test_columns_are_the_node_columns_of_the_noninterface_elements(self, k):
        mesh = build_mesh(2, CIRCLE)
        plan = build_level_plan(mesh, k, example1(1.0, 1.0).f)
        assert plan.columns.dtype == np.int32
        np.testing.assert_array_equal(plan.columns, plan.dofmap.node_col[element_node_table(mesh, k)[plan.elements]])

    @pytest.mark.parametrize("k", [1, 2])
    def test_load_is_the_element_loads_added_in_element_order(self, k):
        # The element loads (f, psi_i)_T as the plan computes them, then added
        # one at a time in element order: the load vector's bits, not just its values.
        f = example1(1.0, 1.0).f
        mesh = build_mesh(2, CIRCLE)
        plan = build_level_plan(mesh, k, f)
        v0, j_mats = _element_jacobians(mesh, plan.elements)
        ref, w = _triangle_rule_reference(2 * k + 2)
        pts = v0[:, None, :] + ref[None, :, :] @ j_mats
        fv = f(pts[..., 0].ravel(), pts[..., 1].ravel()).reshape(pts.shape[:2])
        loads = np.einsum("en,n,nj->ej", fv, w, _cg_shape_values(k, ref)) * plan.dets[:, None]
        want = np.zeros(plan.dofmap.n_total)
        np.add.at(want, plan.columns.ravel(), loads.ravel())
        assert plan.load.shape == (plan.dofmap.n_total,)
        np.testing.assert_array_equal(plan.load, want)


def zero(x, y):
    return np.zeros_like(np.asarray(x, float))


def one(x, y):
    return np.ones_like(np.asarray(x, float))


class TestOffCentreCircles:
    @settings(deadline=None, max_examples=20)
    @given(**OFF_CENTRE, n=st.integers(min_value=8, max_value=32), k=st.sampled_from([1, 2]),
           pair=st.sampled_from([(1.0, 1.0), (1.0, 10.0), (1.0, 100.0), (1.0, 1000.0), (1000.0, 1.0)]))
    def test_reduced_matrix_is_spd_and_reproduces_a_constant(self, radius, u, v, n, k, pair):
        # The pivot-free factorization raises NotPositiveDefinite on a pivot
        # <= 0. With f = 0 and g = 1 the solution is the coarse vector, the
        # projection of u = 1 (worst seen over 113 draws: 5.4e-12).
        try:
            mesh = build_mesh(1, off_centre_circle(radius, u, v), n_override=n)
        except GeometryError:
            return
        plan = build_level_plan(mesh, k, zero)
        system, _ = assemble_system(plan, *pair, one, "segment" if k == 1 else "arc")
        x = _factor(system.matrix).solve(system.rhs)
        assert np.max(np.abs(x - np.asarray(plan.coarse.sum(axis=1)).ravel())) <= 1e-9


class TestGlobalSystem:
    def test_zero_dirichlet_zero_lift(self):
        mesh = build_mesh(1, CIRCLE)
        f = lambda x, y: np.zeros_like(np.asarray(x, float))
        plan = build_level_plan(mesh, 1, f)
        spaces = build_ife_spaces(plan.geometry, 1.0, 10.0)
        cg = assemble_noninterface(plan, {OMEGA1: 1.0, OMEGA2: 10.0})
        load = assemble_interface(spaces, plan.moments)
        system = apply_constraints(plan, cg, spaces, load, lambda x, y: 0.0)
        assert np.all(system.pinned_values == 0.0)
        np.testing.assert_allclose(system.rhs, 0.0, atol=1e-15)

    @pytest.mark.parametrize("k, mode", [(1, "segment"), (2, "arc")])
    def test_asymmetry_is_the_coo_formula_bit_for_bit(self, k, mode):
        # The asymmetry reads the difference's own data, with no COO copy of it.
        ms = example1(1.0, 1000.0)
        system, _ = assemble_system(build_level_plan(build_mesh(2, CIRCLE), k, ms.f), 1.0, 1000.0, ms.g, mode)
        k_ff = system.matrix
        asym_mat = (k_ff - k_ff.T).tocoo()
        scale = max(np.abs(k_ff.data).max(), 1e-300)
        assert system.asymmetry == (float(np.abs(asym_mat.data).max() / scale) if asym_mat.nnz else 0.0)

    def test_symmetry(self):
        ms = example1(1.0, 100.0)
        for k in (1, 2):
            mesh = build_mesh(2, CIRCLE)
            system, _ = assemble_system(build_level_plan(mesh, k, ms.f), 1.0, 100.0, ms.g, "segment")
            assert system.asymmetry <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_spd_dense_eigensolve(self, k):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, CIRCLE)
        system, _ = assemble_system(build_level_plan(mesh, k, ms.f), 1.0, 10.0, ms.g)
        lam = np.linalg.eigvalsh(system.matrix.toarray())
        assert lam[0] > 0.0

    def test_cg_only_oracle(self):
        # Interface disabled: the pipeline must match an independent textbook
        # P_k assembly in solution coefficients.
        ms = example1(1.0, 1.0)
        for k in (1, 2):
            mesh = build_mesh(1, None)
            plan = build_level_plan(mesh, k, ms.f)
            system, _ = assemble_system(plan, 1.0, 1.0, ms.g)
            x, _ = solve(system.matrix, system.rhs)
            x_ref = _textbook_cg_solve(mesh, k, ms)
            np.testing.assert_allclose(x, x_ref[: plan.dofmap.n_free], atol=1e-10)

    def test_linearity_in_data(self):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, CIRCLE)
        geometry = build_cut_geometries(mesh, 1)

        def solve_with(scale):
            f = lambda x, y: scale * ms.f(x, y)
            g = lambda x, y: scale * ms.g(x, y)
            system, _ = assemble_system(build_level_plan(mesh, 1, f, geometries=geometry), 1.0, 10.0, g)
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
        sys1, _ = assemble_system(build_level_plan(mesh, 1, f, quad_offset=0), 1.0, 10.0, g)
        sys2, _ = assemble_system(build_level_plan(mesh, 1, f, quad_offset=2), 1.0, 10.0, g)
        d = (sys1.matrix - sys2.matrix).tocoo()
        scale = np.abs(sys1.matrix.data).max()
        assert (np.abs(d.data).max() if d.nnz else 0.0) < 1e-10 * scale
        np.testing.assert_allclose(sys1.rhs, sys2.rhs, atol=1e-12)

    def test_matrix_dump(self, tmp_path):
        ms = example1(1.0, 10.0)
        mesh = build_mesh(1, CIRCLE)
        system, _ = assemble_system(build_level_plan(mesh, 1, ms.f), 1.0, 10.0, ms.g)
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
        spaces = level_spaces(mesh, 1, 1.0, 10.0)
        for i in range(len(spaces)):
            v0 = np.zeros(spaces.geometry.m)
            v0[0] = 1.0
            loc = np.concatenate([v0, (spaces.trace[i] @ v0).ravel()])
            np.testing.assert_allclose(spaces.stiffness[i] @ loc, 0.0, atol=1e-11)

    def test_block_psd_with_one_dim_kernel(self):
        mesh = build_mesh(1, CIRCLE)
        spaces = level_spaces(mesh, 1, 1.0, 10.0)
        lam = np.linalg.eigvalsh(spaces.stiffness[0])
        assert lam[0] > -1e-11
        assert np.sum(np.abs(lam) < 1e-9) == 1  # exactly the constant mode

    def test_matched_coefficients_reduce_to_standard_stiffness(self):
        # With A1 = A2 the IFE space is P_k; restricting the WG block to
        # v_b = Q_b v_0 must reproduce the plain stiffness on that basis.
        mesh = build_mesh(1, CIRCLE)
        spaces = level_spaces(mesh, 1, 1.0, 1.0)
        geometry = spaces.geometry
        m = geometry.m
        lift = np.vstack([np.eye(m), spaces.trace[0].reshape(-1, m)])
        reduced = lift.T @ spaces.stiffness[0] @ lift
        # Independent standard stiffness in the same orthonormal basis.
        want = np.zeros((m, m))
        for side in (OMEGA1, OMEGA2):
            rule = side_rules(spaces, 0)[side]
            g = PolyBasis(geometry.k).grad(local_coords(spaces, 0, rule.points)) @ geometry.f_mat[0]
            g = np.einsum("njd,jq->nqd", g, block(spaces, 0, side))
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
    for t in range(len(mesh.triangles)):
        tri = triangle_coords(mesh, t)
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
