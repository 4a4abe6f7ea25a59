import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iwgfem.geometry
import iwgfem.ife
import iwgfem.mesh
from iwgfem.assembly import build_cut_geometries
from iwgfem.geometry import INTERFACE, OMEGA1, OMEGA2, CircleInterface, GeometryError, segment_crossings
from iwgfem.mesh import (
    EDGE_BOUNDARY,
    EDGE_COUPLING,
    EDGE_INTERIOR_NON_WG,
    EDGE_WG_INTERIOR,
    MeshPartition,
    build_mesh,
    dump_mesh,
    edge_sets,
)
from reference import build_mesh_loops

CIRCLE = CircleInterface()
MESH_ARRAYS = ("vertices", "triangles", "edges", "edge_tris", "tri_edges", "element_class", "edge_class")


def assert_same_as_loop_builder(interface, n, depth=6):
    """build_mesh equals the loop-built reference: arrays, dtypes, cuts, or the error."""
    try:
        want = build_mesh_loops(1, interface, depth=depth, n_override=n)
    except GeometryError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            build_mesh(1, interface, depth=depth, n_override=n)
        return
    got = build_mesh(1, interface, depth=depth, n_override=n)
    for name in MESH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert (got.n_cells, got.h, got.interface) == (want.n_cells, want.h, want.interface)
    assert list(got.cuts) == list(want.cuts)
    for t, cut in want.cuts.items():
        for field in dataclasses.fields(cut):
            a, b = getattr(got.cuts[t], field.name), getattr(cut, field.name)
            if isinstance(b, np.ndarray):
                np.testing.assert_array_equal(a, b, err_msg=f"element {t} {field.name}")
            else:
                assert a == b, (t, field.name)


class TestAgainstLoopBuilder:
    # The arrays are built by index arithmetic, one sort and one vectorised
    # classification; the loops they replace are the reference.

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 128])
    @pytest.mark.parametrize("interface", [CIRCLE, None], ids=["circle", "no-interface"])
    def test_equal_arrays_and_cuts(self, interface, n):
        assert_same_as_loop_builder(interface, n)

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=2, max_value=40),
    )
    def test_off_centre_circles(self, radius, u, v, n):
        circle = CircleInterface(((1.0 - radius) * u, (1.0 - radius) * v), radius**2)
        assert_same_as_loop_builder(circle, n)

    def test_circle_through_vertices(self):
        # Vertices on the circle snap, and edges that only touch it must not
        # make a cut: radius 0.5 passes through grid vertices at N = 4 and 8.
        for n in (4, 8):
            assert_same_as_loop_builder(CircleInterface((0.0, 0.0), 0.25), n)


def crossing_points(cut):
    """{local edge: crossing point} of a cut: D lies on the first crossed edge, E on the second."""
    return dict(zip(np.flatnonzero(~np.isnan(cut.crossings)).tolist(), (cut.point_d, cut.point_e)))


class TestCrossingTable:
    # build_mesh solves the near band's edges once, from their lower vertex
    # ids; the cuts and the cut geometry read that table.

    @pytest.mark.parametrize("n", [8, 32, 128, 256])
    def test_neighbours_share_crossings_and_edge_rules(self, n):
        mesh = build_mesh(1, CIRCLE, n_override=n)
        geometry = build_cut_geometries(mesh, 1)
        both = np.flatnonzero(np.all(mesh.element_class[mesh.edge_tris] == INTERFACE, axis=1) & (mesh.edge_tris[:, 1] >= 0))
        shared = 0
        for e in both:
            (t0, t1), ends = mesh.edge_tris[e], mesh.vertices[mesh.edges[e]]
            i0, i1 = (int(np.flatnonzero(mesh.tri_edges[t] == e)[0]) for t in (t0, t1))
            c0, c1 = mesh.cuts[t0], mesh.cuts[t1]
            np.testing.assert_array_equal(c0.crossings[i0], c1.crossings[i1])
            r0, r1 = (geometry.index[t] for t in (t0, t1))
            np.testing.assert_array_equal(geometry.edge_points[r0, i0], geometry.edge_points[r1, i1])
            np.testing.assert_array_equal(geometry.edge_weights[r0, i0], geometry.edge_weights[r1, i1])
            t = c0.crossings[i0]
            if np.isnan(t):
                continue
            shared += 1
            point = crossing_points(c0)[i0]
            np.testing.assert_array_equal(point, crossing_points(c1)[i1])
            np.testing.assert_array_equal(point, ends[0] + t * (ends[1] - ends[0]))
            # The edge rule's two Gauss pieces meet at the crossing.
            d = ends[1] - ends[0]
            s = (geometry.edge_points[r0, i0] - ends[0]) @ d / (d @ d)
            assert s[: len(s) // 2].max() < t < s[len(s) // 2 :].min()
        assert shared > 0

    def test_one_solve_per_level(self, monkeypatch):
        calls = []

        def counted(ends, interface):
            calls.append(len(ends))
            return segment_crossings(ends, interface)

        for module in (iwgfem.geometry, iwgfem.mesh, iwgfem.ife):
            if hasattr(module, "segment_crossings"):
                monkeypatch.setattr(module, "segment_crossings", counted)
        for level in (1, 2, 3):
            calls.clear()
            mesh = build_mesh(level, CIRCLE)
            for k in (1, 2):
                build_cut_geometries(mesh, k)
            assert len(calls) == 1, level


class TestBuildMesh:
    def test_level1_counts(self):
        mesh = build_mesh(1, CIRCLE)
        assert mesh.n_cells == 4
        assert mesh.n_triangles == 32
        assert mesh.n_vertices == 25

    def test_counting_formulas(self):
        for level in (1, 2, 3):
            mesh = build_mesh(level, CIRCLE)
            n = 2 ** (level + 1)
            assert mesh.n_triangles == 2 * n * n
            assert mesh.n_vertices == (n + 1) ** 2
            assert mesh.n_edges == 3 * n * n + 2 * n

    def test_h_halves_per_level(self):
        h = [build_mesh(level, CIRCLE).h for level in (1, 2, 3)]
        assert h[0] / h[1] == pytest.approx(2.0)
        assert h[1] / h[2] == pytest.approx(2.0)

    def test_euler_characteristic(self):
        for level in (1, 2):
            mesh = build_mesh(level, CIRCLE)
            assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1

    def test_triangles_counterclockwise(self):
        mesh = build_mesh(1, CIRCLE)
        for t in range(mesh.n_triangles):
            v = mesh.triangle_coords(t)
            cross = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[1, 1] - v[0, 1]) * (
                v[2, 0] - v[0, 0]
            )
            assert cross > 0.0

    def test_conforming(self):
        mesh = build_mesh(2, CIRCLE)
        counts = np.sum(mesh.edge_tris >= 0, axis=1)
        boundary = mesh.boundary_edges()
        interior = np.setdiff1d(np.arange(mesh.n_edges), boundary)
        assert np.all(counts[boundary] == 1)
        assert np.all(counts[interior] == 2)

    def test_determinism(self):
        m1 = build_mesh(2, CIRCLE)
        m2 = build_mesh(2, CIRCLE)
        np.testing.assert_array_equal(m1.vertices, m2.vertices)
        np.testing.assert_array_equal(m1.triangles, m2.triangles)
        np.testing.assert_array_equal(m1.element_class, m2.element_class)
        np.testing.assert_array_equal(m1.edge_class, m2.edge_class)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_interface_band(self, level):
        mesh = build_mesh(level, CIRCLE)
        cut_ids = mesh.interface_elements()
        assert len(cut_ids) >= 4
        r = CIRCLE.radius
        for t in cut_ids:
            center = mesh.triangle_coords(t).mean(axis=0)
            dist = abs(np.linalg.norm(center) - r)
            assert dist <= mesh.h * math.sqrt(2.0)
        # The band is edge-connected: every interface element shares an edge
        # with another interface element.
        cut_set = set(int(t) for t in cut_ids)
        for t in cut_ids:
            neighbors = set()
            for e in mesh.tri_edges[t]:
                for nb in mesh.edge_tris[e]:
                    if nb >= 0 and nb != t:
                        neighbors.add(int(nb))
            assert neighbors & cut_set

    def test_classification_matches_bruteforce(self):
        from iwgfem.geometry import classify_element

        mesh = build_mesh(2, CIRCLE)
        for t in range(mesh.n_triangles):
            assert mesh.element_class[t] == classify_element(mesh.triangle_coords(t), CIRCLE)

    def test_cuts_exactly_on_interface_elements(self):
        mesh = build_mesh(2, CIRCLE)
        assert set(mesh.cuts) == set(int(t) for t in mesh.interface_elements())

    def test_n_override(self):
        mesh = build_mesh(1, CIRCLE, n_override=6)
        assert mesh.n_cells == 6
        assert mesh.n_triangles == 72

    def test_no_interface(self):
        mesh = build_mesh(1, None)
        assert np.all(mesh.element_class == OMEGA2)
        assert len(mesh.cuts) == 0


class TestEdgeSets:
    def test_empty_without_interface(self):
        mesh = build_mesh(1, None)
        eh, ehi, boundary = edge_sets(mesh)
        assert len(eh) == 0
        assert len(ehi) == 0
        assert len(boundary) == 4 * mesh.n_cells

    def test_coupling_edges_have_mixed_neighbors(self):
        mesh = build_mesh(2, CIRCLE)
        _, ehi, _ = edge_sets(mesh)
        for e in ehi:
            t0, t1 = mesh.edge_tris[e]
            classes = {int(mesh.element_class[t0]), int(mesh.element_class[t1])}
            assert INTERFACE in classes
            assert classes != {INTERFACE}

    def test_against_bruteforce_double_loop(self):
        mesh = build_mesh(2, CIRCLE)
        eh, ehi, _ = edge_sets(mesh)
        # Independent oracle: loop over (edge, adjacent element classes).
        eh_brute, ehi_brute = set(), set()
        for e in range(mesh.n_edges):
            classes = [
                int(mesh.element_class[t]) for t in mesh.edge_tris[e] if t >= 0
            ]
            if INTERFACE in classes:
                eh_brute.add(e)
                if any(c != INTERFACE for c in classes):
                    ehi_brute.add(e)
        assert set(int(e) for e in eh) == eh_brute
        assert set(int(e) for e in ehi) == ehi_brute

    def test_subset_relation(self):
        mesh = build_mesh(3, CIRCLE)
        eh, ehi, boundary = edge_sets(mesh)
        assert set(int(e) for e in ehi) <= set(int(e) for e in eh)
        assert not (set(int(e) for e in ehi) & set(int(e) for e in boundary))


def test_dump_mesh(tmp_path):
    mesh = build_mesh(1, CIRCLE)
    path = tmp_path / "mesh.txt"
    dump_mesh(mesh, path)
    lines = path.read_text().splitlines()
    assert len([l for l in lines if l.startswith("node ")]) == mesh.n_vertices
    assert len([l for l in lines if l.startswith("element ")]) == mesh.n_triangles
    assert len([l for l in lines if l.startswith("edge ")]) == mesh.n_edges
