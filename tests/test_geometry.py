import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwgfem.geometry import (
    INTERFACE,
    OMEGA1,
    OMEGA2,
    CircleInterface,
    DegenerateTriangle,
    GeometryError,
    MultipleCrossings,
    _fan_triangles,
    _mapped_rule,
    _triangle_rule_reference,
    polygon_area,
    segment_crossings,
)
from iwgfem.mesh import build_mesh
from reference import (
    _interface_candidates,
    chord_length,
    classify_element,
    compute_cut,
    edge_roots,
    integrate,
    measure,
    quadrature_on_edge,
    quadrature_on_subregion,
    side_polygon,
    split,
    subregion_polygon,
    take,
    triangle_rule,
    triangulate_polygon,
)

CIRCLE = CircleInterface()  # x^2 + y^2 = 1/3


# A circle of radius r centred at (1 - r) (u, v), so it stays inside [-1, 1]^2.
OFF_CENTRE = dict(
    radius=st.floats(min_value=0.05, max_value=0.9),
    u=st.floats(min_value=-1.0, max_value=1.0),
    v=st.floats(min_value=-1.0, max_value=1.0),
)


def off_centre_circle(radius, u, v) -> CircleInterface:
    return CircleInterface(((1.0 - radius) * u, (1.0 - radius) * v), radius**2)


def polygon_monomial_integral(vertices, a, b):
    """Independent oracle: integral of x^a y^b over a polygon via Green's theorem.

    In coordinates (X, Y) centred on the first vertex it takes the contour
    integral of X^(i+1)/(i+1) * Y^j dY along each edge with a 1D Gauss rule,
    for i <= a and j <= b, and expands x^a y^b = (X + x0)^a (Y + y0)^b
    binomially. It shares no code with the area quadrature under test.
    Centring keeps the edge terms of a sliver polygon far from the origin
    from cancelling to the rounding of their absolute coordinates.
    """
    v = np.asarray(vertices, float)
    (x0, y0), local = v[0], v - v[0]
    x, w = np.polynomial.legendre.leggauss((a + b + 3) // 2 + 1)
    t = 0.5 * (x + 1.0)
    p, q = local, np.roll(local, -1, axis=0)
    xs = p[:, :1] + t * (q[:, :1] - p[:, :1])  # (edges, Gauss points)
    ys = p[:, 1:] + t * (q[:, 1:] - p[:, 1:])
    half_dy = 0.5 * (q[:, 1] - p[:, 1])
    total = 0.0
    for i in range(a + 1):
        for j in range(b + 1):
            moment = float(half_dy @ ((xs ** (i + 1) / (i + 1) * ys**j) @ w))
            total += math.comb(a, i) * math.comb(b, j) * x0 ** (a - i) * y0 ** (b - j) * moment
    return total


def fans(poly) -> np.ndarray:
    """(n - 2, 3) the batched fan chooser's triangles of one polygon (n, 2), a batch of one."""
    return _fan_triangles(poly[None], lambda row: "polygon")[0]


def fan_rule(poly, degree: int):
    """(points, weights) of the batched fan rule on one polygon, a batch of one."""
    pts, w = _mapped_rule(poly[None], fans(poly)[None], *_triangle_rule_reference(degree))
    return pts[0], w[0]


class TestClassifyElement:
    def test_all_outside(self):
        tri = [(0.8, 0.8), (0.9, 0.8), (0.8, 0.9)]
        assert classify_element(tri, CIRCLE) == OMEGA2

    def test_all_inside(self):
        tri = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1)]
        assert classify_element(tri, CIRCLE) == OMEGA1

    def test_straddling(self):
        # phi(0.5, 0) = -1/12 < 0 while phi(0.7, 0) = 0.49 - 1/3 > 0.
        tri = [(0.5, 0.0), (0.7, 0.0), (0.5, 0.2)]
        assert classify_element(tri, CIRCLE) == INTERFACE

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangle):
            classify_element([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], CIRCLE)

    def test_all_vertices_snapped_names_the_element(self):
        # The circle of radius sqrt(2) / 8 about (1/8, 1/8) passes through
        # the four corners of the cell [0, 1/4]^2: the mesh refuses the first
        # of its two triangles by id, and a single triangle by the id given.
        circle = CircleInterface((0.125, 0.125), 0.03125)
        with pytest.raises(DegenerateTriangle, match="^all vertices of element 72 snapped onto the interface$"):
            build_mesh(1, circle, n_override=8)
        with pytest.raises(DegenerateTriangle, match="element 5 snapped"):
            classify_element([(0.0, 0.0), (0.25, 0.0), (0.25, 0.25)], circle, element_id=5)

    def test_vertex_touch_snaps_to_other_side(self):
        r = CIRCLE.radius
        tri = [(r, 0.0), (r + 0.2, 0.0), (r, 0.2)]
        assert classify_element(tri, CIRCLE) == OMEGA2
        # All vertices in the closed disk, so the whole triangle is inside.
        tri_in = [(r, 0.0), (r - 0.2, 0.05), (r - 0.2, -0.05)]
        assert classify_element(tri_in, CIRCLE) == OMEGA1

    def test_edge_dip_is_interface(self):
        # Both endpoints outside, but the circle dips through the edge interior.
        r = CIRCLE.radius
        tri = [(-0.4, r - 0.01), (0.4, r - 0.01), (0.0, 1.0)]
        assert classify_element(tri, CIRCLE) == INTERFACE


class TestComputeCut:
    def test_analytic_root_on_bottom_edge(self):
        tri = [(0.5, 0.0), (0.7, 0.0), (0.5, 0.2)]
        cut = compute_cut(tri, CIRCLE)
        pts = sorted([tuple(cut.point_d[0]), tuple(cut.point_e[0])])
        # Root of x^2 = 1/3 on the bottom edge.
        x_root = math.sqrt(1.0 / 3.0)
        on_bottom = min(pts, key=lambda p: abs(p[1]))
        assert abs(on_bottom[0] - x_root) < 1e-13
        assert abs(on_bottom[1]) < 1e-13

    def test_cut_is_coefficient_independent(self):
        # The cut depends only on geometry; nothing about A enters compute_cut,
        # whose signature takes no coefficients at all.
        tri = [(0.5, 0.0), (0.7, 0.0), (0.5, 0.2)]
        c1 = compute_cut(tri, CIRCLE)
        c2 = compute_cut(tri, CIRCLE)
        np.testing.assert_array_equal(c1.point_d, c2.point_d)
        np.testing.assert_array_equal(side_polygon(c1, OMEGA1), side_polygon(c2, OMEGA1))

    def test_polygon_areas_partition_triangle(self):
        tri = np.array([(0.5, 0.0), (0.7, 0.0), (0.5, 0.2)])
        cut = compute_cut(tri, CIRCLE)
        area = polygon_area(tri)
        a1 = polygon_area(side_polygon(cut, OMEGA1))
        a2 = polygon_area(side_polygon(cut, OMEGA2))
        assert a1 > 0.0 and a2 > 0.0
        assert abs(a1 + a2 - area) < 1e-12 * area

    def test_normal_orientation(self):
        tri = [(0.5, 0.0), (0.7, 0.0), (0.5, 0.2)]
        cut = compute_cut(tri, CIRCLE)
        mid = 0.5 * (cut.point_d[0] + cut.point_e[0])
        assert float(cut.normal[0] @ CIRCLE.gradient(mid[0], mid[1])) > 0.0

    def test_double_edge_crossing_raises(self):
        r = CIRCLE.radius
        tri = [(-0.4, r - 0.01), (0.4, r - 0.01), (0.0, 1.0)]
        with pytest.raises(MultipleCrossings):
            compute_cut(tri, CIRCLE)

    def test_classification_consistency(self):
        # Interface iff compute_cut succeeds, over a grid of shifted triangles.
        rng = np.random.default_rng(7)
        base = np.array([(0.0, 0.0), (0.25, 0.0), (0.0, 0.25)])
        for _ in range(200):
            shift = rng.uniform(-0.8, 0.8, size=2)
            tri = base + shift
            cls = classify_element(tri, CIRCLE)
            if cls == INTERFACE:
                cut = compute_cut(tri, CIRCLE)
                assert chord_length(cut) > 0.0
            else:
                assert cls in (OMEGA1, OMEGA2)


class TestSubregionQuadrature:
    def setup_method(self):
        self.tri = np.array([(0.5, 0.0), (0.7, 0.0), (0.5, 0.2)])
        self.cut = compute_cut(self.tri, CIRCLE)

    def test_measure_matches_polygon_at_depth0(self):
        for side in (OMEGA1, OMEGA2):
            rule = quadrature_on_subregion(self.cut, side, degree=2, depth=0)
            poly = side_polygon(self.cut, side)
            assert abs(measure(rule) - polygon_area(poly)) < 1e-14

    @pytest.mark.parametrize("depth", [0, 2, 4, 6])
    def test_partition_of_measure(self, depth):
        r1 = quadrature_on_subregion(self.cut, OMEGA1, 2, depth)
        r2 = quadrature_on_subregion(self.cut, OMEGA2, 2, depth)
        area = polygon_area(self.tri)
        assert abs(measure(r1) + measure(r2) - area) < 1e-12 * area

    @pytest.mark.parametrize("depth", [0, 3, 6])
    def test_union_integrates_like_uncut_triangle(self, depth):
        degree = 4
        r1 = quadrature_on_subregion(self.cut, OMEGA1, degree, depth)
        r2 = quadrature_on_subregion(self.cut, OMEGA2, degree, depth)
        ref = triangle_rule(self.tri, degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                f = lambda x, y: x**a * y**b
                got = integrate(r1, f) + integrate(r2, f)
                want = integrate(ref, f)
                assert abs(got - want) < 1e-10 * max(abs(want), 1e-12)

    def test_polynomial_exactness_against_green_oracle(self):
        degree = 5
        for side, depth in [(OMEGA1, 0), (OMEGA2, 0), (OMEGA1, 4), (OMEGA2, 4)]:
            rule = quadrature_on_subregion(self.cut, side, degree, depth)
            poly = subregion_polygon(self.cut, side, depth)
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    want = polygon_monomial_integral(poly, a, b)
                    got = integrate(rule, lambda x, y: x**a * y**b)
                    assert abs(got - want) < 1e-12 * max(abs(want), 1e-10)

    def test_all_weights_positive(self):
        for side in (OMEGA1, OMEGA2):
            rule = quadrature_on_subregion(self.cut, side, 3, depth=6)
            assert np.all(rule.weights > 0.0)

    def test_depth_convergence_of_sliver(self):
        # Chord-halving: each extra level reduces the missing sliver area by
        # about 4x, so depth 4 vs depth 8 differ by < (1/4)^4 of the sliver.
        sliver = abs(
            measure(quadrature_on_subregion(self.cut, OMEGA1, 1, depth=8))
            - measure(quadrature_on_subregion(self.cut, OMEGA1, 1, depth=0))
        )
        d4 = measure(quadrature_on_subregion(self.cut, OMEGA1, 1, depth=4))
        d8 = measure(quadrature_on_subregion(self.cut, OMEGA1, 1, depth=8))
        assert abs(d8 - d4) < sliver * (1.0 / 4.0) ** 4


class TestMonomialOracle:
    def test_sliver_side_area_matches_centred_shoelace(self):
        # A side of 1.6e-8 of its triangle's area on an off-centre circle
        # (r = 0.638, n = 13). Summed in absolute coordinates, the oracle
        # missed the side's centroid-local shoelace area by 9.6e-11 of it.
        circle = off_centre_circle(0.638, -0.5918021383269345, -0.39462572264440143)
        cuts = build_mesh(1, circle, depth=6, n_override=13).cuts
        cut = take(cuts, cuts.elements == 133)
        poly = subregion_polygon(cut, OMEGA2, 6)
        area = polygon_area(poly - poly.mean(axis=0))
        assert 0.0 < area < 2e-8 * polygon_area(cut.triangles[0])
        assert abs(polygon_monomial_integral(poly, 0, 0) - area) <= 1e-12 * area


class TestEdgeQuadrature:
    def test_linear_moment(self):
        rule = quadrature_on_edge((0.0, 0.0), (1.0, 0.0), degree=1)
        assert abs(integrate(rule, lambda x, y: x) - 0.5) < 1e-15

    def test_split_at_circle_root(self):
        rule = quadrature_on_edge((0.5, 0.0), (0.7, 0.0), degree=3, interface=CIRCLE)
        ts = segment_crossings(np.array([(0.5, 0.0), (0.7, 0.0)]), CIRCLE)
        assert np.isnan(ts[1])
        x_root = 0.5 + ts[0] * 0.2
        assert abs(x_root - math.sqrt(1.0 / 3.0)) < 1e-13
        # Sub-rule lengths sum to the full edge length.
        assert abs(measure(rule) - 0.2) < 1e-14
        # Piecewise-polynomial exactness: integrate |side| indicator times x.
        inside = rule.points[:, 0] < x_root
        got = float(rule.weights[inside] @ rule.points[inside, 0])
        want = 0.5 * (x_root**2 - 0.25)
        assert abs(got - want) < 1e-14

    def test_odd_symmetry(self):
        rule = quadrature_on_edge((-1.0, 0.0), (1.0, 0.0), degree=3)
        assert abs(integrate(rule, lambda x, y: x**3)) < 1e-15

    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(min_value=1, max_value=9),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=0.1, max_value=3),
    )
    def test_exactness_random_segments(self, degree, x0, y0, length):
        p0 = (x0, y0)
        p1 = (x0 + length, y0 + 0.5 * length)
        rule = quadrature_on_edge(p0, p1, degree)
        ell = math.hypot(length, 0.5 * length)
        # Oracle: closed-form arc-length moment of the parameter.
        for m in range(degree + 1):
            f = lambda x, y, m=m: ((x - x0) / length) ** m
            assert abs(integrate(rule, f) - ell / (m + 1)) < 1e-12 * ell


def padded(roots):
    """A root list as segment_crossings lays it out: two slots, NaN-padded."""
    return roots + [math.nan] * (2 - len(roots))


def assert_equal_to_scalar_reference(ends, circle):
    """segment_crossings on a stack of segments equals edge_roots bit for bit, in both orientations."""
    with np.errstate(all="raise"):
        got = segment_crossings(ends, circle)
        flipped = segment_crossings(ends[:, ::-1], circle)
    want = np.array([padded(edge_roots(*from_smaller_end(p, q), circle)) for p, q in ends]).reshape(len(ends), 2)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(flipped, want)


def from_smaller_end(p, q):
    """The segment p -> q, starting from its smaller (y, x) end."""
    return (p, q) if (p[1], p[0]) <= (q[1], q[0]) else (q, p)


def near_band_edges(mesh, circle):
    """(e, 2, 2) end points of every edge of a triangle near the circle, as stored."""
    near = _interface_candidates(mesh.vertices, mesh.triangles, circle)
    return mesh.vertices[mesh.edges[np.unique(mesh.tri_edges[near])]]


class TestSegmentCrossings:
    # The vectorised solver against the scalar reference, which solves one
    # segment at a time with its dot products written out.

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
    def test_paper_circle_equals_scalar_reference(self, n):
        ends = near_band_edges(build_mesh(1, None, n_override=n), CIRCLE)
        assert_equal_to_scalar_reference(ends, CIRCLE)
        # The mesh stores each edge from its lower vertex id, its smaller (y, x) end.
        assert all(from_smaller_end(p, q)[0] is p for p, q in ends)

    @settings(deadline=None, max_examples=30)
    @given(**OFF_CENTRE, n=st.integers(min_value=2, max_value=64))
    @example(radius=0.5, u=0.0, v=2.225073858507e-311, n=8)
    def test_off_centre_circles_equal_scalar_reference(self, radius, u, v, n):
        circle = off_centre_circle(radius, u, v)
        assert_equal_to_scalar_reference(near_band_edges(build_mesh(1, None, n_override=n), circle), circle)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=1e-3, max_value=2.0),
    )
    @example([0.0, 0.0, 0.0, 0.0], 0.0, 0.0, 0.5)  # a point
    @example([0.4, 0.0, 0.4, 1e-160], 0.0, 0.0, 0.25)  # |q - p|^2 is subnormal, the roots near 1e159
    @example([-1.0, 0.5, 1.0, 0.5], 0.0, 0.0, 0.25)  # tangent to the circle
    def test_any_segment_raises_nothing_and_equals_reference(self, coords, cx, cy, r2):
        ends = np.array(coords, float).reshape(1, 2, 2)
        assert_equal_to_scalar_reference(ends, CircleInterface((cx, cy), r2))

    def test_tangent_and_endpoint_touches_are_not_crossings(self):
        r = CIRCLE.radius
        ends = np.array([
            [(-0.5, r), (0.5, r)],  # tangent at (0, r)
            [(r, 0.0), (r + 0.2, 0.0)],  # starts on the circle
            [(-r - 0.2, 0.0), (-r, 0.0)],  # ends on it
            [(-0.9, 0.0), (0.9, 0.0)],  # through it twice
        ])
        got = segment_crossings(ends, CIRCLE)
        assert np.isnan(got[:3]).all()
        np.testing.assert_allclose(got[3], [(0.9 - r) / 1.8, (0.9 + r) / 1.8], rtol=1e-15)


class TestPolygonTriangulation:
    def test_convex(self):
        poly = np.array([(0, 0), (2, 0), (2, 1), (0, 1)], float)
        tris = fans(poly)
        assert sum(abs(polygon_area(poly[list(t)])) for t in tris) == pytest.approx(2.0)

    def test_concave(self):
        poly = np.array([(0, 0), (4, 0), (4, 3), (2, 0.5), (0, 3)], float)
        tris = fans(poly)
        total = sum(abs(polygon_area(poly[list(t)])) for t in tris)
        assert total == pytest.approx(abs(polygon_area(poly)))

    def test_rule_on_concave_polygon(self):
        poly = np.array([(0, 0), (4, 0), (4, 3), (2, 0.5), (0, 3)], float)
        pts, w = fan_rule(poly, degree=3)
        for a, b in [(0, 0), (1, 0), (2, 1), (0, 3)]:
            want = polygon_monomial_integral(poly, a, b)
            got = w @ (pts[:, 0] ** a * pts[:, 1] ** b)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def signed_triangle_areas(vertices, tris):
    p = np.asarray(vertices, float)[np.asarray(tris)]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


class TestFanTriangulation:
    def test_comb_is_not_covered_by_vertex_fans(self):
        # Three deep teeth: only vertices of the middle tooth see its top
        # edge, and none of them sees the tops of the outer teeth.
        comb = np.array(
            [(0, 0), (5, 0), (5, 5), (4, 5), (4, 1), (3, 1), (3, 5), (2, 5), (2, 1),
             (1, 1), (1, 5), (0, 5)],
            float,
        )
        with pytest.raises(GeometryError, match="refine the mesh"):
            fans(comb)

    def test_near_tangent_sliver_takes_two_fans(self):
        # The circle passes 1e-4 above the bottom edge and leaves through the
        # two slanted edges near its ends: no vertex of the thin outside
        # region sees the whole arc.
        tri = np.array([(-0.1, 0.0), (0.1, 0.0), (0.0, 0.2)])
        r = 0.5
        circle = CircleInterface((0.0, r + 1e-4), r * r)
        cut = compute_cut(tri, circle, depth=6)
        poly = subregion_polygon(cut, OMEGA2, 6)
        tris = fans(poly)
        assert len(set(tris[:, 0])) == 2
        assert np.all(signed_triangle_areas(poly, tris) >= 0.0)
        total = polygon_area(tri)
        covered = sum(measure(quadrature_on_subregion(cut, s, 4)) for s in (OMEGA1, OMEGA2))
        assert abs(covered - total) <= 1e-12 * total

    def test_failing_cut_names_element_and_side(self, monkeypatch):
        # The near-tangent sliver above, with the two-fan split taken away:
        # the packed rule must refuse its outside side by element and side.
        import iwgfem.geometry
        from iwgfem.ife import build_cut_geometry

        tri = np.array([(-0.1, 0.0), (0.1, 0.0), (0.0, 0.2)])
        cut = compute_cut(tri, CircleInterface((0.0, 0.5 + 1e-4), 0.25), element_id=7, depth=6)
        monkeypatch.setattr(iwgfem.geometry, "_two_fans", lambda ok: None)
        with pytest.raises(GeometryError) as info:
            build_cut_geometry(cut, 1)
        message = str(info.value)
        assert f"element {cut.elements[0]}" in message
        assert f"side {OMEGA2}" in message
        assert "not covered by one or two vertex fans" in message

    @settings(deadline=None, max_examples=25)
    @given(**OFF_CENTRE, n=st.integers(min_value=8, max_value=128), depth=st.sampled_from([0, 4, 6]))
    # A subnormal centre coordinate overflowed the old root pre-test.
    @example(radius=0.5, u=0.0, v=2.225073858507e-311, n=8, depth=0)
    # A side-1 sub-polygon of area 2e-14 next to a vertex, whose first fan
    # centre without a negative triangle has a zero-area one.
    @example(radius=0.5607359661169675, u=0.4679198108004041, v=0.5607359661169675, n=108, depth=4)
    def test_every_cut_of_an_off_centre_circle(self, radius, u, v, n, depth):
        # The circle stays inside [-1,1]^2. A mesh too coarse for it may fail
        # to build, but only with a typed GeometryError; numpy warnings
        # become errors, so a silent NaN cannot pass either.
        circle = off_centre_circle(radius, u, v)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                mesh = build_mesh(1, circle, depth=depth, n_override=n)
            except GeometryError:
                return
            for cut in split(mesh.cuts):
                covered = 0.0
                for side in (OMEGA1, OMEGA2):
                    poly = subregion_polygon(cut, side, depth)
                    tris = fans(poly)
                    np.testing.assert_array_equal(tris, triangulate_polygon(poly))
                    assert tris.shape == (len(poly) - 2, 3)
                    assert np.all(signed_triangle_areas(poly, tris) >= 0.0)
                    rule = quadrature_on_subregion(cut, side, 4, depth)
                    assert np.all(rule.weights > 0.0)
                    covered += measure(rule)
                area = polygon_area(cut.triangles[0])
                assert abs(covered - area) <= 1e-10 * area


class TestTriangleRule:
    @pytest.mark.parametrize("degree", [1, 2, 4, 8, 10])
    def test_reference_exactness(self, degree):
        rule = triangle_rule([(0, 0), (1, 0), (0, 1)], degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                want = (
                    math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                )
                got = integrate(rule, lambda x, y: x**a * y**b)
                assert abs(got - want) < 1e-13 * max(want, 1e-10)

    def test_weights_sum_to_measure(self):
        rule = triangle_rule([(1, 1), (3, 1), (1, 4)], 5)
        assert abs(measure(rule) - 3.0) < 1e-12 * 3.0
