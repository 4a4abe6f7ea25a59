"""The packed cut-cell rule and the batched operations that consume it.

The per-element functions below are the reference: they evaluate the loads,
projections and errors one cut element at a time, through each element's own
rules and freshly evaluated monomials, the way the solver did before the
rules were packed. The batched operations must agree with them up to the
order of summation.
"""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwgfem.analysis import AnalysisError, _interface_errors, compute_errors, example1
from iwgfem.assembly import assemble_interface, assemble_system, build_cut_geometries, build_level_plan
from iwgfem.geometry import (
    OMEGA1,
    OMEGA2,
    RULE_DEPTH,
    CircleInterface,
    GeometryError,
    _polygon_batches,
    pack_subregion_rules,
    polygon_area,
    subregion_moments,
)
from iwgfem import ife
from iwgfem.ife import PolyBasis, _fit_moments, build_cut_geometry, build_local_spaces, sample
from iwgfem.mesh import build_mesh
from iwgfem.solver import solve
from reference import (
    block,
    compute_cut,
    interpolation_errors,
    polygon_rule,
    run_level,
    side_rules,
    split,
    subregion_polygon,
    tabulated_subregion_moments,
    take,
    triangulate_polygon,
)
from test_geometry import OFF_CENTRE, off_centre_circle, polygon_monomial_integral

CIRCLES = [CircleInterface(), CircleInterface((0.3, 0.2), 0.36)]
CASES = [(1, "segment"), (2, "arc")]
EPS = np.finfo(float).eps


def element_samples(space, f) -> dict:
    """side -> f at that side's rule points."""
    return {side: np.asarray(f(r.points[:, 0], r.points[:, 1]), float) for side, r in side_rules(space).items()}


def element_side_samples(space, u_side) -> dict:
    """side -> that side's u_side at its rule points, wherever they lie."""
    return {side: np.asarray(u_side(*r.points.T, side), float) for side, r in side_rules(space).items()}


def element_vander(space, side) -> np.ndarray:
    """Monomial values at one side's rule points, evaluated afresh."""
    return space.poly.eval(space.local_coords(side_rules(space)[side].points))


def element_moments(space, values: dict) -> np.ndarray:
    """(g, phi_j)_T through the m x m coefficient blocks."""
    out = np.zeros(space.m)
    for side in (OMEGA1, OMEGA2):
        weighted = side_rules(space)[side].weights * values[side]
        out += block(space, side).T @ (element_vander(space, side).T @ weighted)
    return out


def element_moment_scale(space, values: dict) -> np.ndarray:
    """sum |w g V c| per basis function: the magnitude of the terms a moment adds."""
    out = np.zeros(space.m)
    for side in (OMEGA1, OMEGA2):
        weighted = side_rules(space)[side].weights * np.abs(values[side])
        out += np.abs(block(space, side)).T @ (np.abs(element_vander(space, side)).T @ weighted)
    return out


def element_values(space, v0) -> dict:
    """side -> the interior function v0 at that side's rule points."""
    return {side: element_vander(space, side) @ (block(space, side) @ v0) for side in (OMEGA1, OMEGA2)}


def element_q0(space, values: dict) -> np.ndarray:
    return np.linalg.solve(space.gram, element_moments(space, values))


def element_qb(space, g) -> np.ndarray:
    """(3, k): Q_b of g on each local edge."""
    geometry, i = space.geometry, space.index
    pts = geometry.edge_points[i]
    weighted = geometry.edge_weights[i] * np.asarray(g(pts[..., 0], pts[..., 1]), float)
    return np.einsum("eqk,eq->ek", geometry.edge_legendre[i], weighted)


def element_energy(space, loc) -> float:
    """Unweighted |grad_w v|_T^2 + h_T^{-1} |Q_b v_0 - v_b|_dT^2."""
    c = space.weak_grad @ loc
    total = float(c @ space.grad_gram @ c)
    for jump in space.trace @ loc[: space.m] - loc[space.m :].reshape(3, space.k):
        total += float(jump @ jump) / space.h_ref
    return total


def element_interface_errors(dofmap, spaces, x_all, ms):
    """(energy^2, L2^2, max) over the interface elements, one element at a time."""
    locs = (dofmap.routes @ x_all[dofmap.columns][..., None]).reshape(len(dofmap.elements), -1)
    energy_sq = l2_sq = linf = 0.0
    for t, loc in zip(dofmap.elements, locs):
        space = spaces[t]
        ue = element_side_samples(space, ms.u_side)
        q0 = element_q0(space, ue)
        e_loc = np.concatenate([q0, element_qb(space, ms.u).ravel()]) - loc
        energy_sq += element_energy(space, e_loc)
        d = q0 - loc[: space.m]
        l2_sq += float(d @ space.gram @ d)
        uh = element_values(space, loc[: space.m])
        for side in (OMEGA1, OMEGA2):
            linf = max(linf, float(np.max(np.abs(uh[side] - ue[side]))))
    return energy_sq, l2_sq, linf


def element_q0_error_sq(spaces, ms) -> float:
    """||Q_0 u - u||^2 over the interface elements, one element at a time."""
    total = 0.0
    for space in spaces.values():
        ue = element_side_samples(space, ms.u_side)
        vals = element_values(space, element_q0(space, ue))
        for side in (OMEGA1, OMEGA2):
            total += float(side_rules(space)[side].weights @ (vals[side] - ue[side]) ** 2)
    return total


@pytest.fixture(scope="module", params=[(c, k, mode) for c in CIRCLES for k, mode in CASES],
                ids=lambda p: f"{'centred' if p[0].center == (0.0, 0.0) else 'off-centre'}-k{p[1]}-{p[2]}")
def solved(request):
    interface, k, mode = request.param
    ms = example1(1.0, 100.0, interface)
    plan = build_level_plan(build_mesh(2, interface), k, ms.f)
    system, spaces = assemble_system(plan, ms.a1, ms.a2, ms.g, mode)
    x, _ = solve(system.matrix, system.rhs)
    return plan, ms, system.dofmap, spaces, system.full_coefficients(x)


class TestBatchedAgainstPerElementReference:
    # A moment sums up to ~1,600 products per side (depth-6 rules); the
    # packed segment sums add them in another order. The recursive-summation
    # bound is n eps / 2 (~800 eps) times the sum of the terms' magnitudes;
    # 10-22 eps is seen, so 100 eps is the tolerance.

    def test_loads(self, solved):
        _, ms, _, spaces, _ = solved
        moments = spaces.geometry.monomial_moments(sample(ms.f, spaces.geometry.rule_points))
        got = assemble_interface(spaces, moments).load[:, : spaces.geometry.m]
        samples = [element_samples(s, ms.f) for s in spaces.values()]
        want = np.array([element_moments(s, v) for s, v in zip(spaces.values(), samples)])
        scale = np.array([element_moment_scale(s, v) for s, v in zip(spaces.values(), samples)])
        assert np.all(np.abs(got - want) <= 100 * EPS * scale)

    def test_q0_and_qb_projections(self, solved):
        # Q_0 solves with the same Gram, which is the identity to roundoff,
        # so it keeps the moments' agreement; Q_b is the same product per
        # edge, batched over the elements.
        _, ms, _, spaces, _ = solved
        geometry = spaces.geometry
        pts = geometry.rule_points
        q0 = spaces.project_interior(ms.u(pts[:, 0], pts[:, 1]))
        samples = [element_samples(s, ms.u) for s in spaces.values()]
        want = np.array([element_q0(s, v) for s, v in zip(spaces.values(), samples)])
        scale = np.array([element_moment_scale(s, v) for s, v in zip(spaces.values(), samples)])
        assert np.all(np.abs(q0 - want) <= 100 * EPS * scale)
        e = geometry.edge_points
        qb = spaces.project_traces(ms.u(e[..., 0], e[..., 1]))
        want = np.array([element_qb(s, ms.u) for s in spaces.values()])
        np.testing.assert_allclose(qb, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_interface_errors(self, solved):
        # The energy and L2 sums are squares of Q_0 u - u_0 and Q_b u - u_b,
        # differences of O(1) numbers that cancel to the discretization error,
        # so the rounding of the projections (~1e-16 of |Q_0 u|) is magnified
        # by |Q_0 u| / |Q_0 u - u_0| in the sums: 2e-12 relative is seen
        # (k = 2, centred), and rtol 1e-9 leaves room for that factor to grow
        # ~500-fold. The max error compares values at the same points, one
        # subtraction deep, so it agrees to ~1e-15 relative.
        plan, ms, dofmap, spaces, x_all = solved
        (got,) = _interface_errors(plan, [(x_all, ms, spaces)])
        want = element_interface_errors(dofmap, spaces, x_all, ms)
        assert got[0] == pytest.approx(want[0], rel=1e-9)
        assert got[1] == pytest.approx(want[1], rel=1e-9)
        assert got[2] == pytest.approx(want[2], rel=1e-13)

    def test_q0_interpolation_error(self, solved):
        # ||Q_0 u - u|| cancels the same way as the L2 error above.
        plan, ms, _, spaces, _ = solved
        got = interpolation_errors(plan, spaces, ms)["q0_l2"]
        assert got**2 == pytest.approx(element_q0_error_sq(spaces, ms), rel=1e-9)

    def test_interior_values_equal_fresh_basis_values(self, solved):
        # The packed monomial values equal a fresh evaluation at each
        # element's rule points bit for bit; the batched interior values sum
        # m products in another order than the matrix product, so they agree
        # within m eps of the sum of the products' magnitudes.
        _, _, _, spaces, _ = solved
        geometry, m = spaces.geometry, spaces.geometry.m
        for q in range(m):
            got = spaces.interior_values(np.tile(np.eye(m)[q], (len(spaces), 1)))
            for i, space in enumerate(spaces.values()):
                for s, side in enumerate((OMEGA1, OMEGA2)):
                    seg = slice(*geometry.rule_offsets[2 * i + s : 2 * i + s + 2])
                    fresh = element_vander(space, side)
                    np.testing.assert_array_equal(geometry.rule_vander[:, seg].T, fresh)
                    column = block(space, side)[:, q]
                    bound = m * EPS * (np.abs(fresh) @ np.abs(column))
                    assert np.all(np.abs(got[seg] - fresh @ column) <= bound), (spaces.elements[i], side)


class TestPackedRule:
    @pytest.mark.parametrize("k", [1, 2])
    def test_element_rules_are_views_of_the_packed_arrays(self, k):
        geometry = build_cut_geometries(build_mesh(2, CIRCLES[1]), k)
        total = 0
        for i, points in enumerate(geometry.values()):
            for s, side in enumerate((OMEGA1, OMEGA2)):
                rule = points.rules[side]
                assert np.shares_memory(rule.points, geometry.rule_points)
                assert np.shares_memory(rule.weights, geometry.rule_weights)
                assert len(rule.weights) == np.diff(geometry.rule_offsets)[2 * i + s]
                total += len(rule.weights)
        assert total == len(geometry.rule_weights) == len(geometry.rule_points) == geometry.rule_vander.shape[1]

    def test_errors_refuse_spaces_out_of_routing_order(self):
        ms = example1(1.0, 10.0)
        plan = build_level_plan(build_mesh(1, ms.interface), 1, ms.f)
        system, spaces = assemble_system(plan, ms.a1, ms.a2, ms.g)
        cuts = take(plan.mesh.cuts, slice(None, None, -1))
        reversed_spaces = build_local_spaces(build_cut_geometry(cuts, 1), ms.a1, ms.a2)
        x_all = system.full_coefficients(np.zeros(system.matrix.shape[0]))
        compute_errors(plan, [(x_all, ms, spaces)])
        with pytest.raises(AnalysisError, match="element order"):
            compute_errors(plan, [(x_all, ms, reversed_spaces)])


def assert_rules_equal_per_element_rules(geometry_, degree):
    """Each packed segment is the reference rule at the table's depth capped at RULE_DEPTH, bit for bit.

    A deeper table keeps those points, and its fitted weights reproduce the
    monomial moments of the rule at its own depth to 1e-12 of the moment or
    the side's area, whichever is larger (criterion 8's scaling). Returns
    the (element id, side) of every segment whose reference takes two fans.
    """
    sizes, two_fans = [], []
    depth = geometry_.cuts.depth
    for i, cut in enumerate(split(geometry_.cuts)):
        for s, side in enumerate((OMEGA1, OMEGA2)):
            poly = subregion_polygon(cut, side, min(depth, RULE_DEPTH))
            rule = polygon_rule(poly, degree)
            seg = slice(*geometry_.rule_offsets[2 * i + s : 2 * i + s + 2])
            np.testing.assert_array_equal(geometry_.rule_points[seg], rule.points)
            if len(set(triangulate_polygon(poly)[:, 0].tolist())) > 1:
                two_fans.append((cut.elements[0], side))
            if depth <= RULE_DEPTH:
                np.testing.assert_array_equal(geometry_.rule_weights[seg], rule.weights)
            else:
                deep = polygon_rule(subregion_polygon(cut, side, depth), degree)
                want = deep.weights @ PolyBasis(degree).eval(deep.points)
                got = geometry_.rule_weights[seg] @ PolyBasis(degree).eval(rule.points)
                scale = np.maximum(np.abs(want), deep.weights.sum())
                assert np.all(np.abs(got - want) <= 1e-12 * scale), (cut.elements[0], side)
            sizes.append(len(rule.weights))
    np.testing.assert_array_equal(np.diff(geometry_.rule_offsets), sizes)
    return two_fans


def assert_packed_equals_reference(cuts, depth: int, degree: int):
    """``pack_subregion_rules`` at ``depth`` equals the reference rule of every side bit for bit."""
    offsets, points, weights = pack_subregion_rules(cuts, np.arange(2 * len(cuts)), depth, degree)
    for j, (cut, side) in enumerate((cut, side) for cut in split(cuts) for side in (OMEGA1, OMEGA2)):
        rule = polygon_rule(subregion_polygon(cut, side, depth), degree)
        np.testing.assert_array_equal(points[offsets[j] : offsets[j + 1]], rule.points)
        np.testing.assert_array_equal(weights[offsets[j] : offsets[j + 1]], rule.weights)


class TestPackedFans:
    # The packed rule builds every sub-polygon, picks its fans and maps the
    # reference triangle rule in batches; the per-polygon rule of
    # tests/reference.py is the reference.

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    @pytest.mark.parametrize("depth", [0, 6])
    def test_paper_circle_equals_per_element_rules(self, n, depth):
        mesh = build_mesh(1, CIRCLES[0], depth=depth, n_override=n)
        for k in (1, 2):
            # On the paper's circle one fan covers every sub-polygon.
            assert assert_rules_equal_per_element_rules(build_cut_geometries(mesh, k), 2 * k + 4) == []

    def test_near_tangent_sliver_takes_the_two_fan_path(self):
        # The circle passes 1e-4 above the bottom edge: no vertex of the thin
        # outside region sees the whole arc, so that side alone takes two fans.
        tri = np.array([(-0.1, 0.0), (0.1, 0.0), (0.0, 0.2)])
        cut = compute_cut(tri, CircleInterface((0.0, 0.5 + 1e-4), 0.25), element_id=3, depth=6)
        for k in (1, 2):
            two_fans = assert_rules_equal_per_element_rules(build_cut_geometry(cut, k), 2 * k + 4)
            assert two_fans == [(3, OMEGA2)]
        for depth in (0, 2, 6):
            assert_packed_equals_reference(cut, depth, 6)

    def test_zero_area_fan_triangle(self):
        # TestFanTriangulation's example: a side-1 sub-polygon of area 2e-14
        # next to a vertex, whose first fan centre without a negative
        # triangle has a zero-area one.
        mesh = build_mesh(1, off_centre_circle(0.5607359661169675, 0.4679198108004041, 0.5607359661169675),
                          depth=4, n_override=108)
        for depth in (2, 4):
            assert_packed_equals_reference(mesh.cuts, depth, 4)

    def test_off_centre_circle_at_two_depths(self):
        # A fitted and an unfitted table, each with one- and two-fan sides in one packed rule.
        for depth in (6, 2):
            cuts = build_mesh(1, CIRCLES[1], depth=depth, n_override=8).cuts
            two_fans = assert_rules_equal_per_element_rules(build_cut_geometry(cuts, 2), 8)
            assert 0 < len(two_fans) < len(cuts)


def assert_sides_reproduce_monomials(geometry_, rows, depth: int, degree: int):
    """Both sides of the cuts ``rows`` integrate every monomial of ``degree`` over their depth's polygon.

    Errors are relative to the moment or the side's area, as in criterion 8,
    with monomials centred on the cut's triangle.
    """
    cuts = geometry_.cuts
    for i in rows:
        centre = cuts.triangles[i].mean(axis=0)
        for s, side in enumerate((OMEGA1, OMEGA2)):
            seg = slice(*geometry_.rule_offsets[2 * i + s : 2 * i + s + 2])
            (x, y), w = (geometry_.rule_points[seg] - centre).T, geometry_.rule_weights[seg]
            poly = subregion_polygon(take(cuts, [i]), side, depth) - centre
            scale = abs(polygon_area(poly))
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    want = polygon_monomial_integral(poly, a, b)
                    got = w @ (x**a * y**b)
                    assert abs(got - want) <= 1e-12 * max(abs(want), scale), (i, side, a, b)


def side_frames(cuts, segments: np.ndarray, depth: int):
    """Principal-axis frames (origin, axes) of the sides ``segments`` at ``depth``, det > 0.

    Each frame is centred on its polygon's vertices and scaled to them, as
    the fit scales its frames to a side's points, so a sliver side's contour
    terms stay near its area in size.
    """
    origin, axes = np.empty((len(segments), 2)), np.empty((len(segments), 2, 2))
    for ps, verts in _polygon_batches(cuts, segments, depth):
        centre = verts.mean(axis=1)
        rel = verts - centre[:, None]
        frame = np.linalg.eigh(rel.swapaxes(-1, -2) @ rel)[1].swapaxes(-1, -2)
        frame[frame[:, 0, 0] * frame[:, 1, 1] < frame[:, 0, 1] * frame[:, 1, 0], 0] *= -1.0
        frame /= np.abs(rel @ frame.swapaxes(-1, -2)).max(axis=1)[..., None]
        origin[ps], axes[ps] = centre, frame
    return origin, axes


def assert_moments_equal_the_table(cuts, segments: np.ndarray, depth: int):
    """``subregion_moments`` within 1e-13 of the tabulated form, relative to the moment or the side's area.

    Eight sides at a time bound the table's temporaries at depth 12.
    """
    origin, axes = side_frames(cuts, segments, depth)
    for degree in (6, 8):
        for start in range(0, len(segments), 8):
            part = slice(start, start + 8)
            args = (cuts, segments[part], depth, origin[part], axes[part], degree)
            want, got = tabulated_subregion_moments(*args), subregion_moments(*args)
            scale = np.maximum(np.abs(want), np.abs(want[:, :1, :1]))  # entry [0, 0] is the area
            assert np.all(np.abs(got - want) <= 1e-13 * scale), (start, degree)


class TestMomentFit:
    # A cut deeper than RULE_DEPTH keeps its depth-2 fan rule's points, and
    # its weights are fitted to the moments of its own depth's polygon.

    @settings(deadline=None, max_examples=20)
    @given(**OFF_CENTRE, n=st.integers(min_value=8, max_value=48), k=st.sampled_from([1, 2]),
           depth=st.sampled_from([0, 1, 2, 3, 6]))
    def test_off_centre_circles(self, radius, u, v, n, k, depth):
        # Numpy warnings are errors, so a silent NaN cannot pass. The
        # monomial check runs on the cuts of the four thinnest sides and on
        # the first and last cut.
        circle = off_centre_circle(radius, u, v)
        degree = 2 * k + 4
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                mesh = build_mesh(1, circle, depth=depth, n_override=n)
            except GeometryError:
                return
            cuts = mesh.cuts
            geometry_ = build_cut_geometry(cuts, k)
        if not cuts:
            return
        sums = np.add.reduceat(geometry_.rule_weights, geometry_.rule_offsets[:-1]).reshape(-1, 2)
        areas = polygon_area(cuts.triangles)
        assert np.all(np.abs(sums.sum(axis=1) - areas) <= 1e-12 * areas)
        if depth <= RULE_DEPTH:
            assert_rules_equal_per_element_rules(geometry_, degree)
            return
        thin = np.argsort((sums / areas[:, None]).min(axis=1))[:4]
        assert_sides_reproduce_monomials(geometry_, {0, len(cuts) - 1, *thin.tolist()}, depth, degree)

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_side_of_a_level_reproduces_its_monomials(self, k):
        # All 124 sides at N = 16, depth 6. No count of the k = 2 negative
        # weights is pinned: they sit on sliver sides where cond(R) reaches
        # 1e16, so the rounding of the moments sets them.
        cuts = build_mesh(1, CIRCLES[0], depth=6, n_override=16).cuts
        assert_sides_reproduce_monomials(build_cut_geometry(cuts, k), range(len(cuts)), 6, 2 * k + 4)

    @pytest.mark.parametrize("depth", [3, 6, 12])
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_moments_equal_the_tabulated_antiderivatives(self, n, depth):
        # The paper circle; at depth 12, some 32 sides spread over the table.
        cuts = build_mesh(1, CIRCLES[0], depth=depth, n_override=n).cuts
        segments = np.arange(2 * len(cuts))
        if depth == 12:
            segments = segments[:: len(segments) // 32]
        assert_moments_equal_the_table(cuts, segments, depth)

    @settings(deadline=None, max_examples=10)
    @given(**OFF_CENTRE, n=st.integers(min_value=8, max_value=48), depth=st.sampled_from([3, 6, 12]))
    def test_moments_equal_the_tabulated_antiderivatives_off_centre(self, radius, u, v, n, depth):
        try:
            cuts = build_mesh(1, off_centre_circle(radius, u, v), depth=depth, n_override=n).cuts
        except GeometryError:
            return
        segments = np.arange(2 * len(cuts))
        if depth == 12:
            segments = segments[:: max(1, len(segments) // 32)]
        assert_moments_equal_the_table(cuts, segments, depth)

    def test_singular_fit_names_element_and_side(self):
        # A segment whose fan rule carries no weight gives no frame and no R:
        # the fit refuses it by name instead of packing NaN weights.
        cuts = compute_cut(np.array([(0.5, 0.0), (0.7, 0.0), (0.5, 0.2)]), CircleInterface(), element_id=9)
        offsets, points, weights = pack_subregion_rules(cuts, np.arange(2), RULE_DEPTH, 6)
        weights[offsets[1] : offsets[2]] = 0.0
        with np.errstate(all="ignore"), pytest.raises(GeometryError, match=f"^element 9, side {OMEGA2}: singular"):
            _fit_moments(cuts, offsets, points, weights, 6)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("circle", CIRCLES)
    def test_fitted_weights_do_not_depend_on_the_segment_batch(self, circle, k, monkeypatch):
        # The batch's QR, eigh and products act segment by segment, so the
        # batch size bounds the temporaries and changes no weight.
        mesh = build_mesh(1, circle, n_override=32)
        default = build_cut_geometries(mesh, k).rule_weights
        assert 2 * len(mesh.cuts) > ife.SEGMENT_BATCH
        monkeypatch.setattr(ife, "SEGMENT_BATCH", 7)
        assert np.array_equal(build_cut_geometries(mesh, k).rule_weights, default)

    @pytest.mark.parametrize("depth", [3, 6])
    @pytest.mark.parametrize("circle", CIRCLES)
    def test_moments_do_not_depend_on_the_batch(self, circle, depth):
        # Each side's moments are the same bits in a batch of one as among
        # every side of the level.
        cuts = build_mesh(1, circle, depth=depth, n_override=16).cuts
        segments = np.arange(2 * len(cuts))
        origin, axes = side_frames(cuts, segments, depth)
        for degree in (6, 8):
            whole = subregion_moments(cuts, segments, depth, origin, axes, degree)
            for j in range(len(segments)):
                one = subregion_moments(cuts, segments[j : j + 1], depth, origin[j : j + 1], axes[j : j + 1], degree)
                assert np.array_equal(one[0], whole[j]), (j, degree)

    def test_paper_circle_has_no_negative_weight_at_k1(self):
        # At k = 2 a few sliver sides take negative weights; at k = 1 none does.
        for n in (8, 16, 32, 64, 128):
            assert np.all(build_cut_geometries(build_mesh(1, CIRCLES[0], n_override=n), 1).rule_weights > 0.0)

    def test_error_pass_samples_each_segment_on_its_own_side(self):
        # The arc bulges past the chords of its depth-2 polyline, so some
        # side-2 rule points lie inside the circle, where u is u_1. The
        # error pass must evaluate them with u_2, the side they integrate:
        # it forms u at the packed points for Q_0 u, which is read here.
        ms = example1(1.0, 1000.0)
        plan = build_level_plan(build_mesh(1, ms.interface), 2, ms.f)
        system, spaces = assemble_system(plan, ms.a1, ms.a2, ms.g, "arc")
        geometry_ = spaces.geometry
        on_2 = np.repeat(np.tile([False, True], len(geometry_)), np.diff(geometry_.rule_offsets))
        pts = geometry_.rule_points
        (across,) = np.nonzero(on_2 & (ms.interface.value(pts[:, 0], pts[:, 1]) < 0.0))
        assert len(across) > 0
        x, y = pts[across[0]]
        assert ms.u(x, y) == ms.u_side(x, y, OMEGA1) != ms.u_side(x, y, OMEGA2)

        formed = []

        def project_interior(values):
            formed.append(values)
            return type(spaces).project_interior(spaces, values)

        spaces.project_interior = project_interior
        x_all = system.full_coefficients(np.zeros(system.matrix.shape[0]))
        compute_errors(plan, [(x_all, ms, spaces)])
        (ue,) = formed
        assert ue[across[0]] == ms.u_side(x, y, OMEGA2) != ms.u_side(x, y, OMEGA1)


def _counted(ms, calls: collections.Counter):
    """``ms`` with its source and solution callables counting their calls."""

    def wrap(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    return dataclasses.replace(ms, **{n: wrap(n, getattr(ms, n)) for n in ("f", "u_profile", "grad_profile")})


@pytest.mark.parametrize("k, mode", CASES)
def test_source_and_solution_calls_do_not_grow_with_the_cut_elements(k, mode):
    # Level 3 has about four times the cut elements of level 1; a pair's
    # loads, boundary values and errors must still make the same number of
    # calls (u, g and the error sums go through the profiles).
    calls = {}
    for level in (1, 3):
        calls[level] = collections.Counter()
        run_level(_counted(example1(1.0, 10.0), calls[level]), k, level, mode)
    assert calls[1] == calls[3]
    assert calls[1]["f"] == 2  # once on the CG rule points, once on the packed cut rule


@pytest.mark.parametrize("k, mode", CASES)
def test_interface_outside_the_mesh_gives_an_empty_packed_rule(k, mode):
    # No element is cut: every batched operation runs on zero segments and
    # the level solves as plain CG.
    ms = example1(1.0, 10.0, CircleInterface((5.0, 5.0), 0.1))
    errors, _, mesh, _, spaces, _ = run_level(ms, k, 1, mode)
    assert not mesh.cuts and spaces.geometry.rule_offsets.tolist() == [0]
    assert all(np.isfinite(e) and e > 0.0 for e in errors.values())
    assert interpolation_errors(build_level_plan(mesh, k, ms.f), spaces, ms)["q0_l2"] == 0.0
