import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwgfem.geometry import (
    OMEGA1,
    OMEGA2,
    CircleInterface,
    canonical_edges,
    polygon_area,
)
from iwgfem.ife import (
    IllConditionedWarning,
    PolyBasis,
    RankDeficient,
    SingularGram,
    _constraint_matrix,
    _legendre_values,
    _segment_null_basis,
    build_cut_geometry,
    build_local_spaces,
    sample,
    sample_chord_residuals,
)
from iwgfem.mesh import build_mesh
from reference import (
    block,
    compute_cut,
    construct_ife_basis,
    level_spaces,
    local_coords,
    measure,
    project_qb,
    quadrature_on_edge,
    quadrature_on_subregion,
    side_polygon,
    side_rules,
    space_cut,
    split,
    take,
)

CIRCLE = CircleInterface()
TRI = np.array([(0.5, 0.0), (0.7, 0.0), (0.5, 0.2)])


def cut_triangle(scale: float = 1.0, theta: float = 0.3):
    """A triangle straddling the circle near angle theta, for refinement studies."""
    p = CIRCLE.radius * np.array([math.cos(theta), math.sin(theta)])
    corners = np.array([(-1.0, -1.0), (1.0, -0.6), (0.2, 1.0)])
    tri = p + 0.15 * scale * corners
    return compute_cut(tri, CIRCLE)


def example1_u(a1, a2):
    half = 0.5 * (1.0 / a1 - 1.0 / a2)

    def u(x, y):
        r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        inside = np.cos(np.pi * r2) / a1
        outside = np.cos(np.pi * r2) / a2 + half
        return np.where(r2 < 1.0 / 3.0, inside, outside)

    return u


class TestPolyBasis:
    def test_dimensions(self):
        assert PolyBasis(1).dim == 3
        assert PolyBasis(2).dim == 6

    def test_constant_first(self):
        for k in (1, 2):
            e = PolyBasis(k).exponents
            assert tuple(e[0]) == (0, 0)

    def test_unisolvent(self):
        # Evaluation matrix at the P_k Lagrange lattice of the unit triangle.
        for k in (1, 2):
            pts = np.array([(i / k, j / k) for i in range(k + 1) for j in range(k + 1 - i)])
            cond = np.linalg.cond(PolyBasis(k).eval(pts))
            assert np.isfinite(cond) and cond < 100.0

    def test_gradient_matches_finite_differences(self):
        poly = PolyBasis(2)
        pts = np.array([[0.3, -0.2]])
        g = poly.grad(pts)[0]
        h = 1e-6
        for j in range(poly.dim):
            fx = (poly.eval(pts + [h, 0])[0, j] - poly.eval(pts - [h, 0])[0, j]) / (2 * h)
            fy = (poly.eval(pts + [0, h])[0, j] - poly.eval(pts - [0, h])[0, j]) / (2 * h)
            assert abs(g[j, 0] - fx) < 1e-8
            assert abs(g[j, 1] - fy) < 1e-8


def constraint_matrix(cut, a1, a2, k, mode="segment"):
    """The scaled, normalized constraint rows of one cut, from its lifted geometry."""
    return _constraint_matrix(build_cut_geometry(cut, k), a1, a2, mode)[0]


class TestConstraintSystem:
    def test_k1_shape_and_rank(self):
        cut = compute_cut(TRI, CIRCLE)
        c = constraint_matrix(cut, 1.0, 10.0, k=1)
        assert c.shape == (3, 6)
        sv = np.linalg.svd(c, compute_uv=False)
        assert sv[-1] > 1e-8  # full row rank: null space has dimension 3

    def test_k2_shape_and_rank(self):
        cut = compute_cut(TRI, CIRCLE)
        for mode in ("segment", "arc"):
            c = constraint_matrix(cut, 1.0, 100.0, k=2, mode=mode)
            assert c.shape == (6, 12)
            sv = np.linalg.svd(c, compute_uv=False)
            assert sv[-1] > 1e-8

    def test_equal_coefficients_pairs_satisfy(self):
        cut = compute_cut(TRI, CIRCLE)
        rng = np.random.default_rng(0)
        for k in (1, 2):
            m = PolyBasis(k).dim
            c = constraint_matrix(cut, 3.0, 3.0, k=k)
            p = rng.standard_normal(m)
            assert np.max(np.abs(c @ np.concatenate([p, p]))) < 1e-12


class TestBasisConstruction:
    @pytest.mark.parametrize("k,mode", [(1, "segment"), (2, "segment"), (1, "arc"), (2, "arc")])
    def test_orthonormal_with_exact_constant(self, k, mode):
        cut = compute_cut(TRI, CIRCLE)
        spaces = construct_ife_basis(cut, 1.0, 10.0, k, mode=mode)
        m = spaces.geometry.m
        np.testing.assert_allclose(spaces.gram[0], np.eye(m), atol=1e-12)
        # First basis vector is the normalized constant pair, exactly.
        col = spaces.coeffs[0, :, 0]
        nonzero = np.flatnonzero(col)
        assert set(nonzero) == {0, m}
        assert col[0] == col[m]
        assert spaces.constraint_residual[0] < 1e-12

    def test_degenerates_to_pk_when_coefficients_match(self):
        cut = compute_cut(TRI, CIRCLE)
        for k in (1, 2):
            spaces = construct_ife_basis(cut, 2.5, 2.5, k)
            m = spaces.geometry.m
            # Every basis function is a single polynomial: p1 == p2.
            assert np.max(np.abs(spaces.coeffs[0, :m] - spaces.coeffs[0, m:])) < 1e-10
            # Projection of x onto the span reproduces x.
            pts = spaces.geometry.rule_points
            vals = spaces.interior_values(spaces.project_interior(pts[:, 0]))
            assert np.max(np.abs(vals - pts[:, 0])) < 1e-12

    def test_chord_residuals_k1(self):
        cut = compute_cut(TRI, CIRCLE)
        spaces = construct_ife_basis(cut, 1.0, 10.0, 1)
        val, flux, _ = sample_chord_residuals(spaces, 0, n_samples=5)
        assert val < 1e-10
        assert flux < 1e-10

    def test_chord_residuals_k2(self):
        # Moderate contrast: the [A lap u] jump of an L2-orthonormalized
        # basis is bounded only by the rounding of its coefficients,
        # eps * max(A) * |c| * 2 / h^2, which grows with the contrast (see the
        # acceptance suite note).
        cut = compute_cut(TRI, CIRCLE)
        spaces = construct_ife_basis(cut, 1.0, 10.0, 2)
        val, flux, lap = sample_chord_residuals(spaces, 0)
        assert val < 1e-10
        assert flux < 1e-10
        assert lap < 1e-10

    def test_arc_mode_moment_residuals(self):
        cut = compute_cut(TRI, CIRCLE)
        spaces = construct_ife_basis(cut, 1.0, 100.0, 2, mode="arc")
        assert spaces.constraint_residual[0] < 1e-12

    @settings(deadline=None, max_examples=15)
    @given(st.floats(min_value=0.05, max_value=50.0))
    def test_scaling_both_coefficients_keeps_span(self, s):
        # The constraints are homogeneous in A, so V_k(T) is scale invariant.
        cut = compute_cut(TRI, CIRCLE)
        base = construct_ife_basis(cut, 1.0, 10.0, 1)
        scaled = construct_ife_basis(cut, s, 10.0 * s, 1)
        # Compare L2-orthogonal projectors in pair-coefficient space.
        mass = _pair_mass_matrix(base, 0)
        p_base = base.coeffs[0] @ base.coeffs[0].T @ mass
        p_scaled = scaled.coeffs[0] @ scaled.coeffs[0].T @ mass
        assert np.linalg.norm(p_base - p_scaled, 2) < 1e-9

    def test_best_approximation_order_k1(self):
        # L2-projection error of the true piecewise solution onto V_1(T)
        # quarters when the element size halves.
        u = example1_u(1.0, 10.0)
        errs = []
        for j in range(3):
            cut = cut_triangle(scale=2.0**-j)
            spaces = construct_ife_basis(cut, 1.0, 10.0, 1)
            errs.append(_projection_error(spaces, u))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.35)

    def test_q0_refinement_order(self):
        # ||Q_0 u - u|| ratio approaches 2^(k+1) under halving.
        for k, mode, ratio in [(1, "segment", 4.0), (2, "arc", 8.0)]:
            u = example1_u(1.0, 10.0)
            errs = []
            for j in range(2, 4):
                cut = cut_triangle(scale=2.0**-j)
                spaces = construct_ife_basis(cut, 1.0, 10.0, k, mode=mode)
                errs.append(_projection_error(spaces, u))
            assert errs[0] / errs[1] == pytest.approx(ratio, rel=0.35)


@pytest.fixture(scope="module")
def level3_cuts():
    return split(build_mesh(3, CIRCLE).cuts)


class TestSegmentBasisRounding:
    """The sliver cuts of level 3 at (1, 10), where criterion 6 is tightest."""

    def test_chord_residuals_match_exact_evaluation(self, level3_cuts):
        # The helper must report the residuals of the stored coefficients,
        # not add its own rounding: float64 products a * c alone round at
        # eps * max(A) * |c|, the size of the residual on these cuts.
        for cut in level3_cuts:
            spaces = construct_ife_basis(cut, 1.0, 10.0, 2, mode="segment")
            got = sample_chord_residuals(spaces, 0, n_samples=8)
            want = _exact_chord_residuals(spaces, 0, n_samples=8)
            for g, w in zip(got, want):
                assert abs(g - w) <= 4 * math.ulp(g), (cut.elements[0], got, want)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("a2", [1.0, 10.0, 100.0, 1000.0])
    def test_chord_residuals_are_bounded_by_the_coefficient_rounding(self, level3_cuts, k, a2):
        # The jump conditions hold to the rounding of the stored coefficients:
        # eps * max(A) * max|c| for the value jump, over h and h^2 for the flux
        # and Laplacian jumps. The worst ratio to that scale on these cuts,
        # over the four default pairs, is 3.3 (the flux jump, k = 2,
        # (1, 1000)); the value jump stays below 0.24 and the Laplacian jump
        # below 1.8.
        eps = np.finfo(float).eps
        for cut in level3_cuts:
            spaces = construct_ife_basis(cut, 1.0, a2, k, mode="segment")
            scale = eps * a2 * np.abs(spaces.coeffs[0]).max()
            val, flux, lap = sample_chord_residuals(spaces, 0, n_samples=8)
            h = spaces.geometry.h_ref[0]
            assert val <= 8 * scale, cut.elements[0]
            assert flux <= 8 * scale / h, cut.elements[0]
            assert lap <= 8 * scale / h**2, cut.elements[0]

    @pytest.mark.parametrize("k", [1, 2])
    def test_coeffs_are_structured_basis_times_mixing(self, level3_cuts, k):
        # coeffs = null @ R: the base side's block of the structured basis is
        # diagonal, so it gives R, and the other side must follow from it up
        # to the rounding of one product with at most two terms per entry.
        # Mixing each side's rows separately misses this by up to ~2700 eps.
        eps = np.finfo(float).eps
        for cut in level3_cuts:
            geometry = build_cut_geometry(cut, k)
            for a1, a2 in ((1.0, 10.0), (1.0, 1000.0)):
                coeffs = construct_ife_basis(cut, a1, a2, k, mode="segment", geometry=geometry).coeffs[0]
                m = geometry.m
                base_is_1 = polygon_area(side_polygon(cut, OMEGA1)) >= polygon_area(side_polygon(cut, OMEGA2))
                null = _segment_null_basis(np.array([base_is_1]), a1, a2, k)[0]
                r = coeffs[:m] if base_is_1 else coeffs[m:]
                err = np.abs(null @ r - coeffs)
                assert np.all(err <= 4 * eps * (np.abs(null) @ np.abs(r))), cut.elements[0]


@pytest.fixture(scope="module")
def level2_mesh():
    return build_mesh(2, CIRCLE)


class TestPerPointDataStaysInGeometry:
    @pytest.mark.parametrize("k", [1, 2])
    def test_gradient_gram_from_mass_equals_quadrature(self, level2_mesh, k):
        # (D_x^T M D_x + D_y^T M D_y) / h^2 against sum_q w grad(mono) grad(mono)^T.
        poly = PolyBasis(k)
        for cut in split(level2_mesh.cuts):
            geometry = build_cut_geometry(cut, k)
            x_ref, f_mat = geometry.x_ref[0], geometry.f_mat[0]
            for s, side in enumerate((OMEGA1, OMEGA2)):
                rule = geometry[cut.elements[0]].rules[side]
                loc = (rule.points - x_ref) @ f_mat.T
                g = poly.grad(loc) @ f_mat
                want = np.einsum("nid,n,njd->ij", g, rule.weights, g)
                got = geometry.grad_gram[0, s]
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (cut.elements[0], side)

    @pytest.mark.parametrize("k, mode", [(1, "segment"), (2, "arc")])
    def test_space_arrays_do_not_grow_with_depth(self, k, mode):
        # The rule has more points at depth 6 (its depth-2 fan rule, fitted)
        # than at depth 0; only the geometry's packed rule and monomial
        # values may carry them.
        import dataclasses

        def shapes(spaces):
            out = {}
            packed = {"points", "rule_points", "rule_weights", "rule_vander"}
            geometry = spaces.geometry
            for obj, skip in ((spaces, {"geometry"}), (geometry, packed | {"cuts"}), (geometry.cuts, {"depth"})):
                for f in dataclasses.fields(obj):
                    value = getattr(obj, f.name)
                    if f.name in skip:
                        continue
                    if isinstance(value, dict):  # mode -> tuple of row stacks
                        value = {key: [np.shape(a) for a in rows] for key, rows in value.items()}
                    out[type(obj).__name__, f.name] = value if isinstance(value, dict) else np.shape(value)
            return out

        def build(depth):
            return level_spaces(build_mesh(2, CIRCLE, depth=depth), k, 1.0, 1000.0, mode=mode)

        coarse, fine = build(0), build(6)
        assert shapes(fine) == shapes(coarse)
        n_points = lambda s, t: len(side_rules(s, s.geometry.row(t))[OMEGA1].weights)
        assert all(n_points(fine, t) > n_points(coarse, t) for t in fine)


class TestTracerReads:
    """What the benchmark's tracer reads by element id: a pair's three health
    figures and each side's rule, views of the geometry's packed rule."""

    @pytest.mark.parametrize("k, mode", [(1, "segment"), (2, "arc")])
    def test_mappings_read_the_stacks_by_row(self, level2_mesh, k, mode):
        spaces = level_spaces(level2_mesh, k, 1.0, 1000.0, mode=mode)
        geometry = spaces.geometry
        elements = geometry.elements.tolist()
        assert list(spaces) == elements
        for i, t in enumerate(elements):
            health = spaces[t]
            want = (spaces.gram_cond[i], spaces.constraint_residual[i], spaces.ill_conditioned[i])
            assert (health.gram_cond, health.constraint_residual, health.ill_conditioned) == want
            assert tuple(health) == want
            for s, side in enumerate((OMEGA1, OMEGA2)):
                rule = geometry[t].rules[side]
                lo, hi = geometry.rule_offsets[2 * i + s : 2 * i + s + 2]
                np.testing.assert_array_equal(rule.points, geometry.rule_points[lo:hi])
                np.testing.assert_array_equal(rule.weights, geometry.rule_weights[lo:hi])
        n_points = sum(len(r.weights) for g in geometry.values() for r in g.rules.values())
        assert n_points == len(geometry.rule_weights)
        uncut = sorted(set(range(len(level2_mesh.triangles) + 1)) - set(elements))
        for t in (uncut[0], uncut[-1]):  # before the first row, and past the last triangle
            for mapping in (spaces, geometry):
                with pytest.raises(KeyError):
                    mapping[t]


@pytest.fixture(scope="module")
def three_cuts(level2_mesh):
    return take(level2_mesh.cuts, [0, 1, 2])


def _doctored(geometry, **arrays):
    """A copy of ``geometry`` with some stacked arrays replaced."""
    import dataclasses

    return dataclasses.replace(geometry, **arrays)


class TestBatchFailuresNameTheElement:
    """A batched factorization fails for the whole stack; the error must still
    name the one element that is bad, here the middle one of three."""

    def test_rank_deficient(self, three_cuts):
        geometry = build_cut_geometry(three_cuts, 2)
        values, normals = (a.copy() for a in geometry.constraint_rows["arc"])
        values[1, 1] = values[1, 0]  # two equal value rows: one condition too few
        bad = _doctored(geometry, constraint_rows={"arc": (values, normals)})
        with pytest.raises(RankDeficient, match=f"null space dimension 7 != 6 on element {three_cuts.elements[1]}$"):
            build_local_spaces(bad, 1.0, 10.0, "arc")

    @pytest.mark.parametrize("k, mode", [(1, "segment"), (2, "arc")])
    def test_singular_gram(self, three_cuts, k, mode):
        geometry = build_cut_geometry(three_cuts, k)
        grad_gram = geometry.grad_gram.copy()
        grad_gram[1] = 0.0
        bad = _doctored(geometry, grad_gram=grad_gram)
        with pytest.raises(SingularGram, match=f"on element {three_cuts.elements[1]}$"):
            build_local_spaces(bad, 1.0, 10.0, mode)

    def test_non_finite_gram(self, three_cuts):
        # A contrast whose ratio overflows on the base side (side 2 on all
        # three) makes the segment basis non-finite; the failure is typed and
        # names the first element instead of leaving eigvalsh to raise.
        geometry = build_cut_geometry(three_cuts, 1)
        assert not geometry.base_is_1.any()
        with np.errstate(all="ignore"), pytest.raises(
            SingularGram, match=f"not finite on element {three_cuts.elements[0]}$"
        ):
            build_local_spaces(geometry, 1e-308, 1e308, "segment")
        mass = geometry.mass.copy()
        mass[1] = np.nan
        with pytest.raises(SingularGram, match=f"not finite on element {three_cuts.elements[1]}$"):
            build_local_spaces(_doctored(geometry, mass=mass), 1.0, 10.0, "segment")

    @pytest.mark.parametrize("k, mode", [(1, "segment"), (2, "arc")])
    def test_ill_conditioned_warning(self, three_cuts, k, mode):
        # Shrinking every non-constant monomial's scale in the mass matrices
        # keeps them SPD but multiplies the Gram condition by about 1e10.
        geometry = build_cut_geometry(three_cuts, k)
        scale = np.full(geometry.m, 1e-5)
        scale[0] = 1.0
        mass = geometry.mass.copy()
        mass[1] *= scale[:, None] * scale[None, :]
        with pytest.warns(IllConditionedWarning) as record:
            spaces = build_local_spaces(_doctored(geometry, mass=mass), 1.0, 10.0, mode)
        assert [str(w.message).endswith(f"on element {three_cuts.elements[1]}") for w in record] == [True]
        assert spaces.ill_conditioned.tolist() == [False, True, False]

    @pytest.mark.parametrize("k, mode", [(1, "segment"), (2, "arc")])
    def test_one_ill_conditioned_warning_per_call(self, three_cuts, k, mode):
        # Two elements above COND_MAX, the last one the worse: one warning
        # gives the count and names the worst element.
        geometry = build_cut_geometry(three_cuts, k)
        mass = geometry.mass.copy()
        for i, shrink in ((0, 1e-5), (2, 1e-6)):
            scale = np.full(geometry.m, shrink)
            scale[0] = 1.0
            mass[i] *= scale[:, None] * scale[None, :]
        with pytest.warns(IllConditionedWarning) as record:
            spaces = build_local_spaces(_doctored(geometry, mass=mass), 1.0, 10.0, mode)
        assert len(record) == 1
        message = str(record[0].message)
        assert " on 2 of 3 elements, " in message
        assert message.endswith(f"on element {three_cuts.elements[2]}")
        assert spaces.ill_conditioned.tolist() == [True, False, True]


class TestBatchOfOne:
    @pytest.mark.parametrize("k, mode", [(1, "segment"), (2, "segment"), (2, "arc")])
    def test_construct_matches_the_level_batch(self, level2_mesh, k, mode):
        # construct_ife_basis is a batch of one through the same code, with
        # the same edge orientation, so it must give the same numbers.
        mesh = level2_mesh
        spaces = level_spaces(mesh, k, 1.0, 1000.0, mode=mode)
        for t, cut in zip(mesh.cuts.elements, split(mesh.cuts)):
            one = construct_ife_basis(cut, 1.0, 1000.0, k, mode=mode)
            i = spaces.geometry.row(t)
            np.testing.assert_array_equal(one.coeffs[0], spaces.coeffs[i])
            np.testing.assert_array_equal(one.stiffness[0], spaces.stiffness[i])


def _exact_chord_residuals(spaces, i, n_samples):
    """Scalar evaluation of row i's chord jumps in exact rational arithmetic.

    Uses the stored float64 coefficients, frame and sample coordinates as
    exact numbers and rounds each maximum once.
    """
    geometry = spaces.geometry
    cut = space_cut(spaces, i)
    t = np.linspace(0.0, 1.0, n_samples)
    pts = cut.point_d[0] + np.outer(t, cut.point_e[0] - cut.point_d[0])
    loc = [[Fraction(x) for x in row] for row in local_coords(spaces, i, pts).tolist()]
    normal = [Fraction(x) for x in cut.normal[0].tolist()]
    n_loc = [sum(Fraction(f) * n for f, n in zip(row, normal)) for row in geometry.f_mat[i].tolist()]
    inv_h2 = 1 / Fraction(geometry.h_ref[i]) ** 2
    a1, a2 = Fraction(spaces.a1), Fraction(spaces.a2)
    m = geometry.m
    c = [[Fraction(x) for x in row] for row in spaces.coeffs[i].tolist()]
    worst = [Fraction(0)] * 3
    for xi, eta in loc:
        for q in range(m):
            jumps = [Fraction(0)] * 3
            for j, (a, b) in enumerate(PolyBasis(geometry.k).exponents.tolist()):
                diff = c[j][q] - c[m + j][q]
                weighted = a1 * c[j][q] - a2 * c[m + j][q]
                gx = a * xi ** (a - 1) * eta**b if a >= 1 else 0
                gy = b * xi**a * eta ** (b - 1) if b >= 1 else 0
                lx = a * (a - 1) * xi ** (a - 2) * eta**b if a >= 2 else 0
                ly = b * (b - 1) * xi**a * eta ** (b - 2) if b >= 2 else 0
                jumps[0] += xi**a * eta**b * diff
                jumps[1] += (gx * n_loc[0] + gy * n_loc[1]) * weighted
                jumps[2] += (lx + ly) * inv_h2 * weighted
            worst = [max(w, abs(x)) for w, x in zip(worst, jumps)]
    return [float(w) for w in worst]


def _pair_mass_matrix(spaces, i):
    m = spaces.geometry.m
    out = np.zeros((2 * m, 2 * m))
    for side, sl in ((OMEGA1, slice(0, m)), (OMEGA2, slice(m, 2 * m))):
        rule = side_rules(spaces, i)[side]
        loc = local_coords(spaces, i, rule.points)
        v = PolyBasis(spaces.geometry.k).eval(loc)
        out[sl, sl] = v.T @ (rule.weights[:, None] * v)
    return out


def edge_legendre(p0, p1, k):
    """Orthonormal Legendre basis of P_{k-1} on the segment p0 -> p1, as a
    callable on points of the segment (arc-length measure)."""
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    d = p1 - p0

    def values(pts):
        t = ((np.atleast_2d(np.asarray(pts, float)) - p0) @ d) / (d @ d)
        return _legendre_values(2.0 * t - 1.0, np.linalg.norm(d), k)

    return values


def basis_values(spaces, i, pts, side):
    """Row i's basis values at physical points lying on one side, (n, m)."""
    return PolyBasis(spaces.geometry.k).eval(local_coords(spaces, i, pts)) @ block(spaces, i, side)


def _projection_error(spaces, u):
    # Mean-square (area-normalized) error, so the expected halving ratio is
    # 2^(k+1); the plain L2 norm on a shrinking element gains an extra factor
    # 2 from the measure.
    geometry = spaces.geometry
    exact = sample(u, geometry.rule_points)
    diff = spaces.interior_values(spaces.project_interior(exact)) - exact
    return math.sqrt(geometry.rule_weights @ diff**2 / geometry.rule_weights.sum())


class TestProjections:
    def test_q0_idempotent_on_basis(self):
        cut = compute_cut(TRI, CIRCLE)
        spaces = construct_ife_basis(cut, 1.0, 10.0, 2)
        m = spaces.geometry.m
        for i in range(m):
            def phi_i(x, y, i=i):
                pts = np.column_stack([np.atleast_1d(x), np.atleast_1d(y)])
                phi = CIRCLE.value(pts[:, 0], pts[:, 1])
                out = np.where(
                    phi < 0.0,
                    basis_values(spaces, 0, pts, OMEGA1)[:, i],
                    basis_values(spaces, 0, pts, OMEGA2)[:, i],
                )
                return out
            q = spaces.project_interior(sample(phi_i, spaces.geometry.rule_points))[0]
            expect = np.zeros(m)
            expect[i] = 1.0
            np.testing.assert_allclose(q, expect, atol=1e-11)

    def test_qb_reproduces_constant(self):
        coeffs = project_qb(lambda x, y: 3.5, (0.2, 0.1), (0.5, 0.4), k=2)
        leg = edge_legendre((0.2, 0.1), (0.5, 0.4), 2)
        pts = np.array([(0.2, 0.1), (0.35, 0.25), (0.5, 0.4)])
        np.testing.assert_allclose(leg(pts) @ coeffs, 3.5, atol=1e-13)

    def test_edge_legendre_orthonormal(self):
        p0, p1 = (0.1, -0.3), (0.9, 0.2)
        rule = quadrature_on_edge(p0, p1, 6)
        leg = edge_legendre(p0, p1, 2)(rule.points)
        mass = leg.T @ (rule.weights[:, None] * leg)
        np.testing.assert_allclose(mass, np.eye(2), atol=1e-13)


class TestWeakGradient:
    def setup_method(self):
        self.cut = compute_cut(TRI, CIRCLE)

    @pytest.mark.parametrize("k", [1, 2])
    def test_matching_traces_give_plain_gradient(self, k):
        spaces = construct_ife_basis(self.cut, 1.0, 10.0, k)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v0 = rng.standard_normal(spaces.geometry.m)
            loc = np.concatenate([v0, (spaces.trace[0] @ v0).ravel()])
            c = spaces.weak_grad[0] @ loc
            np.testing.assert_allclose(c, v0[1:], atol=1e-12)

    def test_constant_with_matching_trace_is_zero(self):
        spaces = construct_ife_basis(self.cut, 1.0, 10.0, 1)
        v0 = np.zeros(spaces.geometry.m)
        v0[0] = 2.0
        loc = np.concatenate([v0, (spaces.trace[0] @ v0).ravel()])
        assert np.max(np.abs(spaces.weak_grad[0] @ loc)) < 1e-13
        assert np.max(np.abs(spaces.stiffness[0] @ loc)) < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_against_dense_least_squares_oracle(self, k):
        spaces = construct_ife_basis(self.cut, 1.0, 10.0, k)
        rng = np.random.default_rng(11)
        for _ in range(10):
            loc = rng.standard_normal(len(spaces.stiffness[0]))
            got = spaces.weak_grad[0] @ loc
            want = _weak_gradient_oracle(spaces, 0, loc, canonical_edges(self.cut.triangles[0]))
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    def test_single_edge_trace_excitation(self):
        # v0 = 0, vb = indicator coefficient on one edge: the defining
        # equation reduces to (grad_w v, q)_T = +<vb, q . n>_e.
        spaces = construct_ife_basis(self.cut, 1.0, 10.0, 1)
        for edge in range(3):
            loc = np.zeros(len(spaces.stiffness[0]))
            loc[spaces.geometry.m + edge] = 1.0
            got = spaces.weak_grad[0] @ loc
            want = _weak_gradient_oracle(spaces, 0, loc, canonical_edges(self.cut.triangles[0]))
            np.testing.assert_allclose(got, want, atol=1e-10)


def basis_grad(spaces, i, pts, side):
    """Physical gradients of row i's basis on one side, (n, m, 2)."""
    g = PolyBasis(spaces.geometry.k).grad(local_coords(spaces, i, pts)) @ spaces.geometry.f_mat[i]
    return np.einsum("njd,jq->nqd", g, block(spaces, i, side))


def _weak_gradient_oracle(spaces, i, loc, edge_ends):
    """Dense, from-scratch evaluation of the weak-gradient definition.

    Recomputes every integral with fresh higher-degree quadrature on the same
    sub-regions, applies Q_b from its defining Gram system, and solves by
    least squares instead of the factorized path under test. ``edge_ends``
    (3, 2, 2) orients each local edge of row i as its trace basis does.
    """
    k = spaces.geometry.k
    m = spaces.geometry.m
    v0 = loc[:m]
    gram = np.zeros((m - 1, m - 1))
    rhs = np.zeros(m - 1)
    cut = space_cut(spaces, i)
    for side in (OMEGA1, OMEGA2):
        rule = quadrature_on_subregion(cut, side, 2 * k + 6)
        g = basis_grad(spaces, i, rule.points, side)
        gq = g[:, 1:, :]
        gram += np.einsum("nqd,n,npd->qp", gq, rule.weights, gq)
        grad_v0 = np.einsum("njd,j->nd", g, v0)
        rhs += np.einsum("nd,n,nqd->q", grad_v0, rule.weights, gq)
    tri = cut.triangles[0]
    for e in range(3):
        start, end = edge_ends[e]
        edge = tri[(e + 1) % 3] - tri[e]
        outward = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)
        rule = quadrature_on_edge(start, end, 2 * k + 6, cut.interface)
        # Q_b of the trace of v0, computed from its definition on this edge.
        leg = edge_legendre(start, end, k)(rule.points)
        phi = cut.interface.value(rule.points[:, 0], rule.points[:, 1])
        sides = np.where(phi < 0.0, OMEGA1, OMEGA2)
        v0_vals = np.empty(len(rule.points))
        gq_n = np.empty((len(rule.points), m - 1))
        for s in (OMEGA1, OMEGA2):
            mask = sides == s
            if not np.any(mask):
                continue
            v0_vals[mask] = basis_values(spaces, i, rule.points[mask], s) @ v0
            gq_n[mask] = basis_grad(spaces, i, rule.points[mask], s)[:, 1:, :] @ outward
        mass = leg.T @ (rule.weights[:, None] * leg)
        moments = leg.T @ (rule.weights * v0_vals)
        qb_v0 = np.linalg.solve(mass, moments)
        jump_vals = leg @ (qb_v0 - loc[m + e * k : m + (e + 1) * k])
        rhs -= gq_n.T @ (rule.weights * jump_vals)
    return np.linalg.lstsq(gram, rhs, rcond=None)[0]


class TestLoadVector:
    def test_constant_source_pairs_with_constant_mode(self):
        cut = compute_cut(TRI, CIRCLE)
        spaces = construct_ife_basis(cut, 1.0, 10.0, 1)
        (l,) = spaces.moments(spaces.geometry.monomial_moments(np.ones(len(spaces.geometry.rule_weights))))
        # (1, phi_0) = |T|^(1/2) for the normalized constant; others vanish.
        area = measure(side_rules(spaces, 0)[OMEGA1]) + measure(side_rules(spaces, 0)[OMEGA2])
        assert l[0] == pytest.approx(math.sqrt(area), rel=1e-12)
        assert np.max(np.abs(l[1:])) < 1e-12
