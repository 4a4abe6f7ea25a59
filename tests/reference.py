"""Independent references the tests check the solver against.

Nothing in ``src/iwgfem`` calls these. They are the straightforward forms of
what the solver computes in batches or in place: the scalar circle-segment
root solver, one element's chord split, one triangle's class, one element's
cut table and one side's polygon and packed rule, the contour moments of cut
sides through a table of antiderivative values, the loop-built mesh, Gauss rules on segments and triangles,
one polygon's fan triangulation and rule, plain sums over quadrature rules,
one element's CG stiffness, the edge sets of the interface elements, the
non-interface errors summed with ``einsum`` on freshly mapped points, the
linear patch solution, example 1's jumps sampled on the interface, each
side's u sampled on its packed cut-cell points, the interpolation errors of
the two local families,
preconditioned CG with allocating updates, one element's local space (a batch of
one) and one level solved the way the CLI solves a pair. A few accessors of one
element's data, and the split of a cut table into one-row tables, close the file.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from iwgfem.analysis import ManufacturedSolution, _noninterface_errors, compute_errors
from iwgfem.assembly import (
    LevelPlan,
    _cg_shape_grads,
    _cg_shape_values,
    _element_jacobians,
    _orientation_classes,
    assemble_system,
    build_level_plan,
    coarse_basis,
    element_node_table,
)
from iwgfem.geometry import (
    GEOM_TOL,
    INTERFACE,
    OMEGA1,
    OMEGA2,
    CircleInterface,
    CutTable,
    DegenerateTriangle,
    GeometryError,
    MultipleCrossings,
    QuadratureRule,
    _element_classes,
    _fan_tests,
    _fans,
    _gauss_legendre,
    _mapped_rule,
    _polygon_batches,
    _positive_fans,
    _tiles,
    _triangle_rule_reference,
    _two_fans,
    canonical_edges,
    cut_table,
    pack_subregion_rules,
    polygon_area,
    segment_crossings,
)
from iwgfem.ife import CutGeometry, IfeSpaces, build_cut_geometry, build_local_spaces
from iwgfem.mesh import (
    EDGE_BOUNDARY,
    EDGE_COUPLING,
    EDGE_INTERIOR_NON_WG,
    EDGE_WG_INTERIOR,
    MeshPartition,
    build_mesh,
)
from iwgfem.solver import solve


def measure(rule: QuadratureRule) -> float:
    """The sum of the weights: the area or length the rule covers."""
    return float(rule.weights.sum())


def integrate(rule: QuadratureRule, f) -> float:
    """The rule applied to a scalar function f(x, y)."""
    vals = f(rule.points[:, 0], rule.points[:, 1])
    return float(rule.weights @ np.asarray(vals, float))


def concatenate(rules: list[QuadratureRule]) -> QuadratureRule:
    """One rule over the union of the rules' disjoint regions."""
    return QuadratureRule(np.concatenate([r.points for r in rules]), np.concatenate([r.weights for r in rules]))


def chord_length(cut: CutTable) -> float:
    """The chord length of a one-row table."""
    return float(np.linalg.norm(cut.point_e[0] - cut.point_d[0]))


@dataclasses.dataclass(frozen=True, eq=False)
class ReferenceCut:
    """One element's chord split, as ``element_cut`` builds it.

    ``poly1`` / ``poly2`` are the counterclockwise sides on Omega1 / Omega2,
    each starting and ending with the chord ends, so the closing edge is the
    chord; ``crossings`` holds the parameter of each local edge's crossing
    from its smaller (y, x) end, NaN if uncrossed.
    """

    element_id: int
    triangle: np.ndarray  # (3, 2), counterclockwise
    interface: CircleInterface
    point_d: np.ndarray
    point_e: np.ndarray
    normal: np.ndarray  # unit normal of the chord, from side 1 to side 2
    poly1: np.ndarray
    poly2: np.ndarray
    crossings: np.ndarray  # (3,)
    depth: int


def element_cut(tri, interface: CircleInterface, element_id: int = -1, depth: int = 6) -> ReferenceCut:
    """The chord split of one interface element, walked along its boundary.

    The per-element form of ``geometry.cut_table``. Requires the interface
    to cross exactly two edges, once each; anything else raises
    MultipleCrossings (mesh too coarse for the curvature).
    """
    tri = np.asarray(tri, float)
    if polygon_area(tri) < 0.0:
        tri = tri[::-1]
    crossings = segment_crossings(canonical_edges(tri), interface)
    count = np.count_nonzero(~np.isnan(crossings), axis=1).tolist()
    if max(count) > 1:
        raise MultipleCrossings(
            f"interface crosses edge {count.index(max(count))} of element {element_id} twice; refine the mesh"
        )
    if sum(count) != 2:
        raise MultipleCrossings(f"interface cuts {sum(count)} edges of element {element_id}; expected 2")
    i, j = (e for e in range(3) if count[e])
    ends = canonical_edges(tri)[[i, j]]
    pd, pe = ends[:, 0] + crossings[[i, j], :1] * (ends[:, 1] - ends[:, 0])
    chord = pe - pd
    clen = math.sqrt(chord[0] * chord[0] + chord[1] * chord[1])
    if clen <= GEOM_TOL:
        raise MultipleCrossings(f"degenerate chord on element {element_id}")
    # Normal of the chord oriented from Omega1 into Omega2, along grad(phi) at
    # the chord midpoint.
    n = np.array([chord[1], -chord[0]]) / clen
    gx, gy = 0.5 * (pd + pe) - interface.center
    if n[0] * gx + n[1] * gy < 0.0:
        n = -n

    # The boundary walk from D: the vertices after edge i up to edge j, then
    # E, the vertices after edge j round to edge i, and back to D. Each chain
    # lies on the side of its triangle vertices.
    walks = [*range(i + 1, j + 1)], [*range(j + 1, 3), *range(i + 1)]
    chains = np.vstack([pd, tri[walks[0]], pe]), np.vstack([pe, tri[walks[1]], pd])
    phi = interface.value(tri[:, 0], tri[:, 1])
    inside = [phi[w].max() < 0.0 for w in walks]
    if inside[0] == inside[1]:
        raise MultipleCrossings(f"could not separate the two sides of element {element_id}")
    poly1, poly2 = chains if inside[0] else chains[::-1]
    return ReferenceCut(element_id, tri, interface, pd, pe, n, poly1, poly2, crossings[:, 0], depth)


def classify_element(tri, interface: CircleInterface | None, element_id: int = -1) -> int:
    """Classify one triangle as INTERFACE, OMEGA1 or OMEGA2 (see ``_element_classes``)."""
    tri = np.asarray(tri, float)
    e = np.roll(tri, -1, axis=0) - tri
    if abs(polygon_area(tri)) < GEOM_TOL * float(np.max(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1])):
        raise DegenerateTriangle(f"area of element {element_id} below {GEOM_TOL} * h^2")
    if interface is None:
        return OMEGA2
    phi = interface.value(tri[:, 0], tri[:, 1])
    crossings = segment_crossings(canonical_edges(tri), interface)
    return int(_element_classes(phi[None], crossings[None], [element_id])[0])


def compute_cut(tri, interface: CircleInterface, element_id: int = -1, depth: int = 6) -> CutTable:
    """The chord split of one interface element, a table of one row (see ``cut_table``)."""
    tri = np.asarray(tri, float)
    if polygon_area(tri) < 0.0:
        tri = tri[::-1]
    crossings = segment_crossings(canonical_edges(tri), interface)
    return cut_table(interface, [element_id], tri[None], crossings[None], depth)


def _segment(cut: CutTable, side: int) -> np.ndarray:
    """The one segment of ``side`` in the one-row table ``cut``."""
    if len(cut) != 1:
        raise ValueError(f"expected a table of one cut, got {len(cut)}")
    return np.array([(OMEGA1, OMEGA2).index(side)])


def subregion_polygon(cut: CutTable, side: int, depth: int) -> np.ndarray:
    """Vertex list of the side polygon of a one-row table, the chord replaced by the arc polyline."""
    return next(_polygon_batches(cut, _segment(cut, side), depth))[1][0]


def quadrature_on_subregion(cut: CutTable, side: int, degree: int, depth: int | None = None) -> QuadratureRule:
    """Positive rule exact to `degree` on one sub-region of a one-row table.

    With depth = 0 the region is the chord-split polygon; with depth > 0 the
    chord is replaced by the recursively bisected arc polyline, so the curved
    sliver is shared consistently between the two sides. It is the packed
    rule of one side (``pack_subregion_rules``).
    """
    if side not in (OMEGA1, OMEGA2):
        raise ValueError(f"side must be {OMEGA1} or {OMEGA2}")
    depth = cut.depth if depth is None else depth
    _, points, weights = pack_subregion_rules(cut, _segment(cut, side), depth, degree)
    return QuadratureRule(points, weights)


def tabulated_subregion_moments(cuts: CutTable, segments, depth: int, origin, axes, degree: int) -> np.ndarray:
    """The form of ``geometry.subregion_moments`` that tabulates F_a at every contour point.

    Same frames, contour points and Gauss rule; numpy's ``legvander`` gives
    the Legendre values, and the antiderivatives F_0 = P_1 and F_a =
    (P_a+1 - P_a-1) / (2a + 1) are formed point by point and then
    contracted with the weighted P_b of xi_2.
    """
    x_gauss, w_gauss = _gauss_legendre((degree + 3) // 2)
    t, w_t = 0.5 * (x_gauss + 1.0), 0.5 * w_gauss
    det = axes[:, 0, 0] * axes[:, 1, 1] - axes[:, 0, 1] * axes[:, 1, 0]
    out = np.empty((len(segments), degree + 1, degree + 1))
    for ps, verts in _polygon_batches(cuts, np.asarray(segments), depth):
        xi = (verts - origin[ps, None, :]) @ axes[ps].swapaxes(-1, -2)  # (g, v, 2)
        step = np.roll(xi, -1, axis=1) - xi
        q = (xi[:, :, None, :] + t[:, None] * step[:, :, None, :]).reshape(len(ps), -1, 2)
        p1 = np.polynomial.legendre.legvander(q[..., 0], degree + 1)
        odd = np.arange(3.0, 2 * degree + 2, 2)
        anti = np.concatenate([p1[..., 1:2], (p1[..., 2:] - p1[..., :-2]) / odd], axis=-1)
        p2 = np.polynomial.legendre.legvander(q[..., 1], degree)
        p2 *= (step[:, :, None, 1] * w_t).reshape(len(ps), -1, 1)
        out[ps] = anti.swapaxes(-1, -2) @ p2
    return out / det[:, None, None]


def triangle_rule(tri, degree: int) -> QuadratureRule:
    """Quadrature rule exact to `degree` on a physical triangle."""
    tri = np.asarray(tri, float)
    ref_pts, ref_w = _triangle_rule_reference(degree)
    j = np.array([tri[1] - tri[0], tri[2] - tri[0]])  # rows are edge vectors
    det = abs(j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0])
    pts = ref_pts @ j + tri[0]
    return QuadratureRule(pts, ref_w * det)


def triangulate_polygon(vertices) -> np.ndarray:
    """Fan triangulation of one polygon (n, 2): (n - 2, 3) vertex indices.

    The per-polygon form of ``geometry._fan_triangles``: the first vertex
    whose triangles all have positive area, else the one whose worst
    triangle is least negative if that is within the tolerance, else two
    fans; the pieces must tile the polygon.
    """
    v = np.asarray(vertices, float)
    n = len(v)
    if n < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    local, cross, area = _fan_tests(v)
    tol = -1e-12 * 2.0 * area
    positive = _positive_fans(cross)
    worst = cross.min(axis=1)
    c = int(np.argmax(positive)) if positive.any() else int(np.argmax(worst))
    tris = _fans(c, n) if worst[c] >= tol else _two_fans(cross >= tol)
    if tris is None:
        raise GeometryError("sub-polygon not covered by one or two vertex fans; refine the mesh")
    ax, ay = local[tris[:, 0], 0], local[tris[:, 0], 1]
    bx, by = local[tris[:, 1], 0], local[tris[:, 1], 1]
    cx, cy = local[tris[:, 2], 0], local[tris[:, 2], 1]
    total = float(np.sum(np.abs(0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)))))
    if not _tiles(total, area):
        raise GeometryError("triangulation does not tile the polygon")
    return tris


def polygon_rule(vertices, degree: int) -> QuadratureRule:
    """Rule exact to `degree` on one polygon, mapped over ``triangulate_polygon``'s fans."""
    v = np.asarray(vertices, float)
    pts, w = _mapped_rule(v[None], triangulate_polygon(v)[None], *_triangle_rule_reference(degree))
    return QuadratureRule(pts[0], w[0])


def edge_roots(p, q, interface: CircleInterface) -> list[float]:
    """Parameters t in (0, 1) where phi vanishes on the open segment p -> q, one at a time.

    The scalar form of ``segment_crossings``, solving the segment in the
    orientation given: roots of the restriction (a quadratic in t) are found
    analytically and polished by bisection; a near-coincident root pair is a
    tangential touch and dropped, and so are roots within GEOM_TOL of an
    endpoint (1e-6 of an endpoint on the circle). Dot products are written out.
    """
    (px, py), (qx, qy) = (float(v) for v in p), (float(v) for v in q)
    dx, dy = qx - px, qy - py
    cx, cy = px - interface.center[0], py - interface.center[1]
    a = dx * dx + dy * dy
    b = 2.0 * (cx * dx + cy * dy)
    c = (cx * cx + cy * cy) - interface.radius_squared
    if a == 0.0:
        return []
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    sq = math.sqrt(disc)
    qq = -0.5 * (b + math.copysign(sq, b))
    roots = sorted({qq / a, c / qq if qq != 0.0 else math.inf})
    if len(roots) == 2 and abs(roots[1] - roots[0]) < 1e-6:
        return []
    t_snap = GEOM_TOL / math.sqrt(a)
    lo = 1e-6 if abs(c) <= GEOM_TOL else t_snap
    hi = 1e-6 if abs(a + b + c) <= GEOM_TOL else t_snap

    def phi_t(t: float) -> float:
        return (a * t + b) * t + c

    return [_bisect_polish(phi_t, t, t_snap) for t in roots if lo < t < 1.0 - hi]


def _bisect_polish(f, t: float, halfwidth: float, iters: int = 60) -> float:
    """Polish a root of f by bisection on a small bracket around t."""
    lo, hi = t - halfwidth, t + halfwidth
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return t
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def quadrature_on_edge(p0, p1, degree: int, interface: CircleInterface | None = None) -> QuadratureRule:
    """Gauss rule on a segment, exact to `degree` for piecewise polynomials.

    If the interface crosses the open segment, the rule is the union of
    Gauss rules on each sub-segment so integrands that are polynomial on each
    side are integrated exactly. Weights carry arc length.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        raise GeometryError("zero-length edge")
    breaks = [0.0] + (edge_roots(p0, p1, interface) if interface is not None else []) + [1.0]
    n = max(1, (degree + 2) // 2)
    x, w = _gauss_legendre(n)
    pieces = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        t = 0.5 * (a + b) + 0.5 * (b - a) * x
        pts = p0 + np.outer(t, p1 - p0)
        pieces.append(QuadratureRule(pts, 0.5 * (b - a) * length * w))
    return concatenate(pieces)


def build_mesh_loops(
    level: int,
    interface: CircleInterface | None,
    depth: int = 6,
    n_override: int | None = None,
) -> MeshPartition:
    """``iwgfem.mesh.build_mesh`` built one triangle, edge and element at a time."""
    if level < 1:
        raise ValueError("level must be >= 1")
    n = n_override if n_override is not None else 2 ** (level + 1)
    step = 2.0 / n

    xs = -1.0 + step * np.arange(n + 1)
    vx, vy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([vx.ravel(), vy.ravel()])  # row-major: iy*(n+1)+ix

    tris = []
    for iy in range(n):
        for ix in range(n):
            v00 = iy * (n + 1) + ix
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            tris.append((v00, v10, v11))  # below the positive-slope diagonal
            tris.append((v00, v11, v01))  # above it
    triangles = np.array(tris, dtype=np.int64)

    edge_ids: dict[tuple[int, int], int] = {}
    pairs = []
    for tri in triangles:
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            key = (a, b) if a < b else (b, a)
            if key not in edge_ids:
                edge_ids[key] = 0
                pairs.append(key)
    pairs.sort()
    edge_ids = {key: i for i, key in enumerate(pairs)}
    edges = np.array(pairs, dtype=np.int64)

    ne = len(edges)
    edge_tris = np.full((ne, 2), -1, dtype=np.int64)
    tri_edges = np.zeros((len(triangles), 3), dtype=np.int64)
    for t, tri in enumerate(triangles):
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            key = (a, b) if a < b else (b, a)
            e = edge_ids[key]
            tri_edges[t, i] = e
            if edge_tris[e, 0] < 0:
                edge_tris[e, 0] = t
            else:
                edge_tris[e, 1] = t

    element_class = np.empty(len(triangles), dtype=np.int64)
    cuts: dict[int, ReferenceCut] = {}  # the reference's cuts, by element id
    candidates = _interface_candidates(vertices, triangles, interface)
    for t in range(len(triangles)):
        if not candidates[t]:
            # Far from the interface: classify by any vertex sign.
            phi0 = interface.value(*vertices[triangles[t, 0]]) if interface else 1.0
            element_class[t] = OMEGA1 if phi0 < 0.0 else OMEGA2
            continue
        cls = classify_element(vertices[triangles[t]], interface, t)
        element_class[t] = cls
        if cls == INTERFACE:
            cuts[t] = element_cut(vertices[triangles[t]], interface, t, depth)

    edge_class = np.empty(ne, dtype=np.int64)
    for e in range(ne):
        t0, t1 = edge_tris[e]
        if t1 < 0:
            edge_class[e] = EDGE_WG_INTERIOR if element_class[t0] == INTERFACE else EDGE_BOUNDARY
        else:
            i0 = element_class[t0] == INTERFACE
            i1 = element_class[t1] == INTERFACE
            if i0 and i1:
                edge_class[e] = EDGE_WG_INTERIOR
            elif i0 or i1:
                edge_class[e] = EDGE_COUPLING
            else:
                edge_class[e] = EDGE_INTERIOR_NON_WG

    return MeshPartition(
        level=level,
        n_cells=n,
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        tri_edges=tri_edges,
        element_class=element_class,
        edge_class=edge_class,
        h=step * math.sqrt(2.0),
        cuts=cuts,
        interface=interface,
    )


def _interface_candidates(vertices, triangles, interface):
    """Triangles whose vertex signs are not all safely equal."""
    nt = len(triangles)
    if interface is None:
        return np.zeros(nt, dtype=bool)
    phi = interface.value(vertices[:, 0], vertices[:, 1])
    tphi = phi[triangles]  # (nt, 3)
    # An edge-interior crossing without a vertex sign change requires the
    # vertices to be within one edge length of the circle, so widen the band.
    edge_len = np.max(
        np.linalg.norm(vertices[np.roll(triangles, -1, axis=1)] - vertices[triangles], axis=2),
        axis=1,
    )
    r = interface.radius
    dist = np.abs(np.sqrt(np.maximum(tphi + interface.radius_squared, 0.0)) - r)
    return ~np.all(dist > edge_len[:, None] + GEOM_TOL, axis=1)


def example1_sides(a1: float, a2: float):
    """Example 1's (u_side, grad_side) written out per side in one expression each, without the profiles."""
    half = 0.5 * (1.0 / a1 - 1.0 / a2)

    def u_side(x, y, side):
        r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        if side == OMEGA1:
            return np.cos(np.pi * r2) / a1
        return np.cos(np.pi * r2) / a2 + half

    def grad_side(x, y, side):
        a = a1 if side == OMEGA1 else a2
        r2 = x**2 + y**2
        fac = -2.0 * np.pi * np.sin(np.pi * r2) / a
        return np.stack([fac * x, fac * y], axis=-1)

    return u_side, grad_side


def linear_solution(c0: float, c1: float, c2: float, a: float = 1.0) -> ManufacturedSolution:
    """Patch-test solution u = c0 + c1 x + c2 y with matching coefficients and f = 0; its steps keep the profiles."""

    def u_profile(x, y):
        return c0 + c1 * x + c2 * y

    def grad_profile(x, y):
        return np.stack([np.full(np.shape(x), c1, float), np.full(np.shape(x), c2, float)], axis=-1)

    def f(x, y):
        return np.zeros_like(np.asarray(x, float))

    keep_u, keep_grad = (lambda u, side: u), (lambda grad, x, y, side: grad)
    return ManufacturedSolution(a, a, u_profile, grad_profile, keep_u, keep_grad, f, CircleInterface(), "linear patch")


def check_interface_conditions(ms: ManufacturedSolution, n_samples: int = 256) -> tuple[float, float]:
    """Max jump of value and weighted normal flux sampled along the interface."""
    theta = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    r = ms.interface.radius
    cx, cy = ms.interface.center
    x = cx + r * np.cos(theta)
    y = cy + r * np.sin(theta)
    n = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    val = np.max(np.abs(ms.u_side(x, y, OMEGA1) - ms.u_side(x, y, OMEGA2)))
    flux1 = np.einsum("nd,nd->n", ms.grad_side(x, y, OMEGA1), n) * ms.a1
    flux2 = np.einsum("nd,nd->n", ms.grad_side(x, y, OMEGA2), n) * ms.a2
    return float(val), float(np.max(np.abs(flux1 - flux2)))



def sample_sides(geometry: CutGeometry, u_side) -> np.ndarray:
    """(P,): u_side(x, y, side) at the packed points, each segment on its own side.

    A point of a side's rule may lie across the circle (in the lens
    between the arc and its polyline); it still samples its side.
    """
    on_1 = np.repeat(np.tile([True, False], len(geometry)), np.diff(geometry.rule_offsets))
    out = np.empty(len(geometry.rule_weights))
    for side, mask in ((OMEGA1, on_1), (OMEGA2, ~on_1)):
        pts = geometry.rule_points[mask]
        out[mask] = u_side(pts[:, 0], pts[:, 1], side)
    return out


def interpolation_errors(plan: LevelPlan, spaces: IfeSpaces, ms: ManufacturedSolution) -> dict:
    """Projection-only diagnostic: CG interpolation H1 error and Q_0 L2 error.

    Verifies the approximation power of the two local families independently
    of the solver; expected orders are k and k+1.
    """
    dofmap = plan.dofmap
    coords = dofmap.node_coords
    x_nodal = np.asarray(ms.u(coords[:, 0], coords[:, 1]), float)
    # Reuse the error machinery with nodal interpolation coefficients laid
    # out over all columns.
    x_cols = np.zeros(dofmap.n_total)
    valid = dofmap.node_col >= 0
    x_cols[dofmap.node_col[valid]] = x_nodal[valid]
    ((e_grad_sq, _, _),) = _noninterface_errors(plan, [(x_cols, ms)])

    ue = sample_sides(spaces.geometry, ms.u_side)
    diff = spaces.interior_values(spaces.project_interior(ue))
    diff -= ue
    q0_sq = float(spaces.geometry.rule_weights @ diff**2)
    return {"cg_h1": math.sqrt(e_grad_sq), "q0_l2": math.sqrt(q0_sq)}


def noninterface_errors(mesh, dofmap, x_all, ms, k, degree):
    """Energy and L2 squares and the max error on the non-interface elements.

    Every element's rule points, Jacobian and physical gradients are built
    for the call, u and grad u are sampled on raveled points, and the sums
    are four-operand ``einsum`` reductions.
    """
    ids = np.flatnonzero(mesh.element_class != INTERFACE)
    if len(ids) == 0:
        return 0.0, 0.0, 0.0
    ref, w = _triangle_rule_reference(degree)
    shapes = _cg_shape_values(k, ref)
    grads_ref = _cg_shape_grads(k, ref)

    coefs = x_all[dofmap.node_col[element_node_table(mesh, k)[ids]]]  # (ne, nl)
    v0, j_mats = _element_jacobians(mesh, ids)
    dets = np.abs(j_mats[:, 0, 0] * j_mats[:, 1, 1] - j_mats[:, 0, 1] * j_mats[:, 1, 0])
    pts = v0[:, None, :] + ref[None, :, :] @ j_mats

    uh = coefs @ shapes.T  # (ne, nq)
    energy_sq = 0.0
    l2_sq = 0.0
    linf = 0.0
    grad_uh = np.empty((len(ids), len(ref), 2))
    for sel in _orientation_classes(j_mats):
        jinv_t = np.linalg.inv(j_mats[sel[0]]).T  # rows of j_mats are edge vectors
        g_phys = grads_ref @ jinv_t  # (nq, nl, 2)
        grad_uh[sel] = np.einsum("el,qld->eqd", coefs[sel], g_phys)

    for side in (OMEGA1, OMEGA2):
        sel = np.flatnonzero(mesh.element_class[ids] == side)
        if len(sel) == 0:
            continue
        x = pts[sel, :, 0].ravel()
        y = pts[sel, :, 1].ravel()
        ue = np.asarray(ms.u_side(x, y, side), float).reshape(len(sel), -1)
        ge = np.asarray(ms.grad_side(x, y, side), float).reshape(len(sel), -1, 2)
        diff = uh[sel] - ue
        gdiff = grad_uh[sel] - ge
        l2_sq += float(np.einsum("eq,q,e->", diff**2, w, dets[sel]))
        energy_sq += float(np.einsum("eqd,eqd,q,e->", gdiff, gdiff, w, dets[sel]))
        linf = max(linf, float(np.max(np.abs(diff))))
    return energy_sq, l2_sq, linf


def allocating_cg(matrix, b: np.ndarray, precondition=None, tol: float = 1e-12, max_iter: int = 20000):
    """Preconditioned CG with a fresh vector per update: (x, iterations).

    ``precondition`` maps r to M^-1 r; without it M is Jacobi's diagonal.
    The matrix is applied in CSC and the reductions are numpy sums
    (``einsum``), not BLAS, as in the solver.
    """
    def dot(u, v):
        return float(np.einsum("i,i->", u, v))

    a = sp.csc_matrix(matrix)
    if precondition is None:
        inv_diag = 1.0 / a.diagonal()

        def precondition(r):
            return inv_diag * r

    x = np.zeros(len(b))
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = dot(r, z)
    bnorm = math.sqrt(dot(b, b))
    for it in range(1, max_iter + 1):
        ap = a @ p
        alpha = rz / dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        if math.sqrt(dot(r, r)) <= tol * bnorm:
            return x, it
        z = precondition(r)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError(f"reference CG did not reach {tol} in {max_iter} iterations")


def construct_ife_basis(
    cut: CutTable, a1: float, a2: float, k: int, mode: str = "segment", geometry: CutGeometry | None = None
):
    """The local space of the element of a one-row table: a batch of one.

    A ``geometry`` built for this table may be passed to share it across
    conductivity pairs.
    """
    if len(cut) != 1:
        raise ValueError(f"expected a table of one cut, got {len(cut)}")
    if geometry is None:
        geometry = build_cut_geometry(cut, k)
    return build_local_spaces(geometry, a1, a2, mode)[cut.elements[0]]


def run_level(ms, k: int, level: int, mode: str, method: str = "cholesky", n_override: int | None = None):
    """One level of ``ms`` solved as the CLI solves a pair: (errors, stats, mesh, system, spaces, x_all)."""
    mesh = build_mesh(level, ms.interface, n_override=n_override)
    plan = build_level_plan(mesh, k, ms.f)
    system, spaces = assemble_system(plan, ms.a1, ms.a2, ms.g, mode)
    band, coarse = (plan.dofmap.band, coarse_basis(plan, spaces)) if method == "cg" else (None, None)
    x, stats = solve(system.matrix, system.rhs, method, band, coarse)
    x_all = system.full_coefficients(x)
    (errors,) = compute_errors(plan, [(x_all, ms, spaces)])
    return errors, stats, mesh, system, spaces, x_all


def cg_element_stiffness(tri, k: int, a: float = 1.0, degree: int | None = None) -> np.ndarray:
    """Single-element P_k stiffness block a * (grad psi_i, grad psi_j)_T."""
    tri = np.asarray(tri, float)
    if degree is None:
        degree = 2 * k
    ref, w = _triangle_rule_reference(degree)
    jm = np.array([tri[1] - tri[0], tri[2] - tri[0]])
    det = abs(jm[0, 0] * jm[1, 1] - jm[0, 1] * jm[1, 0])
    g_phys = _cg_shape_grads(k, ref) @ np.linalg.inv(jm).T
    return a * np.einsum("nid,n,njd->ij", g_phys, w * det, g_phys)


def edge_sets(mesh: MeshPartition):
    """Return (E_h, E_h^I, boundary) edge-id arrays.

    E_h collects every edge of an interface element; E_h^I is its subset of
    edges shared with a non-interface element; boundary lists all edges on
    the domain boundary.
    """
    eh = np.flatnonzero(
        (mesh.edge_class == EDGE_WG_INTERIOR) | (mesh.edge_class == EDGE_COUPLING)
    )
    ehi = np.flatnonzero(mesh.edge_class == EDGE_COUPLING)
    boundary = mesh.boundary_edges()
    return eh, ehi, boundary


def triangle_coords(mesh: MeshPartition, t: int) -> np.ndarray:
    """(3, 2) vertices of triangle t."""
    return mesh.vertices[mesh.triangles[t]]


def side_rules(space) -> dict:
    """side -> one local space's sub-region rule, views of its geometry's packed rule."""
    return space.geometry[space.geometry.elements[space.index]].rules


def block(space, side: int) -> np.ndarray:
    """(m, m) monomial coefficients of one local space's basis on one side."""
    return space.coeffs[: space.m] if side == OMEGA1 else space.coeffs[space.m :]


def take(cuts: CutTable, rows) -> CutTable:
    """The table of the rows ``rows`` of ``cuts``, in that order."""
    arrays = [f.name for f in dataclasses.fields(cuts) if f.name not in ("interface", "depth")]
    return dataclasses.replace(cuts, **{name: getattr(cuts, name)[rows] for name in arrays})


def split(cuts: CutTable) -> list[CutTable]:
    """The one-row tables of the rows of ``cuts``, in order."""
    return [take(cuts, [i]) for i in range(len(cuts))]


def side_polygon(cut: CutTable, side: int) -> np.ndarray:
    """The chord-split polygon of ``side`` of a one-row table."""
    return cut.tri_side[0] if cut.tri_on_1[0] == (side == OMEGA1) else cut.quad_side[0]


def space_cut(space) -> CutTable:
    """The one-row table of a local space's element."""
    return take(space.geometry.cuts, [space.index])


def wg0_columns(dofmap) -> dict:
    """element id -> the first of its m interior columns."""
    return dict(zip(dofmap.elements.tolist(), (dofmap.wg0 + dofmap.m * np.arange(len(dofmap.elements))).tolist()))
