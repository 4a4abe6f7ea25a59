"""Interface geometry: level-set circle, the cut table, quadrature rules.

Everything in this module is a pure function of its inputs; the data types
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Default geometric tolerance: 1e-12 times the diameter of [-1,1]^2.
GEOM_TOL = 1e-12 * 2.0 * math.sqrt(2.0)

# Element classification codes.
INTERFACE = 0
OMEGA1 = 1
OMEGA2 = 2


class GeometryError(Exception):
    """Base class for geometric failures."""


class DegenerateTriangle(GeometryError):
    """Triangle area below the degeneracy threshold."""


class MultipleCrossings(GeometryError):
    """The interface crosses one edge twice or cuts more than two edges.

    The mesh is too coarse relative to the interface curvature; the caller
    should refine instead of trying to recover.
    """


@dataclass(frozen=True)
class CircleInterface:
    """Level set phi(x, y) = (x - cx)^2 + (y - cy)^2 - r2.

    Omega1 = {phi < 0} (inside) and Omega2 = {phi > 0} (outside); the unit
    normal grad(phi)/|grad(phi)| points from Omega1 into Omega2.
    """

    center: tuple[float, float] = (0.0, 0.0)
    radius_squared: float = 1.0 / 3.0

    def __post_init__(self):
        if not self.radius_squared > 0.0:
            raise ValueError("radius_squared must be positive")

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_squared)

    def value(self, x, y):
        cx, cy = self.center
        return (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2 - self.radius_squared

    def gradient(self, x, y):
        cx, cy = self.center
        return np.stack([2.0 * (np.asarray(x) - cx), 2.0 * (np.asarray(y) - cy)], axis=-1)


def _reversed(ends: np.ndarray) -> np.ndarray:
    """Whether each segment (..., 2, 2) starts at its larger (y, x) end."""
    p, q = ends[..., 0, :], ends[..., 1, :]
    return (q[..., 1] < p[..., 1]) | ((q[..., 1] == p[..., 1]) & (q[..., 0] < p[..., 0]))


def _canonical(ends: np.ndarray) -> np.ndarray:
    """Segments (..., 2, 2), each from its smaller (y, x) end."""
    return np.where(_reversed(ends)[..., None, None], ends[..., ::-1, :], ends)


def canonical_edges(tri) -> np.ndarray:
    """(..., 3, 2, 2) local edge i of triangles (..., 3, 2), from its smaller (y, x) end.

    On the uniform mesh that end is the lower vertex id, so the two neighbours
    of an edge see the same segment.
    """
    tri = np.asarray(tri, float)
    return _canonical(np.stack([tri, np.roll(tri, -1, axis=-2)], axis=-2))


def segment_crossings(ends, interface: CircleInterface) -> np.ndarray:
    """Parameters (..., 2) where phi vanishes inside the segments ``ends`` (..., 2, 2).

    Each segment is solved from its smaller (y, x) end, so it gives the same
    bits in either orientation; the parameters run from that end, ascending,
    and NaN fills the slots without a root. Along the segment phi is the
    quadratic (a t + b) t + c. Its roots come from the stable formula and are
    polished by bisection. A root pair closer than 1e-6 is a tangential touch
    without a sign change and is dropped. So is a root within GEOM_TOL of an
    end: vertex snapping belongs to classification. An end on the circle
    turns into a double root there, which rounding displaces by sqrt(eps),
    so its window widens to 1e-6. The sums are written out elementwise, so no
    BLAS dot decides a bit. Roots are formed only where the discriminant is
    positive, which keeps every quotient finite, and underflow is ignored, so
    no floating-point error is raised.
    """
    ends = np.asarray(ends, float)
    shape = ends.shape[:-2]
    ends = _canonical(ends.reshape(-1, 2, 2))
    out = np.full((len(ends), 2), np.nan)
    (px, py), (qx, qy) = ends[:, 0].T, ends[:, 1].T
    dx, dy = qx - px, qy - py
    cx, cy = px - interface.center[0], py - interface.center[1]
    with np.errstate(under="ignore"):
        a = dx * dx + dy * dy
        b = 2.0 * (cx * dx + cy * dy)
        c = (cx * cx + cy * cy) - interface.radius_squared
        disc = b * b - 4.0 * a * c
        live = (a > 0.0) & (disc > 0.0)
        a, b, c, disc = a[live], b[live], c[live], disc[live]
        qq = -0.5 * (b + np.copysign(np.sqrt(disc), b))  # nonzero, as disc > 0
        roots = np.sort(np.stack([qq / a, c / qq], axis=1), axis=1)
        two = roots[:, 1] != roots[:, 0]
        tangent = two & (roots[:, 1] - roots[:, 0] < 1e-6)
        t_snap = GEOM_TOL / np.sqrt(a)
        lo = np.where(np.abs(c) <= GEOM_TOL, 1e-6, t_snap)
        hi = np.where(np.abs(a + b + c) <= GEOM_TOL, 1e-6, t_snap)
        keep = (lo[:, None] < roots) & (roots < 1.0 - hi[:, None]) & ~tangent[:, None]
        keep[:, 1] &= two
        row, slot = np.nonzero(keep)
        found = np.full(roots.shape, np.nan)
        found[row, np.cumsum(keep, axis=1)[row, slot] - 1] = _polish(
            a[row], b[row], c[row], roots[row, slot], t_snap[row]
        )
    out[live] = found
    return out.reshape(shape + (2,))


def _polish(a, b, c, t, halfwidth, iters: int = 60) -> np.ndarray:
    """Roots of (a t + b) t + c near t, by bisection on [t - halfwidth, t + halfwidth].

    An end where the quadratic vanishes is the root; a bracket without a sign
    change keeps t; a midpoint where it vanishes stops that root's bisection.
    """

    def phi(s):
        return (a * s + b) * s + c

    lo, hi = t - halfwidth, t + halfwidth
    flo, fhi = phi(lo), phi(hi)
    out = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, t))
    live = (flo != 0.0) & (fhi != 0.0) & ~(flo * fhi > 0.0)
    for _ in range(iters):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        fm = phi(mid)
        hit = live & (fm == 0.0)
        out[hit] = mid[hit]
        live &= ~hit
        left = flo * fm < 0.0
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
    return np.where(live, 0.5 * (lo + hi), out)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points and weights for integration over a region or curve segment."""

    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=None)
def _triangle_rule_reference(degree: int):
    """Rule on the reference triangle (0,0)-(1,0)-(0,1), exact to `degree`.

    Built by collapsing a tensor Gauss rule on the unit square through the
    Duffy map (x, y) = (a, b (1 - a)); all weights are positive.
    """
    na = (degree + 3) // 2  # exact for a-polynomials up to degree + 1
    nb = (degree + 2) // 2
    xa, wa = _gauss_legendre(na)
    xb, wb = _gauss_legendre(nb)
    a = 0.5 * (xa + 1.0)
    b = 0.5 * (xb + 1.0)
    A, B = np.meshgrid(a, b, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    x = A.ravel()
    y = (B * (1.0 - A)).ravel()
    w = (0.25 * WA * WB * (1.0 - A)).ravel()
    pts = np.column_stack([x, y])
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def polygon_area(vertices):
    """Signed area (positive for counterclockwise) by the shoelace formula.

    ``vertices`` is one polygon (n, 2), giving a float, or a stack (..., n, 2).
    """
    v = np.asarray(vertices, float)
    x, y = v[..., 0], v[..., 1]
    area = 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)
    return float(area) if area.ndim == 0 else area


def _fan_tests(verts: np.ndarray):
    """Signed-area tests of the fans of a polygon (n, 2) or a stack (g, n, 2).

    Returns the centroid-local vertices, ``cross[..., c, i]``, the signed
    double area of (v_c, v_i, v_i+1) in the polygon's orientation, and the
    area. Centroid-local coordinates keep sliver sub-polygons far from the
    origin from being dominated by shoelace roundoff.
    """
    local = verts - verts.mean(axis=-2, keepdims=True)
    signed_area = polygon_area(local)
    x, y = local[..., 0], local[..., 1]
    dx = x[..., None, :] - x[..., :, None]  # [c, i]: x_i - x_c
    dy = y[..., None, :] - y[..., :, None]
    cross = dx * np.roll(dy, -1, axis=-1)
    cross -= dy * np.roll(dx, -1, axis=-1)
    cross *= np.copysign(1.0, signed_area)[..., None, None]
    return local, cross, np.abs(signed_area)


def _positive_fans(cross: np.ndarray) -> np.ndarray:
    """Whether each centre's fan has only triangles of positive area, from ``_fan_tests``.

    The two triangles (v_c, v_c, v_c+1) and (v_c, v_c-1, v_c) of a row are
    exact zeros by construction and are skipped: they would hide real zeros.
    """
    centre, i = np.arange(cross.shape[-2])[:, None], np.arange(cross.shape[-1])
    own = (i == centre) | (i == (centre - 1) % cross.shape[-1])
    return np.where(own, np.inf, cross).min(axis=-1) > 0.0


def _tiles(total, area):
    """Whether triangles of total area ``total`` tile a polygon of area ``area``."""
    return ~(np.abs(total - area) > 1e-10 * np.maximum(area, 1e-300))


def _fans(centre, n: int) -> np.ndarray:
    """(..., n - 2, 3) vertex indices of the fan of an n-gon from ``centre`` (...)."""
    centre = np.asarray(centre)[..., None]
    i = (centre + 1 + np.arange(n - 2)) % n
    return np.stack([np.broadcast_to(centre, i.shape), i, (i + 1) % n], axis=-1)


def _two_fans(ok: np.ndarray) -> np.ndarray | None:
    """Fans from adjacent vertices c and c + 1 split by a diagonal (c + 1, k), or None.

    ``ok[c, i]``: the triangle (v_c, v_i, v_i+1) is not inverted. Counting
    from c, vertex c + 1 fans the edges 2 .. k - 1, vertex c the edges
    k .. n - 2, and the triangle (c, c + 1, k) closes the gap.
    """
    n = len(ok)
    for c in range(n):
        r = np.roll(np.arange(n), -c)
        # Entry k - 2 is the split at k = 2 .. n - 1.
        split = (
            np.logical_and.accumulate(np.r_[True, ok[r[1], r[2 : n - 1]]])
            & np.logical_and.accumulate(np.r_[True, ok[c, r[n - 2 : 1 : -1]]])[::-1]
            & ok[r[2:], c]
        )
        if split.any():
            k = int(np.argmax(split)) + 2
            centre = np.where(np.arange(2, n - 1) < k, r[1], c)
            return np.vstack([[c, r[1], r[k]], np.column_stack([centre, r[2 : n - 1], r[3:]])])
    return None


def _fan_triangles(verts: np.ndarray, label) -> np.ndarray:
    """(g, n - 2, 3) vertex indices of vertex fans tiling the polygons ``verts`` (g, n, 2).

    Each triangle has its polygon's orientation. One fan serves when a vertex
    sees every edge: the chord endpoint on the convex side of a cut, a
    triangle vertex on the side the arc polyline dents. Every vertex is tried:
    the first whose triangles all have positive area is the centre, else the
    one whose worst triangle is least negative, if that is within roundoff
    of the area. A thin sliver between a triangle edge and a nearly tangent
    arc has no such vertex, but each end of that edge sees past the middle of
    the arc, so two fans tile it. A polygon that no fan tiles raises
    GeometryError naming ``label(row)``.
    """
    g, n = verts.shape[:2]
    if n < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    local, cross, area = _fan_tests(verts)
    tol = -1e-12 * 2.0 * area
    positive, worst = _positive_fans(cross), cross.min(axis=-1)
    centre = np.where(positive.any(axis=1), np.argmax(positive, axis=1), np.argmax(worst, axis=1))
    tris = _fans(centre, n)
    rows = np.arange(g)
    for row in np.flatnonzero(worst[rows, centre] < tol).tolist():
        split = _two_fans(cross[row] >= tol[row])
        if split is None:
            raise GeometryError(f"{label(row)}: sub-polygon not covered by one or two vertex fans; refine the mesh")
        tris[row] = split
    # The pieces must tile the polygon.
    (ax, ay), (bx, by), (cx, cy) = np.moveaxis(local[rows[:, None, None], tris], (-2, -1), (0, 1))
    total = np.sum(np.abs(0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))), axis=1)
    bad = np.flatnonzero(~_tiles(total, area))
    if len(bad):
        raise GeometryError(f"{label(bad[0])}: triangulation does not tile the polygon")
    return tris


def _mapped_rule(verts: np.ndarray, tris: np.ndarray, ref_pts: np.ndarray, ref_w: np.ndarray):
    """The reference rule on triangles ``tris`` (g, T, 3) of polygons ``verts`` (g, n, 2).

    Returns points (g, T q, 2) and weights (g, T q), triangle by triangle.
    """
    rows = np.arange(len(verts))[:, None]
    a = verts[rows, tris[..., 0]]  # (g, T, 2)
    e1 = verts[rows, tris[..., 1]] - a
    e2 = verts[rows, tris[..., 2]] - a
    dets = np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    pts = ref_pts[:, 0:1] * e1[:, :, None, :]
    pts += a[:, :, None, :]  # a + x e1, then + y e2
    pts += ref_pts[:, 1:2] * e2[:, :, None, :]
    w = ref_w * dets[..., None]
    size = tris.shape[1] * len(ref_w)
    return pts.reshape(len(verts), size, 2), w.reshape(len(verts), size)


@dataclass(frozen=True, eq=False)
class CutTable:
    """The chord splits of a mesh's interface elements, one row per element.

    The chord D-E linearizes the interface inside an element. D and E lie on
    the crossed local edges in edge order, at the parameters ``crossings``,
    which run from each edge's smaller (y, x) end as ``segment_crossings``
    gives them, so the neighbour across a cut edge shares the point bit for
    bit. The chord leaves one vertex alone and splits the triangle into two
    counterclockwise sides that it closes: ``tri_side`` is [first chord end,
    lone vertex, other end] and ``quad_side`` is [other end, next vertex,
    next vertex, first end]. Side s of row i (0 for Omega1, 1 for Omega2)
    is segment 2 i + s of the packed cut-cell rules.
    """

    interface: CircleInterface | None
    depth: int  # curved-subdivision depth of the cut-cell quadrature
    elements: np.ndarray  # (n,) element ids, ascending
    triangles: np.ndarray  # (n, 3, 2), counterclockwise
    point_d: np.ndarray  # (n, 2)
    point_e: np.ndarray  # (n, 2)
    normal: np.ndarray  # (n, 2) unit normal of the chord, from side 1 to side 2
    crossings: np.ndarray  # (n, 3) crossing parameter per local edge, NaN if uncrossed
    tri_side: np.ndarray  # (n, 3, 2)
    quad_side: np.ndarray  # (n, 4, 2)
    tri_on_1: np.ndarray  # (n,) whether tri_side is the Omega1 side

    def __len__(self) -> int:
        return len(self.elements)


def cut_table(interface: CircleInterface | None, elements, triangles, crossings, depth: int) -> CutTable:
    """The CutTable of counterclockwise triangles (n, 3, 2) with local edge crossings (n, 3, 2).

    Each triangle must be crossed on exactly two edges, once each, by a chord
    of positive length that separates its vertices; otherwise
    MultipleCrossings names the first failing element (mesh too coarse).
    """
    circle = interface or CircleInterface()  # a mesh without an interface has no rows
    elements = np.asarray(elements, np.int64)
    rows = np.arange(len(elements))
    count = np.count_nonzero(~np.isnan(crossings), axis=2)  # (n, 3) roots per local edge
    # The uncrossed edge u leaves vertex u + 2 alone; the chord runs from the
    # point on edge u + 1 to the one on edge u + 2, and D is on the lower edge.
    u = np.argmin(count, axis=1)
    lone = (u + 2) % 3
    ends = canonical_edges(triangles)
    on_edge = ends[..., 0, :] + crossings[..., :1] * (ends[..., 1, :] - ends[..., 0, :])  # (n, 3, 2)
    first, other = on_edge[rows, (u + 1) % 3], on_edge[rows, lone]
    d_is_other = (u == 1)[:, None]
    pd, pe = np.where(d_is_other, other, first), np.where(d_is_other, first, other)
    chord = pe - pd
    clen = np.sqrt(chord[:, 0] * chord[:, 0] + chord[:, 1] * chord[:, 1])
    phi = circle.value(triangles[..., 0], triangles[..., 1])
    tri_on_1 = phi[rows, lone] < 0.0
    quad_on_1 = np.maximum(phi[rows, u], phi[rows, (u + 1) % 3]) < 0.0

    # Each element's checks in order; the first element that fails one raises.
    checks = np.stack([count.max(axis=1) > 1, count.sum(axis=1) != 2, clen <= GEOM_TOL, tri_on_1 == quad_on_1])
    bad = np.flatnonzero(checks.any(axis=0))
    if len(bad):
        i, t = bad[0], elements[bad[0]]
        raise MultipleCrossings((
            f"interface crosses edge {np.argmax(count[i])} of element {t} twice; refine the mesh",
            f"interface cuts {count[i].sum()} edges of element {t}; expected 2",
            f"degenerate chord on element {t}",
            f"could not separate the two sides of element {t}",
        )[np.argmax(checks[:, i])])
    # Normal of the chord oriented from Omega1 into Omega2, along grad(phi) at
    # the chord midpoint.
    normal = np.stack([chord[:, 1], -chord[:, 0]], axis=1) / clen[:, None]
    mid = 0.5 * (pd + pe) - circle.center
    normal[normal[:, 0] * mid[:, 0] + normal[:, 1] * mid[:, 1] < 0.0] *= -1.0
    vertex = triangles[rows[:, None], (lone[:, None] + np.arange(3)) % 3]  # the lone vertex, then the next two
    tri_side = np.stack([first, vertex[:, 0], other], axis=1)
    quad_side = np.stack([other, vertex[:, 1], vertex[:, 2], first], axis=1)
    crossings = crossings[..., 0]
    return CutTable(interface, depth, elements, triangles, pd, pe, normal, crossings, tri_side, quad_side, tri_on_1)


def _element_classes(phi: np.ndarray, crossings: np.ndarray, element_ids) -> np.ndarray:
    """Classes (n,) of triangles from phi at their vertices (n, 3) and their local edges' crossings (n, 3, 2).

    A triangle is an interface element iff its snapped vertex signs are mixed
    or the circle crosses one of its edges (it can dip through an edge
    without flipping a vertex sign). Otherwise it takes the side of its
    nonzero signs, so a triangle touching the circle at a snapped vertex
    counts as uncut; one with every vertex snapped is refused by element id.
    """
    signs = np.where(np.abs(phi) <= GEOM_TOL, 0.0, np.sign(phi))
    snapped = np.flatnonzero((signs == 0.0).all(axis=1))
    if len(snapped):
        raise DegenerateTriangle(f"all vertices of element {element_ids[snapped[0]]} snapped onto the interface")
    lo, hi = signs.min(axis=1), signs.max(axis=1)
    cut = ((lo < 0.0) & (hi > 0.0)) | ~np.isnan(crossings[..., 0]).all(axis=1)
    return np.where(cut, INTERFACE, np.where(hi > 0.0, OMEGA2, OMEGA1))


def _arc_interiors(interface: CircleInterface, a: np.ndarray, b: np.ndarray, n_in: int) -> np.ndarray:
    """(g, n_in, 2) interior points of the near arcs from a[j] to b[j] on the circle.

    The arc polyline of depth d has 2**d chords, n_in = 2**d - 1 interior
    points. Each refinement level replaces a chord by two chords through the
    arc midpoint of the chord's endpoints. On a circle, projecting a chord
    midpoint is exactly angular bisection, so the recursion collapses to a
    uniform angular sweep along the minor arc.
    """
    center = np.array(interface.center, float)
    th_a, dth = _arc_sweep(center, a, b)
    th = th_a[:, None] + dth[:, None] * np.linspace(0.0, 1.0, n_in + 2)[1:-1]
    return center + interface.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)


def _arc_sweep(center: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Start angles and signed sweeps (g,) of the minor arcs from a to b (g, 2) about center (2,)."""
    th_a = np.arctan2(a[:, 1] - center[1], a[:, 0] - center[0])
    dth = np.arctan2(b[:, 1] - center[1], b[:, 0] - center[0]) - th_a
    # The IEEE remainder of dth by 2 pi, exact as |dth| < 2 pi.
    return th_a, np.where(dth > math.pi, dth - 2.0 * math.pi, np.where(dth < -math.pi, dth + 2.0 * math.pi, dth))


# Depth of the packed fan rules. A deeper table keeps its depth-2 rules' points
# and fits the weights to its own depth's moments (ife._fit_moments).
RULE_DEPTH = 2


def _on_tri_side(cuts: CutTable, segments: np.ndarray) -> np.ndarray:
    """Whether each segment 2 row + s is its row's 3-vertex side."""
    return (segments % 2 == 0) == cuts.tri_on_1[segments // 2]


def _polygon_batches(cuts: CutTable, segments: np.ndarray, depth: int):
    """Sub-polygons of the sides ``segments`` at ``depth``: the 3-vertex sides, then the 4-vertex ones.

    Yields the positions in ``segments`` of a batch and its vertices (g, v,
    2): the chord-split polygon, then the interior points of the arc
    polyline. An empty batch is skipped.
    """
    on_tri = _on_tri_side(cuts, segments)
    n_in = 2**depth - 1  # interior points of the arc polyline's 2**depth chords
    for ps, polys in ((np.flatnonzero(on_tri), cuts.tri_side), (np.flatnonzero(~on_tri), cuts.quad_side)):
        if not len(ps):
            continue
        n_poly = polys.shape[1]
        verts = np.empty((len(ps), n_poly + n_in, 2))
        verts[:, :n_poly] = polys[segments[ps] // 2]
        if n_in:
            # The closing edge, last vertex to first, is the chord.
            verts[:, n_poly:] = _arc_interiors(cuts.interface, verts[:, n_poly - 1], verts[:, 0], n_in)
        yield ps, verts


def pack_subregion_rules(cuts: CutTable, segments: np.ndarray, depth: int, degree: int):
    """Fan rules exact to ``degree`` on cut sub-regions, packed into one set of arrays.

    ``segments`` lists sides as 2 row + s (s = 0 for Omega1) of ``cuts``,
    each taken at ``depth``. Returns (offsets, points, weights): entry j,
    from ``offsets[j]`` to ``offsets[j + 1]``, is the rule of side
    ``segments[j]``. A fan of v vertices has v - 2 triangles, so the sizes
    come from the vertex counts. The sub-polygons are built, fanned
    (``_fan_triangles``) and mapped in two batches, the 3-vertex and the
    4-vertex sides; a failure names the element and side.
    """
    ref_pts, ref_w = _triangle_rule_reference(degree)
    n_vert = np.where(_on_tri_side(cuts, segments), 3, 4) + 2**depth - 1
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum((n_vert - 2) * len(ref_w))
    points = np.empty((offsets[-1], 2))
    weights = np.empty(offsets[-1])

    def label(p):
        return f"element {cuts.elements[segments[p] // 2]}, side {(OMEGA1, OMEGA2)[segments[p] % 2]}"

    for ps, verts in _polygon_batches(cuts, segments, depth):
        tris = _fan_triangles(verts, lambda row, ps=ps: label(ps[row]))
        pts, w = _mapped_rule(verts, tris, ref_pts, ref_w)
        idx = offsets[ps, None] + np.arange(w.shape[1])
        points[idx], weights[idx] = pts, w
    return offsets, points, weights


def legendre_table(x, n: int, first=1.0) -> np.ndarray:
    """Legendre polynomials P_0 .. P_n at x, times ``first``, as contiguous planes (n + 1,) + x.shape.

    The recurrence is linear, so starting it from ``first`` scales every
    plane; it runs elementwise, so no value depends on the batch size.
    """
    x = np.asarray(x, float)
    out = np.empty((n + 1,) + x.shape)
    out[0] = first
    if n > 0:
        np.multiply(x, out[0], out=out[1])
    for j in range(1, n):
        np.multiply((2 * j + 1) / (j + 1) * x, out[j], out=out[j + 1])
        out[j + 1] -= j / (j + 1) * out[j - 1]
    return out


def subregion_moments(
    cuts: CutTable, segments: np.ndarray, depth: int, origin: np.ndarray, axes: np.ndarray, degree: int
) -> np.ndarray:
    """Legendre-product moments of cut sub-regions, exactly, from their boundaries.

    Region j is side ``segments[j]`` (2 row + s) of ``cuts`` at ``depth``, as
    ``_polygon_batches`` builds it, with a frame xi = (x - origin[j]) @
    axes[j].T of positive determinant.
    Returns (g, degree + 1, degree + 1): entry [j, a, b] is the integral over
    region j of P_a(xi_1) P_b(xi_2) dx, exact for a + b <= degree. By
    Green's theorem it is the contour integral of F_a(xi_1) P_b(xi_2) dxi_2
    over the frame's image of the polygon, F_a an antiderivative of P_a,
    divided by the frame's determinant. A Gauss rule per edge integrates the
    degree + 1 polynomial exactly. Each polygon's P_0 .. P_degree+1 of xi_1
    meet the weighted P_b of xi_2 in one matmul over its contour points, and
    a fixed matrix then takes the first index to F_a.
    """
    x_gauss, w_gauss = _gauss_legendre((degree + 3) // 2)
    t, w_t = 0.5 * (x_gauss + 1.0), 0.5 * w_gauss
    det = axes[:, 0, 0] * axes[:, 1, 1] - axes[:, 0, 1] * axes[:, 1, 0]
    # F_0 = P_1 and F_a = (P_a+1 - P_a-1) / (2a + 1): column a of anti in P_0 .. P_degree+1.
    a = np.arange(degree + 1)
    anti = np.zeros((degree + 2, degree + 1))
    anti[a + 1, a], anti[a[1:] - 1, a[1:]] = 1.0 / (2 * a + 1), -1.0 / (2 * a[1:] + 1)
    out = np.empty((len(segments), degree + 2, degree + 1))
    for ps, verts in _polygon_batches(cuts, segments, depth):
        xi = (verts - origin[ps, None, :]) @ axes[ps].swapaxes(-1, -2)  # (g, v, 2)
        step = np.roll(xi, -1, axis=1) - xi
        q1, q2 = (xi[..., c, None] + t * step[..., c, None] for c in (0, 1))  # (g, v, Q), edge by edge
        p1 = legendre_table(q1.reshape(len(ps), -1), degree + 1)  # (degree + 2, g, v Q)
        p2 = legendre_table(q2.reshape(len(ps), -1), degree, (step[..., 1, None] * w_t).reshape(len(ps), -1))
        out[ps] = p1.transpose(1, 0, 2) @ p2.transpose(1, 2, 0)
    return (anti.T @ out) / det[:, None, None]
