"""Interface geometry: level-set circle, element cutting, quadrature rules.

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
    exactness_degree: int


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


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


def triangulate_polygon(vertices) -> np.ndarray:
    """Fan triangulation of a cut sub-polygon: (n - 2, 3) vertex indices.

    Each triangle has the polygon's orientation. One fan serves when a vertex
    sees every edge: the chord endpoint on the convex side of a cut, a
    triangle vertex on the side the arc polyline dents. A thin sliver between
    a triangle edge and a nearly tangent arc has no such vertex, but each end
    of that edge sees past the middle of the arc, so two fans tile it.
    """
    v = np.asarray(vertices, float)
    n = len(v)
    if n < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    local, cross, area = _fan_tests(v)
    tol = -1e-12 * 2.0 * area
    # The first vertex whose triangles all have positive area, else the first
    # with no negative triangle, else the least negative one.
    positive = _positive_fans(cross)
    worst = cross.min(axis=1)
    c = int(np.argmax(positive)) if positive.any() else int(np.argmax(worst))
    tris = _fans(c, n) if worst[c] >= tol else _two_fans(cross >= tol)
    # Sanity: the pieces must tile the polygon.
    ax, ay = local[tris[:, 0], 0], local[tris[:, 0], 1]
    bx, by = local[tris[:, 1], 0], local[tris[:, 1], 1]
    cx, cy = local[tris[:, 2], 0], local[tris[:, 2], 1]
    total = float(np.sum(np.abs(0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)))))
    if not _tiles(total, area):
        raise GeometryError("triangulation does not tile the polygon")
    return tris


def _fan_tests(verts: np.ndarray, n_centres: int | None = None):
    """Signed-area tests of the fans of a polygon (n, 2) or a stack (g, n, 2).

    Returns the centroid-local vertices, ``cross[..., c, i]``, the signed
    double area of (v_c, v_i, v_i+1) in the polygon's orientation, for the
    first ``n_centres`` centres c (all by default), and the area.
    Centroid-local coordinates keep sliver sub-polygons far from the origin
    from being dominated by shoelace roundoff.
    """
    local = verts - verts.mean(axis=-2, keepdims=True)
    signed_area = polygon_area(local)
    x, y = local[..., 0], local[..., 1]
    dx = x[..., None, :] - x[..., :n_centres, None]  # [c, i]: x_i - x_c
    dy = y[..., None, :] - y[..., :n_centres, None]
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


def _two_fans(ok: np.ndarray) -> np.ndarray:
    """Fans from adjacent vertices c and c + 1 split by a diagonal (c + 1, k).

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
    raise GeometryError("cut sub-polygon is not covered by one or two vertex fans; refine the mesh")


def polygon_rule(vertices, degree: int) -> QuadratureRule:
    """Positive-weight rule exact to `degree` on a simple polygon."""
    v = np.asarray(vertices, float)
    pts, w = _mapped_rule(v[None], triangulate_polygon(v)[None], *_triangle_rule_reference(degree))
    return QuadratureRule(pts[0], w[0], degree)


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
class ElementCut:
    """Geometric data for one interface element.

    The chord D-E linearizes the interface inside the element; `normal` is
    the unit normal of that chord oriented from the Omega1 side to the Omega2
    side. `poly1` / `poly2` are the counterclockwise sub-polygons produced by
    splitting the triangle along the chord; each lists the chord endpoints
    first and last so the closing edge is exactly D-E (resp. E-D). D and E
    lie on the crossed local edges in edge order, at the parameters
    `crossings`, which run from each edge's smaller (y, x) end as
    ``segment_crossings`` gives them; the neighbour across a cut edge shares
    its crossing point bit for bit.
    """

    element_id: int
    triangle: np.ndarray  # (3, 2), counterclockwise
    interface: CircleInterface
    point_d: np.ndarray
    point_e: np.ndarray
    normal: np.ndarray  # unit normal of the chord, from side 1 to side 2
    poly1: np.ndarray  # CCW, starts and ends with chord endpoints
    poly2: np.ndarray
    crossings: np.ndarray  # (3,) crossing parameter per local edge, NaN if uncrossed
    depth: int  # default curved-subdivision depth for quadrature


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


def compute_cut(
    tri,
    interface: CircleInterface,
    element_id: int = -1,
    depth: int = 6,
) -> ElementCut:
    """Compute the chord split of one interface element (see ``_cut``)."""
    tri = np.asarray(tri, float)
    if polygon_area(tri) < 0.0:
        tri = tri[::-1]
    return _cut(tri, segment_crossings(canonical_edges(tri), interface), interface, element_id, depth)


def _cut(tri: np.ndarray, crossings: np.ndarray, interface: CircleInterface, element_id: int, depth: int):
    """The chord split of a counterclockwise triangle whose local edges are crossed at ``crossings`` (3, 2).

    Requires the interface to cross exactly two edges, once each; anything
    else raises MultipleCrossings (mesh too coarse for the curvature).
    """
    count = np.count_nonzero(~np.isnan(crossings), axis=1).tolist()
    if max(count) > 1:
        raise MultipleCrossings(
            f"interface crosses edge {count.index(max(count))} of element {element_id} twice; refine the mesh"
        )
    if sum(count) != 2:
        raise MultipleCrossings(f"interface cuts {sum(count)} edges of element {element_id}; expected 2")
    i, j = (e for e in range(3) if count[e])
    ends = _canonical(tri[[[i, (i + 1) % 3], [j, (j + 1) % 3]]])
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
    return ElementCut(
        element_id=element_id,
        triangle=tri,
        interface=interface,
        point_d=pd,
        point_e=pe,
        normal=n,
        poly1=poly1,
        poly2=poly2,
        crossings=crossings[:, 0],
        depth=depth,
    )


def subregion_polygon(cut: ElementCut, side: int, depth: int) -> np.ndarray:
    """Vertex list of the side polygon with the chord replaced by the arc polyline."""
    poly = cut.poly1 if side == OMEGA1 else cut.poly2
    if depth <= 0:
        return poly
    # poly starts at one chord endpoint and ends at the other; the closing
    # edge (last -> first) is the chord. Insert the interior arc points there.
    return np.vstack([poly, _arc_interiors([cut], poly[-1:], poly[:1], 2**depth - 1)[0]])


def _arc_interiors(cuts, a: np.ndarray, b: np.ndarray, n_in: int) -> np.ndarray:
    """(g, n_in, 2) interior points of the near arcs from a[j] to b[j] on cuts[j]'s circle.

    The arc polyline of depth d has 2**d chords, n_in = 2**d - 1 interior
    points. Each refinement level replaces a chord by two chords through the
    arc midpoint of the chord's endpoints. On a circle, projecting a chord
    midpoint is exactly angular bisection, so the recursion collapses to a
    uniform angular sweep along the minor arc.
    """
    center = np.array([c.interface.center for c in cuts], float)
    radius = np.array([c.interface.radius for c in cuts])
    sweep = []
    for (ax, ay), (bx, by), (cx, cy) in zip(a.tolist(), b.tolist(), center.tolist()):
        th_a = math.atan2(ay - cy, ax - cx)
        sweep.append((th_a, math.remainder(math.atan2(by - cy, bx - cx) - th_a, 2.0 * math.pi)))
    th_a, dth = np.array(sweep).T
    th = th_a[:, None] + dth[:, None] * np.linspace(0.0, 1.0, n_in + 2)[1:-1]
    return center[:, None, :] + radius[:, None, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)


def quadrature_on_subregion(
    cut: ElementCut, side: int, degree: int, depth: int | None = None
) -> QuadratureRule:
    """Positive rule exact to `degree` on one sub-region of a cut element.

    With depth = 0 the region is the chord-split polygon; with depth > 0 the
    chord is replaced by the recursively bisected arc polyline, so the curved
    sliver is shared consistently between the two sides.
    """
    if side not in (OMEGA1, OMEGA2):
        raise ValueError(f"side must be {OMEGA1} or {OMEGA2}")
    if depth is None:
        depth = cut.depth
    try:
        return polygon_rule(subregion_polygon(cut, side, depth), degree)
    except GeometryError as exc:
        raise GeometryError(f"element {cut.element_id}, side {side}: {exc}") from exc


# Sub-polygons fanned and mapped per batch. It bounds the batch temporaries:
# the mapped points of 64 depth-6 sub-polygons take 1.7 MB at k = 2.
FAN_BATCH = 64


def pack_subregion_rules(cuts, degree: int):
    """The sub-region rules of every cut, both sides, packed into one set of arrays.

    Returns (offsets, points, weights): segment 2 i + s, from ``offsets[2i + s]``
    to ``offsets[2i + s + 1]``, is ``quadrature_on_subregion(cuts[i], side s,
    degree)`` bit for bit, at each cut's own depth. A fan of v vertices has
    v - 2 triangles, so the sizes come from the vertex counts. The sub-polygons
    are built, fanned and mapped in batches of equal vertex count; the few that
    no single fan covers, or whose fan fails the tiling check, take the
    per-polygon path, which tries two fans and names the element and side of
    a failure.
    """
    ref_pts, ref_w = _triangle_rule_reference(degree)
    polys = [(i, s, cut.poly1 if s == 0 else cut.poly2) for i, cut in enumerate(cuts) for s in (0, 1)]
    n_arc = [2 ** cuts[i].depth - 1 if cuts[i].depth > 0 else 0 for i, _, _ in polys]
    n_vert = np.array([len(poly) + a for (_, _, poly), a in zip(polys, n_arc)], dtype=np.int64)
    offsets = np.zeros(len(polys) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum((n_vert - 2) * len(ref_w))
    points = np.empty((offsets[-1], 2))
    weights = np.empty(offsets[-1])

    groups: dict[tuple[int, int], list[int]] = {}
    for p, (_, _, poly) in enumerate(polys):
        groups.setdefault((len(poly), n_arc[p]), []).append(p)
    for (n_poly, n_in), members in groups.items():
        for start in range(0, len(members), FAN_BATCH):
            ps = np.array(members[start : start + FAN_BATCH])
            verts = np.empty((len(ps), n_poly + n_in, 2))
            verts[:, :n_poly] = [polys[p][2] for p in ps]
            if n_in:
                ends = verts[:, n_poly - 1], verts[:, 0]
                verts[:, n_poly:] = _arc_interiors([cuts[polys[p][0]] for p in ps], *ends, n_in)
            fan = _single_fans(verts, n_poly)
            good = fan >= 0
            pts, w = _mapped_rule(verts[good], _fans(fan[good], verts.shape[1]), ref_pts, ref_w)
            for p, seg_pts, seg_w in zip(ps[good], pts, w):
                points[offsets[p] : offsets[p + 1]], weights[offsets[p] : offsets[p + 1]] = seg_pts, seg_w
            for p in ps[~good]:
                i, s, _ = polys[p]
                rule = quadrature_on_subregion(cuts[i], (OMEGA1, OMEGA2)[s], degree)
                points[offsets[p] : offsets[p + 1]], weights[offsets[p] : offsets[p + 1]] = rule.points, rule.weights
    return offsets, points, weights


def _single_fans(verts: np.ndarray, n_corners: int) -> np.ndarray:
    """(g,) the fan vertex ``triangulate_polygon`` picks for each polygon, or -1.

    It picks the first vertex whose triangles all have positive area. Only
    the ``n_corners`` leading vertices, the chord ends and triangle vertices
    of a cut sub-polygon, are tried: on the paper's circle one of them always
    serves. -1 sends a polygon to the per-polygon path: its fan vertex lies
    on the arc, has a zero-area triangle, needs the tolerance or a second
    fan, or fails the tiling check.
    """
    _, cross, area = _fan_tests(verts, n_corners)
    valid = _positive_fans(cross)
    fan = np.argmax(valid, axis=1)
    rows = np.arange(len(verts))[:, None]
    total = np.sum(np.abs(0.5 * cross[rows, fan[:, None], _fans(fan, verts.shape[1])[..., 1]]), axis=1)
    return np.where(valid[rows[:, 0], fan] & _tiles(total, area), fan, -1)
