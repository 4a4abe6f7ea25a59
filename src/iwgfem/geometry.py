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

    def unit_normal(self, x, y):
        g = self.gradient(x, y)
        norm = np.linalg.norm(g, axis=-1, keepdims=True)
        return g / norm

    def side(self, x, y, tol: float = 0.0):
        """1 on Omega1 (phi < -tol), 2 on Omega2 (phi > tol), 0 within tol of the interface."""
        phi = self.value(x, y)
        return np.where(phi < -tol, OMEGA1, np.where(phi > tol, OMEGA2, 0))

    def project(self, point):
        """Radial projection of a point onto the circle."""
        c = np.asarray(self.center, dtype=float)
        d = np.asarray(point, dtype=float) - c
        return c + self.radius * d / np.linalg.norm(d)

    def arc_midpoint(self, p, q):
        """The point of the near arc halfway between two points on the circle.

        Computed as the radial projection of the chord midpoint, which always
        selects the minor arc for chords shorter than the diameter.
        """
        return self.project(0.5 * (np.asarray(p, float) + np.asarray(q, float)))

    def edge_roots(self, p, q, geom_tol: float = GEOM_TOL) -> list[float]:
        """Parameters t in (0, 1) where phi vanishes on the open segment p -> q.

        Roots of the restriction (a quadratic in t) are found analytically and
        polished by bisection; roots within geom_tol of an endpoint are
        dropped (vertex snapping happens at classification level).
        """
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        d = q - p
        c0 = p - np.asarray(self.center, float)
        a = float(d @ d)
        b = 2.0 * float(c0 @ d)
        c = float(c0 @ c0) - self.radius_squared
        if a == 0.0:
            return []
        disc = b * b - 4.0 * a * c
        if disc <= 0.0:
            return []
        # Numerically stable quadratic roots.
        sq = math.sqrt(disc)
        qq = -0.5 * (b + math.copysign(sq, b))
        roots = sorted({qq / a, c / qq if qq != 0.0 else math.inf})
        # A tangential touch produces a nearly coincident root pair without a
        # sign change; snap it away rather than reporting a zero-width dip.
        if len(roots) == 2 and abs(roots[1] - roots[0]) < 1e-6:
            return []
        length = math.sqrt(a)
        t_snap = geom_tol / length
        # Endpoints sitting on the circle turn into double roots there, which
        # rounding can displace by sqrt(eps); widen the snap window for them.
        lo = 1e-6 if abs(c) <= geom_tol else t_snap
        phi_end = a + b + c
        hi = 1e-6 if abs(phi_end) <= geom_tol else t_snap

        def phi_t(t: float) -> float:
            return (a * t + b) * t + c

        out = []
        for t in roots:
            if not (lo < t < 1.0 - hi):
                continue
            t = _bisect_polish(phi_t, t, t_snap)
            out.append(t)
        return out


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


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points and weights for integration over a region or curve segment."""

    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)
    exactness_degree: int

    @property
    def measure(self) -> float:
        return float(self.weights.sum())

    def integrate(self, f) -> float:
        vals = f(self.points[:, 0], self.points[:, 1])
        return float(self.weights @ np.asarray(vals, float))

    @staticmethod
    def concatenate(rules: list["QuadratureRule"]) -> "QuadratureRule":
        degree = min(r.exactness_degree for r in rules)
        return QuadratureRule(
            points=np.concatenate([r.points for r in rules]),
            weights=np.concatenate([r.weights for r in rules]),
            exactness_degree=degree,
        )


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


def triangle_rule(tri, degree: int) -> QuadratureRule:
    """Quadrature rule exact to `degree` on a physical triangle."""
    tri = np.asarray(tri, float)
    ref_pts, ref_w = _triangle_rule_reference(degree)
    j = np.array([tri[1] - tri[0], tri[2] - tri[0]])  # rows are edge vectors
    det = abs(j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0])
    pts = ref_pts @ j + tri[0]
    return QuadratureRule(pts, ref_w * det, degree)


def polygon_area(vertices) -> float:
    """Signed area (positive for counterclockwise) by the shoelace formula."""
    v = np.asarray(vertices, float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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
    # Work in centroid-local coordinates: sliver sub-polygons far from the
    # origin are otherwise dominated by shoelace roundoff.
    v = v - v.mean(axis=0)
    signed_area = polygon_area(v)
    area = abs(signed_area)
    # cross[c, i]: signed double area of (v_c, v_i, v_i+1), in the polygon's
    # orientation.
    d = v[None, :, :] - v[:, None, :]
    d_next = np.roll(d, -1, axis=1)
    cross = math.copysign(1.0, signed_area) * (d[..., 0] * d_next[..., 1] - d[..., 1] * d_next[..., 0])
    tol = -1e-12 * 2.0 * area
    # The first vertex with no negative triangle, else the least negative one.
    worst = cross.min(axis=1)
    c = int(np.argmax(worst))
    if worst[c] >= tol:
        i = (c + 1 + np.arange(n - 2)) % n
        tris = np.column_stack([np.full(n - 2, c), i, (i + 1) % n])
    else:
        tris = _two_fans(cross >= tol)
    # Sanity: the pieces must tile the polygon.
    ax, ay = v[tris[:, 0], 0], v[tris[:, 0], 1]
    bx, by = v[tris[:, 1], 0], v[tris[:, 1], 1]
    cx, cy = v[tris[:, 2], 0], v[tris[:, 2], 1]
    total = float(np.sum(np.abs(0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)))))
    if abs(total - area) > 1e-10 * max(area, 1e-300):
        raise GeometryError("triangulation does not tile the polygon")
    return tris


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
    tris = triangulate_polygon(v)
    ref_pts, ref_w = _triangle_rule_reference(degree)
    a = v[tris[:, 0]]  # (T, 2)
    e1 = v[tris[:, 1]] - a
    e2 = v[tris[:, 2]] - a
    dets = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = (
        a[:, None, :]
        + ref_pts[None, :, 0:1] * e1[:, None, :]
        + ref_pts[None, :, 1:2] * e2[:, None, :]
    )
    w = ref_w[None, :] * dets[:, None]
    return QuadratureRule(pts.reshape(-1, 2), w.ravel(), degree)


@dataclass(frozen=True, eq=False)
class ElementCut:
    """Geometric data for one interface element.

    The chord D-E linearizes the interface inside the element; `normal` is
    the unit normal of that chord oriented from the Omega1 side to the Omega2
    side. `poly1` / `poly2` are the counterclockwise sub-polygons produced by
    splitting the triangle along the chord; each lists the chord endpoints
    first and last so the closing edge is exactly D-E (resp. E-D).
    """

    element_id: int
    triangle: np.ndarray  # (3, 2), counterclockwise
    interface: CircleInterface
    point_d: np.ndarray
    point_e: np.ndarray
    edge_d: int  # local edge index (i -> i+1 mod 3) carrying D
    edge_e: int
    param_d: float  # position of D along its edge, in (0, 1)
    param_e: float
    normal: np.ndarray  # unit normal of the chord, from side 1 to side 2
    poly1: np.ndarray  # CCW, starts and ends with chord endpoints
    poly2: np.ndarray
    depth: int  # default curved-subdivision depth for quadrature

    @property
    def chord_length(self) -> float:
        return float(np.linalg.norm(self.point_e - self.point_d))

    @property
    def h(self) -> float:
        t = self.triangle
        return max(
            float(np.linalg.norm(t[1] - t[0])),
            float(np.linalg.norm(t[2] - t[1])),
            float(np.linalg.norm(t[0] - t[2])),
        )


def _snapped_signs(tri, interface: CircleInterface, geom_tol: float):
    phi = interface.value(tri[:, 0], tri[:, 1])
    signs = np.where(np.abs(phi) <= geom_tol, 0, np.sign(phi)).astype(int)
    return phi, signs


def classify_element(tri, interface: CircleInterface | None, geom_tol: float = GEOM_TOL) -> int:
    """Classify a triangle as INTERFACE, OMEGA1 or OMEGA2.

    A triangle is an interface element iff phi changes sign over its closure,
    detected from snapped vertex signs plus an edge-interior root check (the
    circle can dip through an edge without flipping a vertex sign). Elements
    touching the circle at a single snapped vertex count as uncut and take
    the side of the remaining vertices.
    """
    tri = np.asarray(tri, float)
    h2 = max(
        float((tri[1] - tri[0]) @ (tri[1] - tri[0])),
        float((tri[2] - tri[1]) @ (tri[2] - tri[1])),
        float((tri[0] - tri[2]) @ (tri[0] - tri[2])),
    )
    if abs(polygon_area(tri)) < geom_tol * h2:
        raise DegenerateTriangle(f"triangle area below {geom_tol} * h^2")
    if interface is None:
        return OMEGA2
    phi, signs = _snapped_signs(tri, interface, geom_tol)
    nonzero = signs[signs != 0]
    if len(nonzero) == 0:
        raise DegenerateTriangle("all vertices snapped onto the interface")
    if nonzero.min() < 0 < nonzero.max():
        return INTERFACE
    for i in range(3):
        if interface.edge_roots(tri[i], tri[(i + 1) % 3], geom_tol):
            # Same-signed vertices but the circle enters through an edge.
            return INTERFACE
    return OMEGA1 if nonzero.max() < 0 else OMEGA2


def compute_cut(
    tri,
    interface: CircleInterface,
    element_id: int = -1,
    depth: int = 6,
    geom_tol: float = GEOM_TOL,
) -> ElementCut:
    """Compute the chord split of an interface element.

    Requires the interface to cross exactly two edges, once each; anything
    else raises MultipleCrossings (mesh too coarse for the curvature).
    """
    tri = np.asarray(tri, float)
    if polygon_area(tri) < 0.0:
        tri = tri[::-1]
    crossings = []  # (edge index, parameter, point)
    for i in range(3):
        p, q = tri[i], tri[(i + 1) % 3]
        roots = interface.edge_roots(p, q, geom_tol)
        if len(roots) > 1:
            raise MultipleCrossings(
                f"interface crosses edge {i} of element {element_id} twice; refine the mesh"
            )
        for t in roots:
            crossings.append((i, t, p + t * (q - p)))
    if len(crossings) != 2:
        raise MultipleCrossings(
            f"interface cuts {len(crossings)} edges of element {element_id}; expected 2"
        )
    (ed, td, pd), (ee, te, pe) = crossings
    chord = pe - pd
    clen = float(np.linalg.norm(chord))
    if clen <= geom_tol:
        raise MultipleCrossings(f"degenerate chord on element {element_id}")
    # Normal of the chord oriented from Omega1 into Omega2.
    n = np.array([chord[1], -chord[0]]) / clen
    mid = 0.5 * (pd + pe)
    if float(n @ interface.gradient(mid[0], mid[1])) < 0.0:
        n = -n

    # Walk the boundary, inserting the cut points, then split at them.
    walk: list[tuple[np.ndarray, bool]] = []  # (point, is_cut_point)
    for i in range(3):
        walk.append((tri[i], False))
        for e, t, pt in crossings:
            if e == i:
                walk.append((pt, True))
    cut_pos = [i for i, (_, is_cut) in enumerate(walk) if is_cut]
    a, b = cut_pos
    chain1 = [walk[i][0] for i in range(a, b + 1)]  # first cut ... second cut
    chain2 = [walk[i][0] for i in range(b, len(walk))] + [walk[i][0] for i in range(0, a + 1)]
    polys = []
    for chain in (chain1, chain2):
        arr = np.array(chain)
        interior = arr[1:-1]
        side_val = interface.value(interior[:, 0], interior[:, 1])
        side = OMEGA1 if float(np.max(side_val)) < 0.0 else OMEGA2
        polys.append((side, arr))
    (s_a, poly_a), (s_b, poly_b) = polys
    if s_a == s_b:
        raise MultipleCrossings(f"could not separate the two sides of element {element_id}")
    poly1 = poly_a if s_a == OMEGA1 else poly_b
    poly2 = poly_b if s_a == OMEGA1 else poly_a
    return ElementCut(
        element_id=element_id,
        triangle=tri,
        interface=interface,
        point_d=pd,
        point_e=pe,
        edge_d=ed,
        edge_e=ee,
        param_d=td,
        param_e=te,
        normal=n,
        poly1=poly1,
        poly2=poly2,
        depth=depth,
    )


def arc_polyline(interface: CircleInterface, a, b, depth: int) -> np.ndarray:
    """Points on the near arc from a to b: 2**depth chords, endpoints included.

    Each refinement level replaces a chord by two chords through the arc
    midpoint of the chord's endpoints. On a circle, projecting a chord
    midpoint is exactly angular bisection, so the recursion collapses to a
    uniform angular sweep along the minor arc (computed vectorized here).
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = np.asarray(interface.center, float)
    th_a = math.atan2(a[1] - c[1], a[0] - c[0])
    th_b = math.atan2(b[1] - c[1], b[0] - c[0])
    dth = math.remainder(th_b - th_a, 2.0 * math.pi)
    th = th_a + dth * np.linspace(0.0, 1.0, 2**depth + 1)
    pts = c + interface.radius * np.column_stack([np.cos(th), np.sin(th)])
    pts[0] = a
    pts[-1] = b
    return pts


def subregion_polygon(cut: ElementCut, side: int, depth: int) -> np.ndarray:
    """Vertex list of the side polygon with the chord replaced by the arc polyline."""
    poly = cut.poly1 if side == OMEGA1 else cut.poly2
    if depth <= 0:
        return poly
    # poly starts at one chord endpoint and ends at the other; the closing
    # edge (last -> first) is the chord. Insert the interior arc points there.
    arc = arc_polyline(cut.interface, poly[-1], poly[0], depth)
    return np.vstack([poly, arc[1:-1]])


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
    return polygon_rule(subregion_polygon(cut, side, depth), degree)


def edge_split_parameters(p0, p1, interface: CircleInterface | None, geom_tol: float = GEOM_TOL):
    """Sorted interior parameters where the interface crosses segment p0 -> p1."""
    if interface is None:
        return []
    return sorted(interface.edge_roots(p0, p1, geom_tol))


def quadrature_on_edge(
    p0, p1, degree: int, interface: CircleInterface | None = None
) -> QuadratureRule:
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
    breaks = [0.0] + edge_split_parameters(p0, p1, interface) + [1.0]
    n = max(1, (degree + 2) // 2)
    x, w = _gauss_legendre(n)
    pieces = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        t = 0.5 * (a + b) + 0.5 * (b - a) * x
        pts = p0 + np.outer(t, p1 - p0)
        pieces.append(QuadratureRule(pts, 0.5 * (b - a) * length * w, degree))
    return QuadratureRule.concatenate(pieces)
