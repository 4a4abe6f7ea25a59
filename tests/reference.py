"""Independent references the tests check the solver against.

Nothing in ``src/iwgfem`` calls these. They are the straightforward forms of
what the solver computes in batches: the scalar circle-segment root solver,
the loop-built mesh, Gauss rules on segments and triangles, and plain sums
over quadrature rules.
"""

from __future__ import annotations

import math

import numpy as np

from iwgfem.geometry import (
    GEOM_TOL,
    INTERFACE,
    OMEGA1,
    OMEGA2,
    CircleInterface,
    ElementCut,
    GeometryError,
    QuadratureRule,
    _gauss_legendre,
    _triangle_rule_reference,
    classify_element,
    compute_cut,
)
from iwgfem.mesh import (
    EDGE_BOUNDARY,
    EDGE_COUPLING,
    EDGE_INTERIOR_NON_WG,
    EDGE_WG_INTERIOR,
    MeshPartition,
)


def measure(rule: QuadratureRule) -> float:
    """The sum of the weights: the area or length the rule covers."""
    return float(rule.weights.sum())


def integrate(rule: QuadratureRule, f) -> float:
    """The rule applied to a scalar function f(x, y)."""
    vals = f(rule.points[:, 0], rule.points[:, 1])
    return float(rule.weights @ np.asarray(vals, float))


def concatenate(rules: list[QuadratureRule]) -> QuadratureRule:
    """One rule over the union of the rules' disjoint regions."""
    return QuadratureRule(
        points=np.concatenate([r.points for r in rules]),
        weights=np.concatenate([r.weights for r in rules]),
        exactness_degree=min(r.exactness_degree for r in rules),
    )


def chord_length(cut: ElementCut) -> float:
    return float(np.linalg.norm(cut.point_e - cut.point_d))


def triangle_rule(tri, degree: int) -> QuadratureRule:
    """Quadrature rule exact to `degree` on a physical triangle."""
    tri = np.asarray(tri, float)
    ref_pts, ref_w = _triangle_rule_reference(degree)
    j = np.array([tri[1] - tri[0], tri[2] - tri[0]])  # rows are edge vectors
    det = abs(j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0])
    pts = ref_pts @ j + tri[0]
    return QuadratureRule(pts, ref_w * det, degree)


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
        pieces.append(QuadratureRule(pts, 0.5 * (b - a) * length * w, degree))
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
    cuts: dict[int, ElementCut] = {}
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
            cuts[t] = compute_cut(vertices[triangles[t]], interface, t, depth)

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
