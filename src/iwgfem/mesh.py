"""Uniform triangular meshes of [-1,1]^2 with interface classification.

Level L divides the square into N x N cells, N = 2**(L+1), each split into
two triangles by the diagonal of positive slope, so the mesh size halves
exactly from one level to the next. Construction is deterministic: row-major
vertex numbering, cell-major triangle numbering, lexicographic edge numbering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from iwgfem.geometry import (
    GEOM_TOL,
    INTERFACE,
    OMEGA1,
    OMEGA2,
    CircleInterface,
    ElementCut,
    _cut,
    _element_classes,
    segment_crossings,
)

# Edge classification codes.
EDGE_INTERIOR_NON_WG = 0  # interior, both neighbors non-interface
EDGE_WG_INTERIOR = 1  # both neighbors interface, or interface element's boundary edge
EDGE_COUPLING = 2  # one interface and one non-interface neighbor
EDGE_BOUNDARY = 3  # boundary edge of a non-interface element


@dataclass(eq=False)
class MeshPartition:
    """Classified triangulation of [-1,1]^2.

    vertices: (nv, 2); triangles: (nt, 3) vertex indices, counterclockwise;
    edges: (ne, 2) sorted vertex pairs; edge_tris: (ne, 2) adjacent triangle
    ids, -1 padding for boundary edges; tri_edges: (nt, 3) edge id of local
    edge i (from vertex i to vertex i+1 mod 3).
    """

    level: int
    n_cells: int
    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_tris: np.ndarray
    tri_edges: np.ndarray
    element_class: np.ndarray  # (nt,) INTERFACE / OMEGA1 / OMEGA2
    edge_class: np.ndarray  # (ne,)
    h: float
    cuts: dict[int, ElementCut]
    interface: CircleInterface | None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def triangle_coords(self, t: int) -> np.ndarray:
        return self.vertices[self.triangles[t]]

    def interface_elements(self) -> np.ndarray:
        return np.flatnonzero(self.element_class == INTERFACE)

    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tris[:, 1] < 0)


def build_mesh(
    level: int,
    interface: CircleInterface | None,
    depth: int = 6,
    n_override: int | None = None,
) -> MeshPartition:
    """Build and classify the level-`level` mesh.

    `n_override` replaces the default N = 2**(level+1) cells per side, for
    calibration against externally reported absolute errors. Cuts of all
    interface elements are computed eagerly, so a mesh too coarse for the
    interface curvature fails here with MultipleCrossings.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    n = n_override if n_override is not None else 2 ** (level + 1)
    step = 2.0 / n

    xs = -1.0 + step * np.arange(n + 1)
    vx, vy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([vx.ravel(), vy.ravel()])  # row-major: iy*(n+1)+ix

    # Cell (ix, iy) has lower-left vertex v00; it splits into the triangle
    # below the positive-slope diagonal, (v00, v10, v11), and the one above
    # it, (v00, v11, v01).
    iy, ix = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = iy * (n + 1) + ix
    v11 = v00 + n + 2
    triangles = np.stack(
        [np.column_stack([v00, v00 + 1, v11]), np.column_stack([v00, v11, v00 + n + 1])], axis=1
    ).reshape(2 * n * n, 3)
    nt = len(triangles)

    # Edges are numbered in sorted-pair order. Local edge i of a triangle
    # runs from vertex i to i + 1; each edge's neighbours are listed by
    # ascending triangle id, the stable sort of the local edges by edge id.
    ends = np.sort(np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=2), axis=2)
    keys, inverse = np.unique(ends[..., 0] * len(vertices) + ends[..., 1], return_inverse=True)
    edges = np.column_stack(np.divmod(keys, len(vertices)))
    tri_edges = inverse.reshape(nt, 3)  # the inverse's shape varies between numpy releases
    ne = len(edges)
    by_edge = np.argsort(tri_edges.ravel(), kind="stable") // 3
    counts = np.bincount(tri_edges.ravel(), minlength=ne)
    first = np.cumsum(counts) - counts
    edge_tris = np.full((ne, 2), -1, dtype=np.int64)
    edge_tris[:, 0] = by_edge[first]
    shared = counts == 2
    edge_tris[shared, 1] = by_edge[first[shared] + 1]

    element_class, cuts = _classify(vertices, triangles, edges, tri_edges, interface, depth)

    is_cut = element_class == INTERFACE
    cut0, cut1 = is_cut[edge_tris[:, 0]], is_cut[edge_tris[:, 1]] & shared
    edge_class = np.where(
        cut0 & (cut1 | ~shared),
        EDGE_WG_INTERIOR,
        np.where(cut0 | cut1, EDGE_COUPLING, np.where(shared, EDGE_INTERIOR_NON_WG, EDGE_BOUNDARY)),
    )

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


def _classify(vertices, triangles, edges, tri_edges, interface, depth):
    """Element classes (nt,) and the cuts of the interface elements, by element id.

    A triangle far from the circle takes the side of its first vertex. The
    edges of the triangles near it are solved in one ``segment_crossings``
    call, each from its lower vertex id; the near triangles are classified
    from their vertex signs and that table, and each cut is built from it.
    """
    nt = len(triangles)
    if interface is None:
        return np.full(nt, OMEGA2, dtype=np.int64), {}
    phi = interface.value(vertices[:, 0], vertices[:, 1])
    tphi = phi[triangles]  # (nt, 3)
    element_class = np.where(tphi[:, 0] < 0.0, OMEGA1, OMEGA2).astype(np.int64)

    # An edge-interior crossing without a vertex sign change requires the
    # vertices to be within one edge length of the circle, so widen the band.
    p = vertices[triangles]  # (nt, 3, 2)
    edge_len = np.max(np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2), axis=1)
    r = interface.radius
    dist = np.abs(np.sqrt(np.maximum(tphi + interface.radius_squared, 0.0)) - r)
    near = np.flatnonzero(~np.all(dist > edge_len[:, None] + GEOM_TOL, axis=1))

    crossings = np.full((len(edges), 2), np.nan)
    band = np.unique(tri_edges[near])
    crossings[band] = segment_crossings(vertices[edges[band]], interface)
    element_class[near] = _element_classes(tphi[near], crossings[tri_edges[near]], near)
    cuts = {
        int(t): _cut(p[t], crossings[tri_edges[t]], interface, int(t), depth)
        for t in np.flatnonzero(element_class == INTERFACE)
    }
    return element_class, cuts


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


def dump_mesh(mesh: MeshPartition, path) -> None:
    """Plain-text listing: one record per node, element and edge."""
    class_names = {INTERFACE: "interface", OMEGA1: "omega1", OMEGA2: "omega2"}
    edge_names = {
        EDGE_INTERIOR_NON_WG: "interior",
        EDGE_WG_INTERIOR: "wg_interior",
        EDGE_COUPLING: "coupling",
        EDGE_BOUNDARY: "boundary",
    }
    with open(path, "w") as fh:
        fh.write(f"# mesh level={mesh.level} n={mesh.n_cells} h={mesh.h:.17g}\n")
        for i, (x, y) in enumerate(mesh.vertices):
            fh.write(f"node {i} {x:.17g} {y:.17g}\n")
        for t, tri in enumerate(mesh.triangles):
            fh.write(
                f"element {t} {tri[0]} {tri[1]} {tri[2]} {class_names[int(mesh.element_class[t])]}\n"
            )
        for e, (a, b) in enumerate(mesh.edges):
            fh.write(f"edge {e} {a} {b} {edge_names[int(mesh.edge_class[e])]}\n")
