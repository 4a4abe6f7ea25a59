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
    classify_element,
    compute_cut,
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
        cls = classify_element(vertices[triangles[t]], interface)
        element_class[t] = cls
        if cls == INTERFACE:
            cuts[t] = compute_cut(vertices[triangles[t]], interface, t, depth)

    edge_class = np.empty(ne, dtype=np.int64)
    for e in range(ne):
        t0, t1 = edge_tris[e]
        if t1 < 0:
            edge_class[e] = (
                EDGE_WG_INTERIOR if element_class[t0] == INTERFACE else EDGE_BOUNDARY
            )
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
    """Cheap vectorized pre-filter: triangles whose vertex signs are not all safely equal."""
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
