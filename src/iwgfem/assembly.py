"""Global DOF management and assembly of the coupled CG / immersed WG system.

Unknowns: Lagrange P_k node values on non-interface elements, m_k interior
coefficients per interface element, and k Legendre trace coefficients per
edge of the interface band that is neither slaved nor on the boundary. On a
coupling edge the trace is slaved to the projection of the neighboring CG
trace; on boundary edges both CG nodes and WG traces are pinned to the
Dirichlet data. One sparse routing matrix P maps the global columns to every
interface element's local slots, so slaving is folded congruently
(P^T K_e P) and the reduced matrix stays symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from iwgfem.geometry import INTERFACE, OMEGA1, OMEGA2, _triangle_rule_reference
from iwgfem.ife import (
    CutGeometry,
    IfeSpaces,
    build_cut_geometry,
    _legendre_values,
    build_local_spaces,
    project_qb,
    sample,
)
from iwgfem.mesh import EDGE_COUPLING, EDGE_WG_INTERIOR, MeshPartition


class AssemblyError(Exception):
    pass


class InconsistentConstraint(AssemblyError):
    """A DOF is simultaneously slaved and pinned with conflicting values."""


TRACE_NONE = -1
TRACE_SLAVED = -2


@dataclass(eq=False)
class DofMap:
    """Column layout: free unknowns first, Dirichlet-pinned columns after.

    node_col[n] is the column of node n (vertex id, or n_vertices + edge id
    for k = 2 midpoints), -1 if the node carries no CG unknown. wg0_col maps
    each interface element, in ascending id order, to the first of its m
    interior columns. trace_col[e] is the first of k columns for edge e's
    trace block, TRACE_SLAVED on coupling edges.

    P is the routing matrix (CSR) from all columns, pinned ones included, to
    the local slots of the interface elements: one block of m + 3k rows
    [v0; vb on local edges 0, 1, 2] per element, in wg0_col order. Interior
    and owned (free or pinned) trace slots are identity rows; a slaved slot
    holds its row of the k x (k+1) projection of the CG trace onto the
    edge's Legendre basis, in the columns of the edge's nodes.
    """

    k: int
    m: int
    n_free: int
    n_total: int
    node_col: np.ndarray
    wg0_col: dict
    trace_col: np.ndarray
    pinned_nodes: np.ndarray  # node ids in pinned column order
    pinned_trace_edges: np.ndarray  # edge ids of pinned trace blocks, in order
    node_coords: np.ndarray  # (n_nodes, 2) coordinates of every CG node
    P: sp.csr_matrix = None  # (n_cut * (m + 3k), n_total), see routing_matrix


def _cg_shape_values(k: int, ref_pts: np.ndarray) -> np.ndarray:
    """P_k Lagrange shape functions at reference-triangle points, (n, nl)."""
    lam0 = 1.0 - ref_pts[:, 0] - ref_pts[:, 1]
    lam1 = ref_pts[:, 0]
    lam2 = ref_pts[:, 1]
    if k == 1:
        return np.column_stack([lam0, lam1, lam2])
    return np.column_stack(
        [
            lam0 * (2 * lam0 - 1),
            lam1 * (2 * lam1 - 1),
            lam2 * (2 * lam2 - 1),
            4 * lam0 * lam1,
            4 * lam1 * lam2,
            4 * lam2 * lam0,
        ]
    )


def _cg_shape_grads(k: int, ref_pts: np.ndarray) -> np.ndarray:
    """Reference-coordinate gradients of the P_k shapes, (n, nl, 2)."""
    n = len(ref_pts)
    lam0 = 1.0 - ref_pts[:, 0] - ref_pts[:, 1]
    lam1 = ref_pts[:, 0]
    lam2 = ref_pts[:, 1]
    g0 = np.array([-1.0, -1.0])
    g1 = np.array([1.0, 0.0])
    g2 = np.array([0.0, 1.0])
    if k == 1:
        out = np.empty((n, 3, 2))
        out[:, 0] = g0
        out[:, 1] = g1
        out[:, 2] = g2
        return out
    out = np.empty((n, 6, 2))
    out[:, 0] = (4 * lam0 - 1)[:, None] * g0
    out[:, 1] = (4 * lam1 - 1)[:, None] * g1
    out[:, 2] = (4 * lam2 - 1)[:, None] * g2
    out[:, 3] = 4 * (lam1[:, None] * g0 + lam0[:, None] * g1)
    out[:, 4] = 4 * (lam2[:, None] * g1 + lam1[:, None] * g2)
    out[:, 5] = 4 * (lam0[:, None] * g2 + lam2[:, None] * g0)
    return out


def element_node_table(mesh: MeshPartition, k: int) -> np.ndarray:
    """(n_triangles, nl) node ids of every element: vertices, then edge midpoints for k = 2."""
    if k == 1:
        return mesh.triangles
    return np.hstack([mesh.triangles, mesh.n_vertices + mesh.tri_edges])


def _edge_lagrange_1d(k: int, t: np.ndarray) -> np.ndarray:
    """1D restrictions of the P_k shapes on an edge, parametrized a -> b."""
    if k == 1:
        return np.column_stack([1.0 - t, t])
    return np.column_stack([(1.0 - t) * (1.0 - 2.0 * t), t * (2.0 * t - 1.0), 4.0 * t * (1.0 - t)])


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


def build_dof_map(mesh: MeshPartition, k: int) -> DofMap:
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    m = (k + 1) * (k + 2) // 2
    nv = mesh.n_vertices
    n_nodes = nv + (mesh.n_edges if k == 2 else 0)

    node_coords = mesh.vertices
    if k == 2:
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        node_coords = np.vstack([mesh.vertices, mids])

    active = np.zeros(n_nodes, dtype=bool)
    active[element_node_table(mesh, k)[mesh.element_class != INTERFACE].ravel()] = True

    bnd_edges = mesh.boundary_edges()
    on_boundary = np.zeros(n_nodes, dtype=bool)
    on_boundary[mesh.edges[bnd_edges].ravel()] = True
    if k == 2:
        on_boundary[nv + bnd_edges] = True

    # Column order: free nodes, interior blocks, free traces, then pinned
    # nodes and pinned traces; each group in ascending id order.
    node_col = np.full(n_nodes, -1, dtype=np.int64)
    free_nodes = np.flatnonzero(active & ~on_boundary)
    node_col[free_nodes] = np.arange(len(free_nodes))
    free = len(free_nodes)
    wg_elems = mesh.interface_elements()
    wg0_col = dict(zip(wg_elems.tolist(), (free + m * np.arange(len(wg_elems))).tolist()))
    free += m * len(wg_elems)

    on_bnd_edge = mesh.edge_tris[:, 1] < 0
    coupling_edges = mesh.edge_class == EDGE_COUPLING
    bad = np.flatnonzero(coupling_edges & on_bnd_edge)
    if len(bad):
        raise InconsistentConstraint(f"coupling edge {bad[0]} on the boundary")
    trace_col = np.full(mesh.n_edges, TRACE_NONE, dtype=np.int64)
    trace_col[coupling_edges] = TRACE_SLAVED
    wg_edges = mesh.edge_class == EDGE_WG_INTERIOR
    interior_wg = np.flatnonzero(wg_edges & ~on_bnd_edge)
    boundary_wg = np.flatnonzero(wg_edges & on_bnd_edge)
    trace_col[interior_wg] = free + k * np.arange(len(interior_wg))
    n_free = free + k * len(interior_wg)

    pinned_nodes = np.flatnonzero(active & on_boundary)
    node_col[pinned_nodes] = n_free + np.arange(len(pinned_nodes))
    col = n_free + len(pinned_nodes)
    trace_col[boundary_wg] = col + k * np.arange(len(boundary_wg))
    col += k * len(boundary_wg)

    dofmap = DofMap(
        k=k,
        m=m,
        n_free=n_free,
        n_total=col,
        node_col=node_col,
        wg0_col=wg0_col,
        trace_col=trace_col,
        pinned_nodes=pinned_nodes,
        pinned_trace_edges=boundary_wg,
        node_coords=node_coords,
    )
    dofmap.P = routing_matrix(mesh, dofmap)
    return dofmap


def routing_matrix(mesh: MeshPartition, dofmap: DofMap) -> sp.csr_matrix:
    """The routing matrix P of ``dofmap`` (see DofMap), built for all slots at once."""
    k, m = dofmap.k, dofmap.m
    elems = np.fromiter(dofmap.wg0_col, np.int64, len(dofmap.wg0_col))
    n_loc = m + 3 * k
    slots = np.arange(len(elems) * n_loc).reshape(len(elems), n_loc)
    trace_slots = slots[:, m:].reshape(len(elems), 3, k)
    edges = mesh.tri_edges[elems]  # (n_cut, 3)
    tc = dofmap.trace_col[edges]
    if np.any(tc == TRACE_NONE):
        i, j = np.argwhere(tc == TRACE_NONE)[0]
        raise InconsistentConstraint(
            f"edge {edges[i, j]} of interface element {elems[i]} has no trace dofs"
        )

    wg0 = np.fromiter(dofmap.wg0_col.values(), np.int64, len(elems))
    owned = tc >= 0
    rows = [slots[:, :m].ravel(), trace_slots[owned].ravel()]
    cols = [(wg0[:, None] + np.arange(m)).ravel(), (tc[owned][:, None] + np.arange(k)).ravel()]

    slaved = tc == TRACE_SLAVED
    e = edges[slaved]
    a, b = mesh.edges[e].T
    nodes = np.column_stack([a, b] if k == 1 else [a, b, mesh.n_vertices + e])
    node_cols = dofmap.node_col[nodes]  # (n_slaved, k + 1)
    bad = np.flatnonzero(np.any(node_cols < 0, axis=1))
    if len(bad):
        t = elems[np.nonzero(slaved)[0][bad[0]]]
        raise InconsistentConstraint(
            f"slaved edge {e[bad[0]]} of interface element {t} touches an inactive CG node"
        )
    # The trace basis scales P_i by sqrt((2i + 1) / ell) and the arc-length
    # weights carry ell, so an edge's projection is sqrt(ell) times the one
    # of a unit edge. The integrands have degree 2k - 1, so k + 1 Gauss
    # points are exact.
    xg, wg = np.polynomial.legendre.leggauss(k + 1)
    tg = 0.5 * (xg + 1.0)
    leg = _legendre_values(2.0 * tg - 1.0, 1.0, k)
    unit = leg.T @ ((0.5 * wg)[:, None] * _edge_lagrange_1d(k, tg))  # (k, k + 1)
    ell = np.linalg.norm(mesh.vertices[b] - mesh.vertices[a], axis=1)
    rows.append(np.repeat(trace_slots[slaved], k + 1))
    cols.append(np.broadcast_to(node_cols[:, None, :], (len(e), k, k + 1)).ravel())
    vals = [np.ones(len(rows[0]) + len(rows[1])), (np.sqrt(ell)[:, None, None] * unit).ravel()]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(slots.size, dofmap.n_total),
    )


@dataclass(eq=False)
class CgContributions:
    """Batched non-interface blocks: shared local matrices per diagonal orientation."""

    elements: np.ndarray  # element ids
    nodes: np.ndarray  # (ne, nl) global node ids
    stiffness: np.ndarray  # (ne, nl, nl)
    load: np.ndarray  # (ne, nl)


@dataclass(eq=False)
class WgBlocks:
    """Stacked interface blocks, one per element in ascending id order."""

    elements: np.ndarray  # element ids
    stiffness: np.ndarray  # (n_cut, m + 3k, m + 3k)
    load: np.ndarray  # (n_cut, m + 3k), zeros on trace slots


def _element_jacobians(mesh: MeshPartition, ids: np.ndarray):
    """First vertices (ne, 2) and Jacobians (ne, 2, 2) whose rows are the edge vectors."""
    v0 = mesh.vertices[mesh.triangles[ids, 0]]
    j_mats = np.stack(
        [
            mesh.vertices[mesh.triangles[ids, 1]] - v0,
            mesh.vertices[mesh.triangles[ids, 2]] - v0,
        ],
        axis=1,
    )
    return v0, j_mats


def _orientation_classes(j_mats: np.ndarray) -> list[np.ndarray]:
    """Index arrays of the elements whose Jacobians agree to 14 decimals.

    Each class is every element whose rounded Jacobian equals that of the
    first element not yet assigned, which leads the class. A uniform mesh has
    a handful of classes, so this is a handful of vectorized passes.
    """
    keys = np.round(j_mats.reshape(len(j_mats), -1), 14)
    left = np.ones(len(keys), dtype=bool)
    classes = []
    while left.any():
        first = int(np.argmax(left))
        same = left & np.all(keys == keys[first], axis=1)
        same[first] = True  # a NaN key matches nothing, not even itself
        left &= ~same
        classes.append(np.flatnonzero(same))
    return classes


def assemble_noninterface(mesh: MeshPartition, k: int, coeff, f, quad_offset: int = 0) -> CgContributions:
    """Stiffness (A grad u, grad v)_T and load (f, v)_T on non-interface elements.

    coeff maps a side (OMEGA1/OMEGA2) to its conductivity. The geometry is
    uniform (two congruent shapes), so reference blocks are built once and
    scaled per element.
    """
    ids = np.flatnonzero(mesh.element_class != INTERFACE)
    nl = 3 if k == 1 else 6
    if len(ids) == 0:
        return CgContributions(ids, np.zeros((0, nl), np.int64), np.zeros((0, nl, nl)), np.zeros((0, nl)))

    stiff_deg = 2 * k + quad_offset
    load_deg = 2 * k + 2 + quad_offset
    ref_s, w_s = _triangle_rule_reference(stiff_deg)
    ref_l, w_l = _triangle_rule_reference(load_deg)
    shapes_l = _cg_shape_values(k, ref_l)

    v0, j_mats = _element_jacobians(mesh, ids)
    dets = j_mats[:, 0, 0] * j_mats[:, 1, 1] - j_mats[:, 0, 1] * j_mats[:, 1, 0]

    # Orientation classes: elements sharing the same Jacobian reuse one block.
    grads_ref = _cg_shape_grads(k, ref_s)
    stiff = np.empty((len(ids), nl, nl))
    for sel in _orientation_classes(j_mats):
        jm = j_mats[sel[0]]
        det = dets[sel[0]]
        # Rows of jm are the edge vectors, so dx/dxi = jm.T and physical
        # gradients are inv(jm).T applied to reference gradients.
        jinv_t = np.linalg.inv(jm).T
        g_phys = grads_ref @ jinv_t  # (n, nl, 2)
        block = np.einsum("nid,n,njd->ij", g_phys, w_s * abs(det), g_phys)
        stiff[sel] = block
    a_vals = np.where(mesh.element_class[ids] == OMEGA1, coeff[OMEGA1], coeff[OMEGA2])
    stiff *= a_vals[:, None, None]

    pts = v0[:, None, :] + ref_l[None, :, :] @ j_mats  # (ne, n, 2)
    fv = np.asarray(f(pts[..., 0].ravel(), pts[..., 1].ravel()), float).reshape(len(ids), -1)
    load = np.einsum("en,n,nj->ej", fv, w_l, shapes_l) * np.abs(dets)[:, None]

    return CgContributions(ids, element_node_table(mesh, k)[ids], stiff, load)


def build_cut_geometries(mesh: MeshPartition, k: int, quad_offset: int = 0) -> CutGeometry:
    """Pair-independent data of every cut element, shareable across coefficient pairs.

    Stacked in ascending element order.
    """
    return build_cut_geometry([mesh.cuts[t] for t in sorted(mesh.cuts)], k, quad_offset)


def build_ife_spaces(
    mesh: MeshPartition,
    k: int,
    a1: float,
    a2: float,
    mode: str = "segment",
    geometries: CutGeometry | None = None,
) -> IfeSpaces:
    """Construct the local immersed space on every interface element, as one batch."""
    if geometries is None:
        geometries = build_cut_geometries(mesh, k)
    return build_local_spaces(geometries, a1, a2, mode)


def assemble_interface(spaces: IfeSpaces, f) -> WgBlocks:
    """Weak-gradient stiffness + stabilizer blocks and interior-tested loads.

    The source is sampled once, on the packed cut-cell rule points.
    """
    load = np.zeros(spaces.stiffness.shape[:2])
    load[:, : spaces.geometry.m] = spaces.moments(sample(f, spaces.geometry.rule_points))
    return WgBlocks(spaces.elements, spaces.stiffness, load)


@dataclass(eq=False)
class GlobalSystem:
    """Reduced SPD system plus the data needed to reconstruct all coefficients."""

    matrix: sp.csr_matrix  # free x free
    rhs: np.ndarray
    dofmap: DofMap
    pinned_values: np.ndarray
    asymmetry: float

    def full_coefficients(self, x_free: np.ndarray) -> np.ndarray:
        return np.concatenate([x_free, self.pinned_values])


def apply_constraints(
    mesh: MeshPartition,
    dofmap: DofMap,
    cg: CgContributions,
    wg: WgBlocks,
    g,
) -> GlobalSystem:
    """Fold slaved traces into CG unknowns, lift Dirichlet data, reduce to SPD form.

    The interface part is P^T blockdiag(K_e) P with the routing matrix P, so
    slaving is congruent; the sparse product and sum store no explicit zeros.
    """
    n = dofmap.n_total
    if not np.array_equal(wg.elements, list(dofmap.wg0_col)):
        raise AssemblyError("interface blocks do not follow the routing matrix's element order")
    p = dofmap.P
    n_cut, n_loc = wg.load.shape
    blocks = sp.bsr_matrix(
        (wg.stiffness, np.arange(n_cut), np.arange(n_cut + 1)), shape=(n_cut * n_loc,) * 2
    )
    k_all = (p.T @ blocks.tocsr() @ p).tocsr()
    rhs = p.T @ wg.load.ravel()

    if len(cg.elements):
        cg_cols = dofmap.node_col[cg.nodes]  # (ne, nl)
        if np.any(cg_cols < 0):
            raise AssemblyError("non-interface element references an inactive node")
        nl = cg_cols.shape[1]
        r = np.repeat(cg_cols[:, :, None], nl, axis=2)
        c = np.repeat(cg_cols[:, None, :], nl, axis=1)
        k_all = k_all + sp.coo_matrix(
            (cg.stiffness.ravel(), (r.ravel(), c.ravel())), shape=(n, n)
        ).tocsr()
        np.add.at(rhs, cg_cols.ravel(), cg.load.ravel())

    pinned = np.zeros(n - dofmap.n_free)
    off = len(dofmap.pinned_nodes)
    pinned[:off] = sample(g, dofmap.node_coords[dofmap.pinned_nodes])
    a, b = mesh.edges[dofmap.pinned_trace_edges].T
    pinned[off:] = project_qb(g, mesh.vertices[a], mesh.vertices[b], dofmap.k, mesh.interface).ravel()

    nf = dofmap.n_free
    k_ff = k_all[:nf, :nf]
    k_fp = k_all[:nf, nf:]
    b = rhs[:nf] - k_fp @ pinned

    asym_mat = (k_ff - k_ff.T).tocoo()
    scale = max(np.abs(k_ff.data).max(), 1e-300) if k_ff.nnz else 1.0
    asym = float(np.abs(asym_mat.data).max() / scale) if asym_mat.nnz else 0.0
    return GlobalSystem(
        matrix=k_ff, rhs=b, dofmap=dofmap, pinned_values=pinned, asymmetry=asym
    )


def assemble_system(
    mesh: MeshPartition,
    k: int,
    a1: float,
    a2: float,
    f,
    g,
    mode: str = "segment",
    quad_offset: int = 0,
    spaces: IfeSpaces | None = None,
    geometries: CutGeometry | None = None,
):
    """Convenience pipeline: dof map, both assemblies, constraint folding.

    ``quad_offset`` raises the degree of every volume rule; without
    ``spaces`` or ``geometries`` the cut geometry is built with it.
    """
    if spaces is None:
        if geometries is None:
            geometries = build_cut_geometries(mesh, k, quad_offset)
        spaces = build_ife_spaces(mesh, k, a1, a2, mode=mode, geometries=geometries)
    dofmap = build_dof_map(mesh, k)
    cg = assemble_noninterface(mesh, k, {OMEGA1: a1, OMEGA2: a2}, f, quad_offset)
    wg = assemble_interface(spaces, f)
    system = apply_constraints(mesh, dofmap, cg, wg, g)
    return system, spaces


def dump_matrix(system: GlobalSystem, path) -> None:
    """Coordinate text format: row col value, one entry per line."""
    coo = system.matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"# {coo.shape[0]} x {coo.shape[1]}, {coo.nnz} entries\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")
