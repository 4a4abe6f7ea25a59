"""Global DOF management and assembly of the coupled CG / immersed WG system.

Unknowns: Lagrange P_k node values on non-interface elements, m_k interior
coefficients per interface element, and k Legendre trace coefficients per
edge of the interface band that is neither slaved nor on the boundary. On a
coupling edge the trace is slaved to the projection of the neighboring CG
trace; on boundary edges both CG nodes and WG traces are pinned to the
Dirichlet data. One scatter adds every element's dense block at its global
columns, an interface block K_e as R^T K_e R with its route R to the local
slots, so slaving folds congruently and the reduced matrix stays SPD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from iwgfem.geometry import INTERFACE, OMEGA1, OMEGA2, _triangle_rule_reference
from iwgfem.ife import (
    CutGeometry,
    IfeSpaces,
    build_cut_geometry,
    _legendre_values,
    _tr,
    build_local_spaces,
    project_qb,
    sample,
)
from iwgfem.mesh import EDGE_COUPLING, EDGE_WG_INTERIOR, MeshPartition


class AssemblyError(Exception):
    pass


class InconsistentConstraint(AssemblyError):
    """A DOF is simultaneously slaved and pinned with conflicting values."""


class Band(NamedTuple):
    columns: np.ndarray  # sorted free columns of the interface band
    blocks: list  # (interface element id, its sorted free columns), ascending ids


TRACE_NONE = -1
TRACE_SLAVED = -2

# Mesh cells per side of a CG coarse aggregate, H / h (LevelPlan.aggregates).
# CG iterations and solve time of the seven contrast-sweep pairs, example 1,
# best of 2-3 in-process runs on 2 vCPUs, for H = 4h / 2h / h:
#   k = 2, N = 16:    673 /   451 / 267,  0.055 / 0.043 / 0.036 s
#   k = 2, N = 32:    878 /   508 / 314,  0.133 / 0.095 / 0.091 s
#   k = 1, N = 64:    422 /   278 /  97,  0.075 / 0.073 / 0.087 s
#   k = 2, N = 64:    912 /   575 / 355,  0.353 / 0.272 / 0.303 s
#   k = 2, N = 128: 1,045 /   613 / 390,  1.198 / 0.912 / 1.216 s
# From N = 64 on, H = h's larger coarse solve costs more than its fewer
# iterations save. Without the coarse level CG took 788 iterations (0.042 s)
# at N = 16 and 1,589 (0.163 s) at N = 32, k = 2. N = 64, k = 2 is the
# benchmark's sweep_k2_cg (BENCH_coarse_aggregates.json).
AGGREGATE_CELLS = 2


@dataclass(eq=False)
class DofMap:
    """Column layout: free unknowns first, Dirichlet-pinned columns after.

    node_col[n] is the column of node n (vertex id, or n_vertices + edge id
    for k = 2 midpoints), -1 if the node carries no CG unknown. The m
    interior columns of interface element ``elements[i]`` (ascending ids, the
    mesh's cut table order) start at wg0 + m i. trace_col[e] is the first of
    k columns for edge e's trace block, TRACE_SLAVED on coupling edges.

    Interface element ``elements[i]`` reads its local slots [v0; vb on local
    edges 0, 1, 2] as routes[i] @ x[columns[i]], x holding all columns, pinned
    ones included; its columns are its interior ones, then k + 1 per local
    edge. Interior and owned (free or pinned) trace slots are identity rows, an
    owned edge's (k+1)-th column repeating its first at zero weight; a slaved
    edge's k x (k+1) block projects the CG trace at its nodes onto its Legendre basis.
    """

    k: int
    m: int
    n_free: int
    n_total: int
    node_col: np.ndarray
    elements: np.ndarray  # (n_cut,) interface element ids, ascending
    wg0: int  # first interior column
    trace_col: np.ndarray
    pinned_nodes: np.ndarray  # node ids in pinned column order
    pinned_trace_edges: np.ndarray  # edge ids of pinned trace blocks, in order
    node_coords: np.ndarray  # (n_nodes, 2) coordinates of every CG node
    columns: np.ndarray = None  # (n_cut, m + 3(k+1)) int32, see _element_routes
    routes: np.ndarray = None  # (n_cut, m + 3k, m + 3(k+1))

    @cached_property
    def band(self) -> Band:
        """The interface band that CG's preconditioner solves exactly.

        An interface element's columns are the free ones of its ``columns``:
        its interior and owned trace columns and the free CG nodes of its
        slaved edges. The band holds their sorted union and, for each element
        id, its own sorted columns.
        """
        nf = self.n_free
        owner, slot = np.nonzero(self.columns < nf)
        owner, cols = np.divmod(np.unique(owner * nf + self.columns[owner, slot]), nf)
        own = np.split(cols, np.cumsum(np.bincount(owner, minlength=len(self.elements)))[:-1])
        return Band(np.unique(cols), list(zip(self.elements.tolist(), own)))


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
    wg0 = free
    free += m * len(mesh.cuts)

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
        elements=mesh.cuts.elements,
        wg0=wg0,
        trace_col=trace_col,
        pinned_nodes=pinned_nodes,
        pinned_trace_edges=boundary_wg,
        node_coords=node_coords,
    )
    dofmap.columns, dofmap.routes = _element_routes(mesh, dofmap)
    return dofmap


def _element_routes(mesh: MeshPartition, dofmap: DofMap) -> tuple[np.ndarray, np.ndarray]:
    """The columns and routes of ``dofmap`` (see DofMap), built for all interface elements at once."""
    k, m, elems = dofmap.k, dofmap.m, dofmap.elements
    edges = mesh.tri_edges[elems]  # (n_cut, 3)
    tc = dofmap.trace_col[edges]
    if np.any(tc == TRACE_NONE):
        i, j = np.argwhere(tc == TRACE_NONE)[0]
        raise InconsistentConstraint(
            f"edge {edges[i, j]} of interface element {elems[i]} has no trace dofs"
        )

    columns = np.empty((len(elems), m + 3 * (k + 1)), np.int32)
    columns[:, :m] = dofmap.wg0 + np.arange(len(elems) * m).reshape(-1, m)
    edge_cols = columns[:, m:].reshape(len(elems), 3, k + 1)
    edge_routes = np.zeros(edge_cols.shape[:2] + (k, k + 1))
    owned = tc >= 0
    edge_cols[owned] = tc[owned][:, None] + np.arange(k + 1) % k
    edge_routes[owned] = np.eye(k, k + 1)

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
    edge_cols[slaved] = node_cols
    edge_routes[slaved] = np.sqrt(ell)[:, None, None] * unit
    routes = np.zeros((len(elems), m + 3 * k, columns.shape[1]))
    routes[:, :m, :m] = np.eye(m)
    edge = np.arange(3)[:, None, None]  # local edge j's slots m + jk + (0..k-1), columns m + j(k+1) + (0..k)
    routes[:, m + k * edge + np.arange(k)[:, None], m + (k + 1) * edge + np.arange(k + 1)] = edge_routes
    return columns, routes


@dataclass(eq=False)
class WgBlocks:
    """Stacked interface blocks, one per element in ascending id order."""

    elements: np.ndarray  # element ids
    stiffness: np.ndarray  # (n_cut, m + 3k, m + 3k)
    load: np.ndarray  # (n_cut, m), the interior loads


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


@dataclass(eq=False)
class LevelPlan:
    """The pair-independent part of a level solve, shared by every coefficient pair.

    Built once per (mesh, k, source, quad_offset): the cut geometry, the DOF
    map with its routes, the source's loads (CG element loads and the cut cells'
    monomial moments, so a pair's interface load is coeffs^T moments), one
    unit CG stiffness block per orientation class, and the non-interface
    error rule. Nothing in it is per quadrature point or per element matrix:
    the error points are rebuilt per error pass from each side's v0 and J.
    """

    mesh: MeshPartition
    k: int
    geometry: CutGeometry
    dofmap: DofMap
    elements: np.ndarray  # (ne,) non-interface element ids
    nodes: np.ndarray  # (ne, nl) their node ids
    cls: np.ndarray  # (ne,) orientation class of each element
    dets: np.ndarray  # (ne,) |det J|
    blocks: np.ndarray  # (n_cls, nl, nl) unit stiffness block per class
    load: np.ndarray  # (ne, nl) CG element loads (f, psi_i)_T
    moments: np.ndarray  # (n_cut, 2m) monomial moments of f on the cut sides
    err_ref: np.ndarray  # (nq, 2) error rule on the reference triangle
    err_weights: np.ndarray  # (nq,)
    err_shapes: np.ndarray  # (nq, nl)
    err_grads: np.ndarray  # (n_cls, nq, nl, 2) physical shape gradients per class
    sides: dict  # side -> (indices into elements, v0 (ne_s, 2), J (ne_s, 2, 2))

    @cached_property
    def aggregates(self) -> tuple[np.ndarray, int]:
        """The coarse aggregate of every free column, and the number of aggregates.

        A CG node column lies at its node, an element's interior columns at
        its centroid and an edge's trace columns at its midpoint. Its
        aggregate is the cell of a C x C grid, C = max(1, N / 2) (H = 2h,
        ``AGGREGATE_CELLS``), that holds the location, split by the side of
        the interface; only non-empty aggregates are numbered. Built on first
        use, by CG only.
        """
        mesh, dm = self.mesh, self.dofmap
        loc = np.empty((dm.n_free, 2))
        nodes = np.flatnonzero((dm.node_col >= 0) & (dm.node_col < dm.n_free))
        loc[dm.node_col[nodes]] = dm.node_coords[nodes]
        interior = dm.wg0 + np.arange(len(dm.elements) * dm.m).reshape(-1, dm.m)
        loc[interior] = mesh.vertices[mesh.triangles[dm.elements]].mean(axis=1)[:, None]
        edges = np.flatnonzero((dm.trace_col >= 0) & (dm.trace_col < dm.n_free))
        loc[dm.trace_col[edges][:, None] + np.arange(dm.k)] = mesh.vertices[mesh.edges[edges]].mean(axis=1)[:, None]

        c = max(1, mesh.n_cells // AGGREGATE_CELLS)
        cell = np.clip(np.floor((loc + 1.0) * (c / 2.0)).astype(np.int64), 0, c - 1)
        inside = np.zeros(dm.n_free, np.int64)
        if mesh.interface is not None:
            inside = (mesh.interface.value(loc[:, 0], loc[:, 1]) < 0.0).astype(np.int64)
        keys, agg = np.unique((cell[:, 1] * c + cell[:, 0]) * 2 + inside, return_inverse=True)
        return agg, len(keys)


def coarse_basis(plan: LevelPlan, spaces: IfeSpaces) -> sp.csr_matrix:
    """Z (n_free, n_aggregates): the free coefficients of u = 1, split over the aggregates.

    A constant satisfies both jump conditions, so its coefficients are 1 on
    the CG nodes, the Q_0 projection of 1 on every interface element's
    interior columns and the Q_b projection of 1 (sqrt(length) on P_0, 0 on
    the higher Legendre terms) on the free traces. Each row of Z holds its
    column's coefficient in the column of its aggregate (``LevelPlan.aggregates``).
    """
    dm = plan.dofmap
    agg, n_agg = plan.aggregates
    values = np.ones(dm.n_free)
    if len(dm.elements):
        interior = spaces.project_interior(np.ones(len(spaces.geometry.rule_weights)))
        values[dm.wg0 : dm.wg0 + interior.size] = interior.ravel()
    edges = np.flatnonzero((dm.trace_col >= 0) & (dm.trace_col < dm.n_free))
    a, b = plan.mesh.edges[edges].T
    traces = np.zeros((len(edges), dm.k))
    traces[:, 0] = np.sqrt(np.linalg.norm(plan.mesh.vertices[b] - plan.mesh.vertices[a], axis=1))
    values[dm.trace_col[edges][:, None] + np.arange(dm.k)] = traces
    z = sp.csr_matrix((values, agg, np.arange(dm.n_free + 1)), shape=(dm.n_free, n_agg))
    z.eliminate_zeros()
    return z


def build_level_plan(
    mesh: MeshPartition, k: int, f, quad_offset: int = 0, geometries: CutGeometry | None = None
) -> LevelPlan:
    """The LevelPlan of a mesh for degree k and source f; f is sampled twice."""
    if geometries is None:
        geometries = build_cut_geometries(mesh, k, quad_offset)
    dofmap = build_dof_map(mesh, k)
    ids = np.flatnonzero(mesh.element_class != INTERFACE)
    nl = 3 if k == 1 else 6
    v0, j_mats = _element_jacobians(mesh, ids)
    dets = np.abs(j_mats[:, 0, 0] * j_mats[:, 1, 1] - j_mats[:, 0, 1] * j_mats[:, 1, 0])
    classes = _orientation_classes(j_mats)
    cls = np.empty(len(ids), np.int64)
    for c, sel in enumerate(classes):
        cls[sel] = c
    # Rows of J are the edge vectors, so dx/dxi = J^T and physical gradients
    # are inv(J)^T applied to reference gradients; one J leads each class.
    jinv_t = [np.linalg.inv(j_mats[sel[0]]).T for sel in classes]

    def class_grads(ref):  # (n_cls, nq, nl, 2)
        grads_ref = _cg_shape_grads(k, ref)
        return np.array([grads_ref @ t for t in jinv_t]).reshape(len(classes), len(ref), nl, 2)

    ref_s, w_s = _triangle_rule_reference(2 * k + quad_offset)
    blocks = np.array(
        [np.einsum("nid,n,njd->ij", g, w_s * dets[sel[0]], g) for g, sel in zip(class_grads(ref_s), classes)]
    ).reshape(len(classes), nl, nl)

    ref_l, w_l = _triangle_rule_reference(2 * k + 2 + quad_offset)
    pts = v0[:, None, :] + ref_l[None, :, :] @ j_mats  # (ne, n, 2)
    fv = np.asarray(f(pts[..., 0].ravel(), pts[..., 1].ravel()), float).reshape(pts.shape[:2])
    load = np.einsum("en,n,nj->ej", fv, w_l, _cg_shape_values(k, ref_l)) * dets[:, None]
    del pts, fv

    ref_e, w_e = _triangle_rule_reference(2 * k + 4 + quad_offset)
    sides = {}
    for side in (OMEGA1, OMEGA2):
        sel = np.flatnonzero(mesh.element_class[ids] == side)
        sides[side] = (sel, v0[sel], j_mats[sel])
    moments = geometries.monomial_moments(sample(f, geometries.rule_points))
    return LevelPlan(
        mesh, k, geometries, dofmap, ids, element_node_table(mesh, k)[ids], cls, dets,
        blocks, load, moments, ref_e, w_e, _cg_shape_values(k, ref_e), class_grads(ref_e), sides,
    )


def assemble_noninterface(plan: LevelPlan, coeff) -> np.ndarray:
    """Stiffness blocks (A grad u, grad v)_T of the non-interface elements, (ne, nl, nl).

    coeff maps a side (OMEGA1/OMEGA2) to its conductivity; each element's
    block is its class's unit block scaled by it. Their loads are the plan's.
    """
    a_vals = np.where(plan.mesh.element_class[plan.elements] == OMEGA1, coeff[OMEGA1], coeff[OMEGA2])
    stiffness = plan.blocks[plan.cls]
    stiffness *= a_vals[:, None, None]
    return stiffness


def build_cut_geometries(mesh: MeshPartition, k: int, quad_offset: int = 0) -> CutGeometry:
    """Pair-independent data of every cut element, shareable across coefficient pairs.

    Stacked in the cut table's ascending element order.
    """
    return build_cut_geometry(mesh.cuts, k, quad_offset)


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


def assemble_interface(spaces: IfeSpaces, moments: np.ndarray) -> WgBlocks:
    """Weak-gradient stiffness + stabilizer blocks and interior-tested loads.

    ``moments`` (n_cut, 2m) are the source's monomial moments on the cut
    sides (``LevelPlan.moments``), so each load is coeffs^T moments.
    """
    return WgBlocks(spaces.elements, spaces.stiffness, spaces.moments(moments))


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


def scatter(columns: np.ndarray, blocks: np.ndarray, n: int) -> sp.csr_matrix:
    """The n x n CSR sum of ``blocks[e]`` at rows and columns ``columns[e]`` (int32: COO keeps no copy)."""
    nl = columns.shape[1]
    r = np.repeat(columns[:, :, None], nl, axis=2)
    c = np.repeat(columns[:, None, :], nl, axis=1)
    return sp.coo_matrix((blocks.ravel(), (r.ravel(), c.ravel())), shape=(n, n)).tocsr()


def apply_constraints(plan: LevelPlan, cg_stiffness: np.ndarray, wg: WgBlocks, g) -> GlobalSystem:
    """Fold slaved traces into CG unknowns, lift Dirichlet data, reduce to SPD form.

    ``cg_stiffness`` holds the blocks of the plan's non-interface elements
    (``assemble_noninterface``). Both kinds enter through one scatter, an
    interface block K_e as R^T K_e R with its route R, so slaving is
    congruent; the sum of the two scatters stores no explicit zeros.
    """
    mesh, dofmap = plan.mesh, plan.dofmap
    n = dofmap.n_total
    if not np.array_equal(wg.elements, dofmap.elements):
        raise AssemblyError("interface blocks do not follow the DOF map's element order")
    r = dofmap.routes
    cg_cols = dofmap.node_col[plan.nodes].astype(np.int32)  # (ne, nl)
    k_all = scatter(dofmap.columns, _tr(r) @ wg.stiffness @ r, n) + scatter(cg_cols, cg_stiffness, n)
    rhs = np.zeros(n)
    rhs[dofmap.columns[:, : dofmap.m]] = wg.load
    np.add.at(rhs, cg_cols.ravel(), plan.load.ravel())

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


def assemble_system(plan: LevelPlan, a1: float, a2: float, g, mode: str = "segment"):
    """The reduced system of one coefficient pair on a level plan, and its spaces.

    The spaces are built on the plan's geometry; both assemblies are folded
    with the Dirichlet data g. Returns (GlobalSystem, IfeSpaces).
    """
    spaces = build_ife_spaces(plan.mesh, plan.k, a1, a2, mode=mode, geometries=plan.geometry)
    cg_stiffness = assemble_noninterface(plan, {OMEGA1: a1, OMEGA2: a2})
    wg = assemble_interface(spaces, plan.moments)
    return apply_constraints(plan, cg_stiffness, wg, g), spaces


def dump_matrix(system: GlobalSystem, path) -> None:
    """Coordinate text format: row col value, one entry per line, row by row."""
    coo = system.matrix.tocsr().tocoo()
    with open(path, "w") as fh:
        fh.write(f"# {coo.shape[0]} x {coo.shape[1]}, {coo.nnz} entries\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")
