"""Immersed finite element spaces and weak-gradient machinery, built per batch.

On a cut element T the local space V_k(T) consists of polynomial pairs
(p1, p2) of degree k constrained by the interface jump conditions: continuity
of the value, continuity of the conductivity-weighted normal flux and, for
k = 2, continuity of the weighted Laplacian. Two constraint realizations are
available:

* ``segment``: conditions imposed identically along the chord D-E with the
  fixed chord normal (the classical linearized construction);
* ``arc``: conditions imposed weakly (moment-wise) along the true circular
  arc with the exact normal, which keeps the geometric consistency error
  below the k = 2 discretization error.

A weak function on T is a coefficient vector [v0 (m slots); vb (k slots per
edge)] over the constructed orthonormal interior basis and per-edge
orthonormal Legendre trace bases.

The work is split in two layers, each stacked over the cut elements of a
level on axis 0 (the stacked-array style of Rahman & Valdman, Appl. Math.
Comput. 219, 2013). ``build_cut_geometry`` computes everything no
conductivity touches: rules, mass matrices, the unscaled constraint rows and
per-side edge moments. ``build_local_spaces`` then builds one pair's spaces
from those stacks with batched ``np.linalg`` calls.

The geometry packs the sub-region rules of all cut elements into one point
array; loads, projections and errors sample a function once on it and reduce
per segment, so the layout of the cut-cell quadrature is known here alone.
Each side's rule is its depth-2 fan rule, with the weights of a deeper cut
fitted to that depth's moments.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from iwgfem.geometry import (
    OMEGA1,
    OMEGA2,
    RULE_DEPTH,
    CircleInterface,
    CutTable,
    GeometryError,
    QuadratureRule,
    _arc_sweep,
    _gauss_legendre,
    canonical_edges,
    legendre_table,
    pack_subregion_rules,
    polygon_area,
    subregion_moments,
)


class IfeError(Exception):
    """Base class for local-space construction failures."""


class RankDeficient(IfeError):
    """Constraint null space does not have the expected dimension."""


class SingularGram(IfeError):
    """A Gram matrix that should be SPD failed to factor or is not finite."""


class IllConditionedWarning(UserWarning):
    """Piecewise Gram condition number exceeded COND_MAX (sliver cut)."""


COND_MAX = 1e12  # piecewise Gram condition above which a space is flagged


def _monomial_exponents(k: int) -> np.ndarray:
    """Exponent pairs of P_k ordered by total degree, constant first."""
    return np.array([(a - b, b) for a in range(k + 1) for b in range(a + 1)], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class PolyBasis:
    """Monomial basis of P_k in element-local coordinates (x - x_T) / h_T."""

    k: int

    @property
    def exponents(self) -> np.ndarray:
        return _monomial_exponents(self.k)

    @property
    def dim(self) -> int:
        return (self.k + 1) * (self.k + 2) // 2

    def eval(self, pts) -> np.ndarray:
        """Values at points of shape (..., 2), shape (..., dim)."""
        pts = np.atleast_2d(np.asarray(pts, float))
        x, y = pts[..., 0:1], pts[..., 1]
        out = np.empty(pts.shape[:-1] + (self.dim,))
        out[..., 0] = 1.0
        # Degree d is degree d - 1 times x, then its last monomial y^(d-1) times y.
        for d in range(1, self.k + 1):
            j = d * (d + 1) // 2
            np.multiply(out[..., j - d : j], x, out=out[..., j : j + d])
            np.multiply(out[..., j - 1], y, out=out[..., j + d])
        return out

    def derivative_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer (dim, dim) D_x, D_y with d/dx (mono @ c) = mono @ (D_x c).

        A partial derivative maps P_k into P_{k-1}, a leading block of the
        basis, so column j holds the derivative of monomial j.
        """
        index = {(int(a), int(b)): j for j, (a, b) in enumerate(self.exponents)}
        d_x = np.zeros((self.dim, self.dim))
        d_y = np.zeros((self.dim, self.dim))
        for (a, b), j in index.items():
            if a > 0:
                d_x[index[(a - 1, b)], j] = a
            if b > 0:
                d_y[index[(a, b - 1)], j] = b
        return d_x, d_y

    def grad(self, pts) -> np.ndarray:
        """Local-coordinate gradients, shape (..., dim, 2)."""
        vals = self.eval(pts)
        d_x, d_y = self.derivative_matrices()
        return np.stack([vals @ d_x, vals @ d_y], axis=-1)

    def laplacian(self, pts) -> np.ndarray:
        d_x, d_y = self.derivative_matrices()
        return self.eval(pts) @ (d_x @ d_x + d_y @ d_y)


def _legendre_values(xi, ell, k: int) -> np.ndarray:
    """Legendre P_0..P_{k-1} at xi in [-1, 1], scaled to unit arc-length norm
    on segments of length ell (broadcast against xi); shape (..., k)."""
    return np.moveaxis(legendre_table(xi, k - 1), 0, -1) * np.sqrt((2 * np.arange(k) + 1) / np.asarray(ell)[..., None])


def sample(f, pts) -> np.ndarray:
    """Values of a scalar function f(x, y) at points of shape (..., 2), in one call."""
    return np.asarray(f(pts[..., 0], pts[..., 1]), float)


def _edge_rules(ends: np.ndarray, crossing: np.ndarray, k: int):
    """Gauss rules on segments ``ends`` (..., 2, 2) cut at the parameters ``crossing`` (...).

    One piece of k + 3 points lies on either side of the crossing (a crossing
    at 1 leaves the second piece zero length and weight), so integrands of
    degree 2k + 4 on each side are exact. Returns the points (..., Q, 2),
    arc-length weights (..., Q) and orthonormal trace basis (..., Q, k),
    Q = 2 (k + 3).
    """
    xe, we = _gauss_legendre(k + 3)
    lo = np.stack([np.zeros_like(crossing), crossing], axis=-1)
    hi = np.stack([crossing, np.ones_like(crossing)], axis=-1)
    t = (0.5 * (lo + hi))[..., None] + (0.5 * (hi - lo))[..., None] * xe
    t = t.reshape(crossing.shape + (2 * len(xe),))
    start = ends[..., 0, :]
    vec = ends[..., 1, :] - start
    length = np.linalg.norm(vec, axis=-1)
    pts = start[..., None, :] + t[..., None] * vec[..., None, :]
    weights = ((0.5 * (hi - lo) * length[..., None])[..., None] * we).reshape(t.shape)
    return pts, weights, _legendre_values(2.0 * t - 1.0, length[..., None], k)


def _tr(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return a.swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class CutPoints:
    """One cut element's sub-region rules."""

    rules: dict  # side -> QuadratureRule, views of the geometry's packed rule


@dataclass(eq=False)
class CutGeometry(Mapping):
    """Pair-independent data of a set of cut elements, stacked on axis 0.

    Everything here depends only on the cuts, the degree k and the
    quadrature, so it is built once per level and shared by every
    conductivity pair. Row i is row i of the cut table ``cuts``; ``row`` finds
    an element's row. As a mapping it takes an element id to that element's
    ``CutPoints``, built on request from views of the packed rule: only the
    benchmark's tracer reads it, the package reads the stacks. Sides are
    indexed 0 (OMEGA1) and 1 (OMEGA2).

    The sub-region rules are packed: ``rule_points``, ``rule_weights`` and
    the columns of ``rule_vander`` hold every element's points, side 1 then
    side 2, and segment 2 i + s spans ``rule_offsets[2i + s]`` to
    ``rule_offsets[2i + s + 1]``. No segment is empty, which the segment
    sums (``np.add.reduceat``) rely on. The Vandermonde is stored by monomial
    so that each segment sum streams one contiguous row. A segment holds the
    fan rule of its side's depth-2 polygon; for a deeper table its weights
    are fitted to the moments of the table's depth (``_fit_moments``), so its
    points may lie across the circle, in the lens between the arc and the
    depth-2 polyline.

    The edge arrays cover each local edge with one Gauss piece on either side
    of the interface crossing, Q = 2 (k + 3) points per edge; an edge the
    interface does not cross has a second piece of zero length and weight.
    """

    k: int
    cuts: CutTable
    x_ref: np.ndarray  # (n, 2) chord midpoints
    f_mat: np.ndarray  # (n, 2, 2) frames: local = (x - x_ref) @ f_mat.T, grad_x = grad_loc @ f_mat
    h_ref: np.ndarray  # (n,) element diameters, the frames' scale
    mass: np.ndarray  # (n, 2, m, m) monomial mass matrix per side
    grad_gram: np.ndarray  # (n, 2, m, m) Gram of the monomials' physical gradients
    base_is_1: np.ndarray  # (n,) side 1 has the larger area (segment basis)
    rule_points: np.ndarray  # (P, 2) packed sub-region rule points
    rule_weights: np.ndarray  # (P,)
    rule_vander: np.ndarray  # (m, P) monomial values at the packed points, a row per monomial
    rule_offsets: np.ndarray  # (2n + 1,) segment bounds
    constraint_rows: dict  # mode -> unscaled value rows (n, k+1, m), normal rows (n, k, m)
    edge_points: np.ndarray  # (n, 3, Q, 2) edge rule points, canonical orientation
    edge_weights: np.ndarray  # (n, 3, Q) edge rule weights (arc length)
    edge_legendre: np.ndarray  # (n, 3, Q, k) orthonormal trace basis at the points
    trace_moments: np.ndarray  # (n, 3, 2, k, m): leg^T W_s V per side s
    normal_moments: np.ndarray  # (n, 3, 2, m, k): G^T W_s leg per side s

    @property
    def elements(self) -> np.ndarray:
        return self.cuts.elements

    @property
    def m(self) -> int:
        return self.mass.shape[-1]

    def row(self, t) -> int:
        """The row of element ``t``; KeyError if it is not cut."""
        i = int(np.searchsorted(self.elements, t))
        if self.elements[i : i + 1].tolist() != [t]:
            raise KeyError(t)
        return i

    def __getitem__(self, t) -> CutPoints:
        i = self.row(t)
        lo, mid, hi = self.rule_offsets[2 * i : 2 * i + 3].tolist()
        pts, w = self.rule_points, self.rule_weights
        rules = {OMEGA1: QuadratureRule(pts[lo:mid], w[lo:mid]), OMEGA2: QuadratureRule(pts[mid:hi], w[mid:hi])}
        return CutPoints(rules)

    def __iter__(self):
        return iter(self.elements.tolist())

    def __len__(self) -> int:
        return len(self.elements)

    def monomial_moments(self, values: np.ndarray) -> np.ndarray:
        """(n, 2m): sum_p w_p g_p V_p over each segment, from g at the packed points."""
        weighted = self.rule_weights * values
        term = np.empty_like(weighted)
        sums = np.empty((2 * len(self.elements), self.m))
        for j, row in enumerate(self.rule_vander):
            np.multiply(row, weighted, out=term)
            sums[:, j] = np.add.reduceat(term, self.rule_offsets[:-1])
        return sums.reshape(len(self.elements), 2 * self.m)

    def monomial_values(self, coeffs: np.ndarray) -> np.ndarray:
        """(P,) values at the packed points of per-side monomial coefficients (n, 2m)."""
        per_segment = coeffs.reshape(2 * len(self.elements), self.m)
        counts = np.diff(self.rule_offsets)
        out = np.zeros(len(self.rule_weights))
        for j, row in enumerate(self.rule_vander):
            term = np.repeat(per_segment[:, j], counts)
            term *= row
            out += term
        return out

    def project_traces(self, values: np.ndarray) -> np.ndarray:
        """(n, 3, k): Q_b projections on every local edge, from g at the edge points."""
        weighted = self.edge_weights * values
        return (_tr(self.edge_legendre) @ weighted[..., None])[..., 0]


# Packed segments processed per batch. It bounds the temporaries: at k = 2 the fit's Vandermonde
# of 64 segments of 125 points takes 2.9 MB, and their contour Legendre planes 3.3 MB at depth 6.
SEGMENT_BATCH = 64


def _segment_batches(offsets: np.ndarray, segs: np.ndarray):
    """Segments ``segs`` of a packed rule in batches of equal size.

    Yields the batch and its point indices (g, size).
    """
    sizes = offsets[segs + 1] - offsets[segs]
    for size in np.unique(sizes).tolist():
        same = segs[sizes == size]
        for start in range(0, len(same), SEGMENT_BATCH):
            batch = same[start : start + SEGMENT_BATCH]
            yield batch, offsets[batch][:, None] + np.arange(size)


def _fit_moments(cuts: CutTable, offsets: np.ndarray, points: np.ndarray, weights: np.ndarray, degree: int) -> None:
    """Correct in place the packed weights of every side of a table deeper than RULE_DEPTH.

    The moment fitting of Mueller, Kummer & Oberlack (IJNME 96, 2013): a
    side's depth-2 fan rule, points x_p and weights W0, gets the weights
    w = W0 + sqrt(W0) Q R^-T r of least weighted change that reproduce the
    moments of its cut-depth region, where sqrt(W0) V = Q R and r is those
    moments minus the fan rule's. V holds the Legendre products P_a P_b,
    a + b <= ``degree``, in the side's principal-axis frame scaled to its
    points, which keeps R far better conditioned than monomials would; the
    moments come exactly from the region's boundary (``subregion_moments``).
    Q is applied from its Householder reflectors and never formed; the
    seminormal form sqrt(W0) V R^-1 R^-T r loses the moments on sliver sides,
    where cond(R) reaches 1e16 at k = 2.
    """
    if cuts.depth <= RULE_DEPTH:
        return
    ex, ey = _monomial_exponents(degree).T
    for batch, idx in _segment_batches(offsets, np.arange(2 * len(cuts))):
        w0, root = weights[idx], np.sqrt(weights[idx])
        origin = (w0[:, None, :] @ points[idx])[:, 0] / w0.sum(axis=1)[:, None]
        rel = points[idx] - origin[:, None]
        axes = _tr(np.linalg.eigh(_tr(rel) @ (w0[..., None] * rel))[1])  # rows: the principal axes
        axes[axes[:, 0, 0] * axes[:, 1, 1] < axes[:, 0, 1] * axes[:, 1, 0], 0] *= -1.0  # det > 0
        xi = axes @ _tr(rel)  # (g, 2, P)
        scale = np.abs(xi).max(axis=-1, keepdims=True)
        axes /= scale
        lx = legendre_table(xi[:, 0] / scale[:, 0], degree, root)
        ly = legendre_table(xi[:, 1] / scale[:, 1], degree)
        planes = np.empty((len(ex),) + root.shape)  # sqrt(W0) V = Q R, a contiguous plane per column
        for d in range(degree + 1):  # the columns of total degree d: P_d P_0, P_d-1 P_1, .., P_0 P_d
            np.multiply(lx[d::-1], ly[: d + 1], out=planes[d * (d + 1) // 2 : (d + 1) * (d + 2) // 2])
        scaled = planes.transpose(1, 2, 0)
        house, tau = np.linalg.qr(scaled, mode="raw")  # R^T is the lower triangle of house[..., :M]
        resid = subregion_moments(cuts, batch, cuts.depth, origin, axes, degree)[:, ex, ey]
        resid -= (root[:, None, :] @ scaled)[:, 0]
        fitted = w0 + root * _apply_q(house, tau, _solve_lower(house[..., : len(ex)], resid))
        bad = np.flatnonzero(~np.isfinite(fitted).all(axis=1))
        if len(bad):
            t, side = cuts.elements[batch[bad[0]] // 2], (OMEGA1, OMEGA2)[batch[bad[0]] % 2]
            raise GeometryError(f"element {t}, side {side}: singular moment fit")
        weights[idx] = fitted


def _solve_lower(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L x = b for the lower triangles L of ``low`` (g, M, M), by forward substitution.

    Row by row, each x_j from a dot product with a contiguous row of L, so no x depends on
    the batch; a zero pivot leaves x non-finite rather than raising or warning.
    """
    x = b.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(x.shape[-1]):
            x[:, j] -= (low[:, j, None, :j] @ x[:, :j, None])[:, 0, 0]
            x[:, j] /= low[:, j, j]
    return x


def _apply_q(house: np.ndarray, tau: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q [y; 0] for the stacked Householder QR factors ``np.linalg.qr(..., mode="raw")`` gives.

    ``house`` (g, M, P) holds each reflector below the diagonal of the
    transposed factor, with an implicit leading 1; Q = H_0 H_1 ... H_M-1.
    Each H_j = I - tau_j v v^T acts in place, the leading 1 of v a term apart.
    """
    g, m, size = house.shape
    out = np.zeros((g, size))
    out[:, :m] = y
    for j in range(m - 1, -1, -1):
        v, rest = house[:, j, j + 1 :], out[:, j + 1 :]
        s = (v[:, None, :] @ rest[:, :, None])[:, 0, 0]
        s += out[:, j]
        s *= tau[:, j]
        out[:, j] -= s
        rest -= s[:, None] * v
    return out


def build_cut_geometry(cuts: CutTable, k: int, quad_offset: int = 0) -> CutGeometry:
    """Pair-independent data of the rows of ``cuts``, stacked.

    The sub-region rules are exact to degree 2k + 4 + ``quad_offset`` on each
    side's polygon at the table's depth: fan rules up to depth 2, fitted
    beyond. Each
    local edge runs from its smaller (y, x) end, the orientation its two
    neighbours share, and its rule splits at the cut's crossing parameter.
    """
    if k not in (1, 2):
        raise ValueError("polynomial degree k must be 1 or 2")
    poly = PolyBasis(k)
    m = poly.dim
    quad_degree = 2 * k + 4 + quad_offset
    n = len(cuts)
    tri, pd, pe, normal = cuts.triangles, cuts.point_d, cuts.point_e, cuts.normal
    circle = cuts.interface or CircleInterface()  # a mesh without an interface has no rows
    center = np.array(circle.center, float)

    # Chord frame: origin at the chord midpoint, first axis along D-E, second
    # along the chord normal, scaled by 1/h_T. It makes the segment-mode jump
    # corrections slot-aligned, so the interface conditions cancel slot by
    # slot, up to the rounding of the stored coefficients.
    edge_vec = np.roll(tri, -1, axis=1) - tri  # local edge i runs from vertex i to i + 1
    h_ref = np.linalg.norm(edge_vec, axis=-1).max(axis=1)
    chord = pe - pd
    tangent = chord / np.linalg.norm(chord, axis=1, keepdims=True)
    f_mat = np.stack([tangent, normal], axis=1) / h_ref[:, None, None]
    x_ref = 0.5 * (pd + pe)

    def local(pts):  # (n, ..., p, 2) physical -> local coordinates
        lead = (n,) + (1,) * (pts.ndim - 3)
        return (pts - x_ref.reshape(lead + (1, 2))) @ _tr(f_mat).reshape(lead + (2, 2))

    # The packed sub-region rules.
    segments, depth = np.arange(2 * n), min(cuts.depth, RULE_DEPTH)
    offsets, rule_points, rule_weights = pack_subregion_rules(cuts, segments, depth, quad_degree)
    _fit_moments(cuts, offsets, rule_points, rule_weights, quad_degree)
    tri_area, quad_area = polygon_area(cuts.tri_side), polygon_area(cuts.quad_side)
    base_is_1 = np.where(cuts.tri_on_1, tri_area >= quad_area, quad_area >= tri_area)

    # The Vandermonde and the mass matrices, in batches of equal segment size.
    rule_vander = np.empty((m, offsets[-1]))
    mass = np.empty((2 * n, m, m))
    for batch, idx in _segment_batches(offsets, np.arange(2 * n)):
        i = batch // 2
        v = poly.eval((rule_points[idx] - x_ref[i, None]) @ _tr(f_mat[i]))
        rule_vander[:, idx] = v.transpose(2, 0, 1)
        mass[batch] = _tr(v) @ (rule_weights[idx][..., None] * v)
    mass = mass.reshape(n, 2, m, m)

    # f_mat = [t; n] / h with t, n orthonormal, so the physical gradient Gram
    # is the sum of the two local-derivative Grams over h^2; each local one is
    # D^T M D, exact because differentiation maps P_k into P_{k-1}, part of P_k.
    d_x, d_y = poly.derivative_matrices()
    grad_gram = (d_x.T @ mass @ d_x + d_y.T @ mass @ d_y) / h_ref[:, None, None, None] ** 2

    # Unscaled constraint rows. Segment: values at k + 1 chord points and
    # derivatives along the fixed chord normal at k chord midpoints (a degree-k
    # polynomial vanishing at k + 1 points vanishes on the chord). Arc:
    # moments against Legendre tests along the true arc, exact normal.
    def on_chord(t):
        return pd[:, None] + t[:, None] * chord[:, None]

    chord_normal = np.einsum("nab,nb->na", f_mat, normal)  # in local gradient coordinates
    segment = (
        poly.eval(local(on_chord(np.linspace(0.0, 1.0, k + 1)))),
        np.einsum("npjd,nd->npj", poly.grad(local(on_chord((np.arange(k) + 0.5) / k))), chord_normal),
    )
    th_d, dth = _arc_sweep(center, pd, pe)
    xg, wg = np.polynomial.legendre.leggauss(max(2 * k + 2, 8))
    th = th_d[:, None] + 0.5 * (xg + 1.0) * dth[:, None]
    unit = np.stack([np.cos(th), np.sin(th)], axis=-1)  # exact unit normal
    arc_loc = local(center + circle.radius * unit)
    tests = np.array([wg * np.polynomial.legendre.legval(xg, [0.0] * j + [1.0]) for j in range(k + 1)])
    arc = (
        tests @ poly.eval(arc_loc),
        tests[:k] @ np.einsum("npjd,npd->npj", poly.grad(arc_loc), unit @ _tr(f_mat)),
    )

    e_pts, e_w, e_leg = _edge_rules(canonical_edges(tri), np.nan_to_num(cuts.crossings, nan=1.0), k)

    # Per-side edge moments: W_s masks the weights to the points on side s.
    phi = ((e_pts - center) ** 2).sum(axis=-1) - circle.radius_squared
    w_side = np.stack([e_w * (phi < 0.0), e_w * (phi >= 0.0)], axis=2)  # (n, 3, 2, Q)
    e_loc = local(e_pts)
    outward = np.stack([edge_vec[..., 1], -edge_vec[..., 0]], axis=-1)
    outward /= np.linalg.norm(outward, axis=-1, keepdims=True)
    grad_n = np.einsum(
        "eiqjd,eid->eiqj", poly.grad(e_loc), np.einsum("ead,eid->eia", f_mat, outward)
    )  # (n, 3, Q, m) monomial normal derivatives
    trace_moments = _tr(e_leg)[:, :, None] @ (w_side[..., None] * poly.eval(e_loc)[:, :, None])
    normal_moments = _tr(grad_n)[:, :, None] @ (w_side[..., None] * e_leg[:, :, None])

    return CutGeometry(
        k=k,
        cuts=cuts,
        x_ref=x_ref,
        f_mat=f_mat,
        h_ref=h_ref,
        mass=mass,
        grad_gram=grad_gram,
        base_is_1=base_is_1,
        rule_points=rule_points,
        rule_weights=rule_weights,
        rule_vander=rule_vander,
        rule_offsets=offsets,
        constraint_rows={"segment": segment, "arc": arc},
        edge_points=e_pts,
        edge_weights=e_w,
        edge_legendre=e_leg,
        trace_moments=trace_moments,
        normal_moments=normal_moments,
    )


class SpaceHealth(NamedTuple):
    """One element's health figures in a pair's spaces."""

    gram_cond: float
    constraint_residual: float
    ill_conditioned: bool


@dataclass(eq=False)
class IfeSpaces(Mapping):
    """One conductivity pair's local spaces on every element of a CutGeometry.

    The arrays are stacked on axis 0 in the geometry's element order, and
    the package reads them only as stacks. As a mapping it takes an element
    id to the ``SpaceHealth`` of its row, the figures the benchmark's tracer
    reads.
    """

    geometry: CutGeometry
    a1: float
    a2: float
    coeffs: np.ndarray  # (n, 2m, m): pair coefficients of the basis, constant first
    gram: np.ndarray  # (n, m, m), identity to roundoff
    gram_cond: np.ndarray  # (n,)
    ill_conditioned: np.ndarray  # (n,)
    constraint_residual: np.ndarray  # (n,)
    grad_gram: np.ndarray  # (n, m-1, m-1): Gram of {grad phi_2..m}
    trace: np.ndarray  # (n, 3, k, m): Q_b of the basis on each local edge
    weak_grad: np.ndarray  # (n, m-1, m + 3k), unweighted Riesz map
    stiffness: np.ndarray  # (n, m + 3k, m + 3k)

    @property
    def elements(self) -> np.ndarray:
        return self.geometry.elements

    def __getitem__(self, t) -> SpaceHealth:
        i = self.geometry.row(t)
        return SpaceHealth(self.gram_cond[i], self.constraint_residual[i], self.ill_conditioned[i])

    def __iter__(self):
        return iter(self.geometry)

    def __len__(self) -> int:
        return len(self.geometry)

    def moments(self, monomial_moments: np.ndarray) -> np.ndarray:
        """(n, m): (g, phi_j)_T on every element, from g's ``CutGeometry.monomial_moments``."""
        return (_tr(self.coeffs) @ monomial_moments[..., None])[..., 0]

    def interior_values(self, v0: np.ndarray) -> np.ndarray:
        """(P,): the interior functions with coefficients v0 (n, m) at the packed rule points."""
        return self.geometry.monomial_values((self.coeffs @ v0[..., None])[..., 0])

    def project_interior(self, values: np.ndarray) -> np.ndarray:
        """(n, m): Q_0 projections of g onto every interior basis, from g at the packed points."""
        moments = self.moments(self.geometry.monomial_moments(values))
        return np.linalg.solve(self.gram, moments[..., None])[..., 0]

    def energy_seminorm_sq(self, local_dofs: np.ndarray) -> np.ndarray:
        """(n,): unweighted |grad_w v|_T^2 + h_T^{-1} |Q_b v_0 - v_b|_dT^2 of every element.

        ``local_dofs`` is (n, m + 3k), laid out as the stiffness blocks.
        """
        m, k = self.geometry.m, self.geometry.k
        c = self.weak_grad @ local_dofs[..., None]
        traces = local_dofs[:, m:].reshape(len(local_dofs), 3, k)
        jumps = (self.trace @ local_dofs[:, None, :m, None])[..., 0] - traces
        return (_tr(c) @ self.grad_gram @ c)[:, 0, 0] + (jumps**2).sum(axis=(1, 2)) / self.geometry.h_ref


def _first_failure(factor, stack: np.ndarray) -> int:
    """Index of the first slice of ``stack`` on which ``factor`` raises."""
    for i in range(len(stack)):
        try:
            factor(stack[i : i + 1])
        except np.linalg.LinAlgError:
            return i
    return 0


def _cholesky(stack: np.ndarray, elements: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factors; SingularGram names the first element that fails."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        bad = _first_failure(np.linalg.cholesky, stack)
        raise SingularGram(f"{what} not positive on element {elements[bad]}") from exc


def _constraint_matrix(geometry: CutGeometry, a1: float, a2: float, mode: str) -> np.ndarray:
    """Stacked constraint matrices whose null spaces are V_k(T), (n, r, 2m).

    Rows [B_v, -B_v; a1 B_n, -a2 B_n; a1 L, -a2 L], each normalized to unit
    length: k+1 value-jump conditions, k flux-jump conditions and, for k = 2,
    the Laplacian-jump condition (the local Laplacian of P_2 is constant).
    Columns: side-1 monomial coefficients, then side-2.
    """
    if mode not in geometry.constraint_rows:
        raise ValueError(f"unknown constraint mode {mode!r}")
    k = geometry.k
    values, normals = geometry.constraint_rows[mode]
    lap = np.broadcast_to(PolyBasis(k).laplacian(np.zeros((k - 1, 2))), (len(values), k - 1, geometry.m))
    # An overflowing contrast leaves rows of inf and NaN; the Gram check in
    # build_local_spaces names the element, so numpy need not warn here.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.concatenate(
            [
                np.concatenate([values, -values], axis=2),
                np.concatenate([a1 * normals, -a2 * normals], axis=2),
                np.concatenate([a1 * lap, -a2 * lap], axis=2),
            ],
            axis=1,
        )
        norms = np.linalg.norm(rows, axis=2)
        zero = np.flatnonzero(np.any(norms == 0.0, axis=1))
        if len(zero):
            raise RankDeficient(
                f"zero constraint row on element {geometry.elements[zero[0]]}; degenerate cut geometry"
            )
        return rows / norms[..., None]


def _null_space(constraints: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Orthonormal null-space bases of stacked full-row-rank matrices.

    The rank cut is that of scipy.linalg.null_space (same gesdd driver):
    singular values above eps * max(shape) * s_max count.
    """
    _, r, p = constraints.shape
    try:
        _, s, vh = np.linalg.svd(constraints)
    except np.linalg.LinAlgError as exc:
        bad = _first_failure(np.linalg.svd, constraints)
        raise RankDeficient(f"constraint SVD did not converge on element {elements[bad]}") from exc
    rank = np.sum(s > s[:, :1] * (np.finfo(float).eps * max(r, p)), axis=1)
    bad = np.flatnonzero(rank != r)
    if len(bad):
        i = bad[0]
        raise RankDeficient(f"null space dimension {p - rank[i]} != {p - r} on element {elements[i]}")
    return _tr(vh[:, r:])


def _segment_null_basis(base_is_1: np.ndarray, a1: float, a2: float, k: int) -> np.ndarray:
    """Closed-form bases of the chord-constrained pair spaces, (n, 2m, m).

    In chord coordinates (xi along D-E, eta along the chord normal) the space
    is parametrized explicitly: one side carries a plain polynomial q and the
    other q + r(q), where r collects eta-carrying monomials fixed by the flux
    condition (and the Laplacian condition for k = 2); the value jump
    vanishes on the chord because every correction carries an eta factor.
    The plain side is the sub-region with the larger area (``base_is_1``),
    which keeps the corrected coefficients (scaled by the conductivity ratio)
    on the small side and the basis conditioning low on sliver cuts. Column 0
    is the constant pair, since no correction touches the constant monomial.
    """
    poly = PolyBasis(k)
    m = poly.dim
    exps = [tuple(e) for e in poly.exponents.tolist()]
    eye = np.eye(m)

    def corrected(a_base, a_other):
        corr = np.zeros((m, m))
        for j, (a, b) in enumerate(exps):
            if b == 1:
                # eta * d_eta(q) on the chord is the monomial itself.
                corr[j, j] += a_base / a_other - 1.0
            if k == 2 and (a, b) in ((2, 0), (0, 2)):
                corr[exps.index((0, 2)), j] += (a_base - a_other) / a_other  # Laplacian: 2 / (2 a)
        return eye + corr

    on_1 = np.vstack([eye, corrected(a1, a2)])
    on_2 = np.vstack([corrected(a2, a1), eye])
    return np.where(np.asarray(base_is_1)[:, None, None], on_1, on_2)


def _orthonormal_mixing(inner, basis, const, elements) -> np.ndarray:
    """Orthonormalize each ``basis`` slice under ``inner``, normalized ``const`` first.

    ``basis`` is (n, p, q) or one (p, q) for all, ``const`` is (p, 1) and
    ``inner(u, v)`` maps stacks to the stacked u^T G v. The constant is
    deflated from the columns, the q - 1 columns least aligned with it are
    kept, and they are orthonormalized through a Cholesky factor of the
    deflated Gram; triangular mixing keeps the construction deterministic.
    Raises SingularGram naming the first element whose deflated Gram is not
    positive definite.
    """
    n = len(elements)
    basis = np.broadcast_to(basis, (n,) + basis.shape[-2:])
    q1 = const / np.sqrt(inner(const, const))
    align = np.abs(inner(q1, basis))[:, 0]
    keep = np.arange(basis.shape[2] - 1)
    keep = keep + (keep >= np.argmax(align, axis=1)[:, None])
    seeds = np.take_along_axis(basis, keep[:, None, :], axis=2)
    proj = seeds - q1 @ inner(q1, seeds)
    low = _cholesky(inner(proj, proj), elements, "deflated Gram")
    rest = _tr(np.linalg.solve(low, _tr(proj)))
    return np.concatenate([np.broadcast_to(q1, (n,) + q1.shape[-2:]), rest], axis=2)


def build_local_spaces(geometry: CutGeometry, a1: float, a2: float, mode: str = "segment") -> IfeSpaces:
    """Every element's local space for the pair (a1, a2), built as one batch."""
    if not (a1 > 0.0 and a2 > 0.0):
        raise ValueError("conductivities must be positive")
    constraints = _constraint_matrix(geometry, a1, a2, mode)
    k, m = geometry.k, geometry.m
    elements = geometry.elements
    m1, m2 = geometry.mass[:, 0], geometry.mass[:, 1]

    def pair_mass(u, v):
        return _tr(u[..., :m, :]) @ m1 @ v[..., :m, :] + _tr(u[..., m:, :]) @ m2 @ v[..., m:, :]

    if mode == "segment":
        # Closed-form structured basis in the chord frame: exact dimension,
        # and the chord jumps cancel slot-wise instead of through an
        # entangled SVD basis.
        null = _segment_null_basis(geometry.base_is_1, a1, a2, k)
    else:
        null = _null_space(constraints, elements)
    with np.errstate(over="ignore", invalid="ignore"):
        null = null / np.linalg.norm(null, axis=1, keepdims=True)
        gram_null = pair_mass(null, null)
    bad = np.flatnonzero(~np.isfinite(gram_null).all(axis=(1, 2)))
    if len(bad):
        # An overflowing contrast (a1 / a2 beyond the float range) leaves the
        # structured basis, and with it the Gram, non-finite.
        raise SingularGram(f"null basis or its Gram not finite on element {elements[bad[0]]}")
    eig = np.linalg.eigvalsh(gram_null)
    gram_cond = eig[:, -1] / np.maximum(eig[:, 0], 1e-300)
    ill = gram_cond > COND_MAX
    if ill.any():  # one warning per call; spaces.ill_conditioned flags each element
        worst = int(np.argmax(gram_cond))
        warnings.warn(
            f"piecewise Gram condition exceeds {COND_MAX:.1e} on {int(ill.sum())} of {len(elements)} "
            f"elements, worst {gram_cond[worst]:.2e} on element {elements[worst]}",
            IllConditionedWarning,
        )

    e0 = np.eye(m)[:, :1]
    if mode == "segment":
        # Mix in parameter space, coeffs = null @ R with R from the m x m
        # Gram (column 0 of null is the constant pair). Both sides are then
        # fixed maps of one R, so the jump conditions hold up to the rounding
        # of that last product; mixing the 2m pair rows instead gives each
        # side its own forward error, grown by the Gram condition.
        coeffs = null @ _orthonormal_mixing(lambda u, v: _tr(u) @ gram_null @ v, np.eye(m), e0, elements)
    else:
        coeffs = _orthonormal_mixing(pair_mass, null, np.vstack([e0, e0]), elements)
        # Re-project onto the null space: triangular mixing can amplify the
        # SVD null-space residual by the Gram condition. The structured
        # segment basis needs no correction (and would only pick up noise);
        # the constant column satisfies the constraints identically.
        gram_c = constraints @ _tr(constraints)
        for _ in range(2):
            defect = constraints @ coeffs[:, :, 1:]
            coeffs[:, :, 1:] -= _tr(constraints) @ np.linalg.solve(gram_c, defect)
    residual = np.max(np.abs(constraints @ coeffs), axis=(1, 2))

    # Gradient Grams of the basis, mapped from the monomial ones.
    c1, c2 = coeffs[:, :m], coeffs[:, m:]
    g1 = _tr(c1) @ geometry.grad_gram[:, 0] @ c1
    g2 = _tr(c2) @ geometry.grad_gram[:, 1] @ c2
    full, full_w = g1 + g2, a1 * g1 + a2 * g2

    # Edge traces T_1 c_1 + T_2 c_2 (k x m) and normal moments c_s^T N_s.
    tm, nm = geometry.trace_moments, geometry.normal_moments
    traces = (tm[:, :, 0] @ c1[:, None] + tm[:, :, 1] @ c2[:, None]).reshape(len(elements), 3 * k, m)
    flux1, flux2 = _tr(c1)[:, None] @ nm[:, :, 0], _tr(c2)[:, None] @ nm[:, :, 1]

    # Weak gradients: Riesz representatives in the gradient space, one per
    # local dof. The unweighted map realizes the plain distributional-gradient
    # functional (used by the energy norm); the A-weighted map realizes the
    # flux functional (A grad v0, q) - <Q_b v0 - vb, A q . n> and is the one
    # the bilinear form must use, otherwise the transmitted interface flux
    # loses an O(1) component whenever A1 != A2.
    def riesz(gram_full, flux):
        # (m-1, 3k): the moments <L_i, grad(phi_{q+1}) . n> of every edge.
        moments = flux[:, :, 1:].transpose(0, 2, 1, 3).reshape(len(elements), m - 1, 3 * k)
        rhs = np.concatenate([gram_full[:, 1:] - moments @ traces, moments], axis=2)
        low = _cholesky(gram_full[:, 1:, 1:], elements, "gradient Gram")
        return np.linalg.solve(_tr(low), np.linalg.solve(low, rhs))

    weak_grad = riesz(full, flux1 + flux2)
    weak_grad_w = riesz(full_w, a1 * flux1 + a2 * flux2)

    # The penalty must keep pace with the weighted gradient energy, or the
    # trace ties go slack by a factor max(A)/min(A) under contrast.
    stab = max(a1, a2) / geometry.h_ref
    ties = np.concatenate([traces, np.broadcast_to(-np.eye(3 * k), traces.shape[:2] + (3 * k,))], axis=2)
    stiffness = _tr(weak_grad_w) @ full_w[:, 1:, 1:] @ weak_grad_w + stab[:, None, None] * (_tr(ties) @ ties)
    stiffness = 0.5 * (stiffness + _tr(stiffness))

    return IfeSpaces(
        geometry=geometry,
        a1=a1,
        a2=a2,
        coeffs=coeffs,
        gram=pair_mass(coeffs, coeffs),
        gram_cond=gram_cond,
        ill_conditioned=ill,
        constraint_residual=residual,
        grad_gram=full[:, 1:, 1:],
        trace=traces.reshape(len(elements), 3, k, m),
        weak_grad=weak_grad,
        stiffness=stiffness,
    )


def sample_chord_residuals(spaces: IfeSpaces, i: int, n_samples: int = 20):
    """Max jump residuals of every basis function of row ``i`` sampled along its chord D-E.

    Returns (value_jump, flux_jump, laplacian_jump) maxima; the Laplacian
    entry is 0.0 for k = 1.

    The monomial samples are float64. The weighted coefficient differences
    a1 c1 - a2 c2 and the sums over the slots are formed in exact rational
    arithmetic and each maximum is rounded once, so the figures measure the
    stored basis and not the rounding of the measurement: in float64 the
    products a c alone round at eps * max(A) * |c|, which on a sliver cut is
    the size of the residual being measured.
    """
    from fractions import Fraction  # a diagnostic: keep it off the CLI import

    def exact(a) -> np.ndarray:
        a = np.asarray(a, float)
        return np.array([Fraction(x) for x in a.ravel().tolist()], dtype=object).reshape(a.shape)

    geometry = spaces.geometry
    cuts, k, m, f_mat = geometry.cuts, geometry.k, geometry.m, geometry.f_mat[i]
    poly = PolyBasis(k)
    t = np.linspace(0.0, 1.0, n_samples)
    pts = cuts.point_d[i] + np.outer(t, cuts.point_e[i] - cuts.point_d[i])
    loc = (pts - geometry.x_ref[i]) @ f_mat.T
    c1, c2 = exact(spaces.coeffs[i, :m]), exact(spaces.coeffs[i, m:])
    d_weighted = Fraction(spaces.a1) * c1 - Fraction(spaces.a2) * c2

    def worst(op, coeffs) -> float:
        return float(np.max(np.abs(op @ coeffs)))

    val = worst(exact(poly.eval(loc)), c1 - c2)
    n_loc = exact(f_mat) @ exact(cuts.normal[i])  # chord normal, local coordinates
    flux = worst(exact(poly.grad(loc)) @ n_loc, d_weighted)
    if k == 1:
        return val, flux, 0.0
    # The frame is orthogonal up to the 1/h scale, so the physical Laplacian
    # is the local one divided by h^2.
    lap = exact(poly.laplacian(loc)) / Fraction(geometry.h_ref[i]) ** 2
    return val, flux, worst(lap, d_weighted)
