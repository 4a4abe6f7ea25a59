"""Per-element immersed finite element spaces and weak-gradient machinery.

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from iwgfem.geometry import (
    OMEGA1,
    OMEGA2,
    CircleInterface,
    ElementCut,
    QuadratureRule,
    quadrature_on_edge,
    quadrature_on_subregion,
)


class IfeError(Exception):
    """Base class for local-space construction failures."""


class RankDeficient(IfeError):
    """Constraint null space does not have the expected dimension."""


class SingularGram(IfeError):
    """A Gram matrix that should be SPD failed to factor."""


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
        pts = np.atleast_2d(np.asarray(pts, float))
        e = self.exponents
        return pts[:, 0:1] ** e[:, 0] * pts[:, 1:2] ** e[:, 1]

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
        """Local-coordinate gradients, shape (n, dim, 2)."""
        vals = self.eval(pts)
        d_x, d_y = self.derivative_matrices()
        return np.stack([vals @ d_x, vals @ d_y], axis=-1)

    def laplacian(self, pts) -> np.ndarray:
        d_x, d_y = self.derivative_matrices()
        return self.eval(pts) @ (d_x @ d_x + d_y @ d_y)


def edge_legendre(p0, p1, k: int):
    """Orthonormal Legendre basis of P_{k-1} on the segment p0 -> p1.

    Returns a callable mapping physical points on the segment to an (n, k)
    value matrix; orthonormality is with respect to the arc-length measure.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    d = p1 - p0
    ell = float(np.linalg.norm(d))
    d2 = float(d @ d)

    def values(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        t = ((pts - p0) @ d) / d2  # parameter in [0, 1]
        xi = 2.0 * t - 1.0
        cols = []
        for i in range(k):
            # P_i scaled to unit arc-length norm on the edge.
            pi = np.polynomial.legendre.legval(xi, [0.0] * i + [1.0])
            cols.append(pi * math.sqrt((2 * i + 1) / ell))
        return np.column_stack(cols)

    return values


def project_qb(g, p0, p1, k: int, interface: CircleInterface | None = None, degree: int | None = None):
    """L2 projection of g onto P_{k-1} of the edge, as Legendre coefficients."""
    if degree is None:
        degree = 2 * k + 4
    rule = quadrature_on_edge(p0, p1, degree, interface)
    leg = edge_legendre(p0, p1, k)(rule.points)
    vals = np.asarray(g(rule.points[:, 0], rule.points[:, 1]), float)
    return leg.T @ (rule.weights * vals)


def _pair_constant_vector(m: int) -> np.ndarray:
    v = np.zeros(2 * m)
    v[0] = 1.0
    v[m] = 1.0
    return v


def build_constraint_system(
    cut: ElementCut, a1: float, a2: float, k: int, mode: str = "segment"
) -> np.ndarray:
    """Constraint matrix whose null space is V_k(T) in pair coefficients.

    Rows (each normalized to unit length): k+1 value-jump conditions, k
    flux-jump conditions and, for k = 2, one Laplacian-jump condition. The
    ``segment`` mode collocates the conditions on the chord D-E (a degree-k
    polynomial vanishing at k+1 points vanishes identically); the ``arc``
    mode integrates them against Legendre test functions along the true arc.
    Columns: side-1 monomial coefficients then side-2.
    """
    if k not in (1, 2):
        raise ValueError("polynomial degree k must be 1 or 2")
    if not (a1 > 0.0 and a2 > 0.0):
        raise ValueError("conductivities must be positive")
    poly = PolyBasis(k)
    m = poly.dim
    x_ref, f_mat, h_ref = _chord_frame(cut)

    def local(pts):
        return (np.atleast_2d(np.asarray(pts, float)) - x_ref) @ f_mat.T

    n_loc = f_mat @ cut.normal  # chord normal in local gradient coordinates

    rows = []
    if mode == "segment":
        d, e = cut.point_d, cut.point_e
        # Value conditions at k+1 points of the chord.
        t = np.linspace(0.0, 1.0, k + 1)
        pts = d + np.outer(t, e - d)
        v = poly.eval(local(pts))
        for r in range(k + 1):
            rows.append(np.concatenate([v[r], -v[r]]))
        # Flux conditions at k interior points, with the fixed chord normal.
        t = (np.arange(k) + 0.5) / k
        pts = d + np.outer(t, e - d)
        gn = poly.grad(local(pts)) @ n_loc
        for r in range(k):
            rows.append(np.concatenate([a1 * gn[r], -a2 * gn[r]]))
        if k == 2:
            lap = poly.laplacian(local(d[None, :]))[0]
            rows.append(np.concatenate([a1 * lap, -a2 * lap]))
    elif mode == "arc":
        circ = cut.interface
        c = np.asarray(circ.center, float)
        th_d = math.atan2(cut.point_d[1] - c[1], cut.point_d[0] - c[0])
        th_e = math.atan2(cut.point_e[1] - c[1], cut.point_e[0] - c[0])
        dth = math.remainder(th_e - th_d, 2.0 * math.pi)  # minor arc
        ng = max(2 * k + 2, 8)
        xg, wg = np.polynomial.legendre.leggauss(ng)
        s = 0.5 * (xg + 1.0)
        th = th_d + s * dth
        npts = np.column_stack([np.cos(th), np.sin(th)])  # exact unit normal
        pts = c + circ.radius * npts
        v = poly.eval(local(pts))
        gn = np.einsum("njd,nd->nj", poly.grad(local(pts)), npts @ f_mat.T)
        for j in range(k + 1):
            test = wg * np.polynomial.legendre.legval(xg, [0.0] * j + [1.0])
            rows.append(np.concatenate([test @ v, -(test @ v)]))
        for j in range(k):
            test = wg * np.polynomial.legendre.legval(xg, [0.0] * j + [1.0])
            rows.append(np.concatenate([a1 * (test @ gn), -a2 * (test @ gn)]))
        if k == 2:
            lap = poly.laplacian(local(cut.point_d[None, :]))[0]
            rows.append(np.concatenate([a1 * lap, -a2 * lap]))
    else:
        raise ValueError(f"unknown constraint mode {mode!r}")

    c_mat = np.array(rows)
    norms = np.linalg.norm(c_mat, axis=1)
    if np.any(norms == 0.0):
        raise RankDeficient("zero constraint row; degenerate cut geometry")
    return c_mat / norms[:, None]


def _chord_frame(cut: ElementCut):
    """Element-local chord frame: origin at the chord midpoint, first axis
    along D-E, second along the chord normal, scaled by 1/h_T.

    Returns (x_ref, f_mat, h_ref) with local = (x - x_ref) @ f_mat.T; the
    physical gradient of a local polynomial is grad_local @ f_mat. Using the
    chord frame makes the segment-mode jump corrections slot-aligned, so the
    interface conditions cancel slot by slot, up to the rounding of the
    stored coefficients.
    """
    h_ref = cut.h
    tangent = (cut.point_e - cut.point_d) / np.linalg.norm(cut.point_e - cut.point_d)
    f_mat = np.vstack([tangent, cut.normal]) / h_ref
    x_ref = 0.5 * (cut.point_d + cut.point_e)
    return x_ref, f_mat, h_ref


def _segment_null_basis(cut: ElementCut, a1: float, a2: float, k: int) -> np.ndarray:
    """Closed-form basis of the chord-constrained pair space, (2m, m).

    In chord coordinates (xi along D-E, eta along the chord normal) the space
    is parametrized explicitly: one side carries a plain polynomial q and the
    other q + r(q), where r collects eta-carrying monomials fixed by the flux
    condition (and the Laplacian condition for k = 2); the value jump
    vanishes on the chord because every correction carries an eta factor.
    The plain side is the sub-region with the larger area, which keeps the
    corrected coefficients (scaled by the conductivity ratio) on the small
    side and the basis conditioning low on sliver cuts. Column 0 is the
    constant pair, since no correction touches the constant monomial.
    """
    from iwgfem.geometry import polygon_area

    poly = PolyBasis(k)
    m = poly.dim
    exps = poly.exponents
    base_is_1 = polygon_area(cut.poly1) >= polygon_area(cut.poly2)
    a_base, a_other = (a1, a2) if base_is_1 else (a2, a1)
    ratio = a_base / a_other - 1.0
    corr = np.zeros((m, m))
    eta2 = None
    for j, (a, b) in enumerate(exps):
        if (a, b) == (0, 2):
            eta2 = j
    for j, (a, b) in enumerate(exps):
        if b == 1:
            # eta * d_eta(q) on the chord is the monomial itself.
            corr[j, j] += ratio
        if k == 2 and (a, b) in ((2, 0), (0, 2)):
            corr[eta2, j] += (a_base - a_other) / a_other  # Laplacian: 2 / (2 a)
    eye = np.eye(m)
    if base_is_1:
        return np.vstack([eye, eye + corr])
    return np.vstack([eye + corr, eye])


@dataclass(eq=False)
class EdgeData:
    """Per-edge precomputation in the canonical (global) edge orientation."""

    start: np.ndarray
    end: np.ndarray
    outward_normal: np.ndarray
    rule: QuadratureRule  # split at the interface root if the edge is cut
    legendre: np.ndarray  # (n, k) orthonormal trace basis at rule points
    trace: np.ndarray  # (k, m) coefficients of Q_b(phi_j |_e)
    normal_moments: np.ndarray  # (m-1, k): <L_i, grad(phi_{q+1}) . n>_e
    normal_moments_weighted: np.ndarray  # (m-1, k): <L_i, A grad(phi_{q+1}) . n>_e


@dataclass(eq=False)
class LocalIfeSpace:
    """Orthonormal immersed basis plus weak-gradient and stabilizer operators."""

    element_id: int
    k: int
    a1: float
    a2: float
    cut: ElementCut
    mode: str
    poly: PolyBasis
    x_ref: np.ndarray
    f_mat: np.ndarray  # local = (x - x_ref) @ f_mat.T; grad_x = grad_loc @ f_mat
    h_ref: float
    coeffs: np.ndarray  # (2m, m): pair coefficients of the basis, constant first
    gram: np.ndarray  # (m, m), identity to roundoff
    gram_cond: float
    ill_conditioned: bool
    constraint_residual: float
    rules: dict  # side -> QuadratureRule (shared with the CutGeometry)
    vander: dict  # side -> (n, m) monomial values at rule points (shared)
    grad_gram: np.ndarray  # (m-1, m-1): gram of {grad phi_2..m}
    grad_gram_weighted: np.ndarray  # with A per side
    edges: list  # 3 EdgeData in local edge order
    weak_grad: np.ndarray  # (m-1, m + 3k), unweighted Riesz map
    weak_grad_weighted: np.ndarray  # (m-1, m + 3k), A-weighted Riesz map
    stiffness: np.ndarray  # (m + 3k, m + 3k)

    @property
    def m(self) -> int:
        return self.poly.dim

    @property
    def n_local(self) -> int:
        return self.m + 3 * self.k

    @property
    def h_t(self) -> float:
        return self.cut.h

    def local_coords(self, pts):
        return (np.atleast_2d(np.asarray(pts, float)) - self.x_ref) @ self.f_mat.T

    def block(self, side: int) -> np.ndarray:
        """(m, m) monomial coefficients of the basis on one side."""
        return self.coeffs[: self.m] if side == OMEGA1 else self.coeffs[self.m :]

    def eval_basis(self, pts, side: int) -> np.ndarray:
        """Basis values at physical points lying on the given side."""
        return self.poly.eval(self.local_coords(pts)) @ self.block(side)

    def eval_basis_grad(self, pts, side: int) -> np.ndarray:
        g = self.poly.grad(self.local_coords(pts)) @ self.f_mat
        return np.einsum("njd,jq->nqd", g, self.block(side))

    def sample(self, f) -> dict:
        """side -> values of a scalar function at that side's rule points."""
        return {
            side: np.asarray(f(rule.points[:, 0], rule.points[:, 1]), float)
            for side, rule in self.rules.items()
        }

    def moments(self, values: dict) -> np.ndarray:
        """(g, phi_j)_T from sampled values of g, through the m x m blocks."""
        out = np.zeros(self.m)
        for side in (OMEGA1, OMEGA2):
            weighted = self.rules[side].weights * values[side]
            out += self.block(side).T @ (self.vander[side].T @ weighted)
        return out

    def values_at_rules(self, v0) -> dict:
        """side -> values of the interior function v0 at that side's rule points."""
        return {side: self.vander[side] @ (self.block(side) @ v0) for side in (OMEGA1, OMEGA2)}

    def trace_dof_slice(self, local_edge: int) -> slice:
        s = self.m + local_edge * self.k
        return slice(s, s + self.k)

    def project_interior(self, f, values: dict | None = None) -> np.ndarray:
        """Q_0 projection of a scalar function onto the interior basis.

        ``values`` may carry ``self.sample(f)`` when the caller needs the
        samples for something else too.
        """
        if values is None:
            values = self.sample(f)
        return np.linalg.solve(self.gram, self.moments(values))

    def project_traces(self, g) -> np.ndarray:
        """Q_b projection of g on each edge; shape (3, k)."""
        out = np.zeros((3, self.k))
        for i, ed in enumerate(self.edges):
            vals = np.asarray(g(ed.rule.points[:, 0], ed.rule.points[:, 1]), float)
            out[i] = ed.legendre.T @ (ed.rule.weights * vals)
        return out

    def energy_seminorm_sq(self, local_dofs) -> float:
        """Unweighted |grad_w v|_T^2 + h_T^{-1} |Q_b v_0 - v_b|_dT^2."""
        loc = np.asarray(local_dofs, float)
        c = self.weak_grad @ loc
        total = float(c @ self.grad_gram @ c)
        v0 = loc[: self.m]
        for i, ed in enumerate(self.edges):
            jump = ed.trace @ v0 - loc[self.trace_dof_slice(i)]
            total += float(jump @ jump) / self.h_t
        return total


@dataclass(eq=False)
class CutGeometry:
    """Pair-independent precomputation for one cut element.

    Everything here depends only on the cut geometry, the degree k and the
    quadrature settings, so it can be shared across conductivity pairs.
    """

    cut: ElementCut
    k: int
    quad_degree: int
    x_ref: np.ndarray
    f_mat: np.ndarray  # (2, 2) frame matrix: local = (x - x_ref) @ f_mat.T
    h_ref: float
    rules: dict
    vander: dict  # side -> (n, m) monomial values at rule points
    mass: dict  # side -> (m, m) monomial mass matrix
    grad_gram: dict  # side -> (m, m) Gram of the monomials' physical gradients
    edges: list  # per local edge: dict of precomputed arrays


def build_cut_geometry(
    cut: ElementCut, k: int, quad_degree: int | None = None, edge_points=None
) -> CutGeometry:
    poly = PolyBasis(k)
    if quad_degree is None:
        quad_degree = 2 * k + 4
    x_ref, f_mat, h_ref = _chord_frame(cut)
    # f_mat = [t; n] / h with t, n orthonormal, so the physical gradient Gram
    # is the sum of the two local-derivative Grams over h^2; each local one is
    # D^T M D, exact because differentiation maps P_k into P_{k-1}, part of P_k.
    d_x, d_y = poly.derivative_matrices()
    rules = {}
    vander = {}
    mass = {}
    grad_gram = {}
    for side in (OMEGA1, OMEGA2):
        rule = quadrature_on_subregion(cut, side, quad_degree)
        rules[side] = rule
        vander[side] = poly.eval((rule.points - x_ref) @ f_mat.T)
        mass[side] = vander[side].T @ (rule.weights[:, None] * vander[side])
        grad_gram[side] = (d_x.T @ mass[side] @ d_x + d_y.T @ mass[side] @ d_y) / h_ref**2

    tri = cut.triangle
    edges = []
    for i in range(3):
        p0_loc, p1_loc = tri[i], tri[(i + 1) % 3]
        if edge_points is not None:
            p0 = np.asarray(edge_points[i][0], float)
            p1 = np.asarray(edge_points[i][1], float)
        else:
            p0, p1 = p0_loc, p1_loc
        edge_vec = p1_loc - p0_loc
        n_out = np.array([edge_vec[1], -edge_vec[0]])
        n_out /= np.linalg.norm(n_out)
        rule = quadrature_on_edge(p0, p1, 2 * k + 4, cut.interface)
        leg = edge_legendre(p0, p1, k)(rule.points)
        phi_rule = cut.interface.value(rule.points[:, 0], rule.points[:, 1])
        loc = (rule.points - x_ref) @ f_mat.T
        edges.append(
            {
                "start": p0,
                "end": p1,
                "normal": n_out,
                "rule": rule,
                "legendre": leg,
                "v_all": poly.eval(loc),
                "gn_all": poly.grad(loc) @ (f_mat @ n_out),  # (n, m) normal derivatives
                "side1": phi_rule < 0.0,
            }
        )
    return CutGeometry(
        cut=cut,
        k=k,
        quad_degree=quad_degree,
        x_ref=x_ref,
        f_mat=f_mat,
        h_ref=h_ref,
        rules=rules,
        vander=vander,
        mass=mass,
        grad_gram=grad_gram,
        edges=edges,
    )


def _orthonormal_mixing(inner, basis: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Orthonormalize ``basis`` under ``inner``, putting the normalized ``const`` first.

    The constant is deflated from the columns, the m-1 columns least aligned
    with it are kept, and they are orthonormalized through a Cholesky factor
    of the deflated Gram; triangular mixing keeps the construction
    deterministic. Raises ``scipy.linalg.LinAlgError`` if the deflated Gram
    is not positive definite.
    """
    q1 = const / math.sqrt(inner(const, const))
    align = np.abs(inner(q1, basis))
    seeds = np.delete(np.arange(basis.shape[1]), int(np.argmax(align)))
    proj = basis[:, seeds] - np.outer(q1, inner(q1, basis[:, seeds]))
    chol = scipy.linalg.cholesky(inner(proj, proj), lower=False)
    rest = scipy.linalg.solve_triangular(chol, proj.T, trans="T", lower=False).T
    return np.column_stack([q1, rest])


def construct_ife_basis(
    cut: ElementCut,
    a1: float,
    a2: float,
    k: int,
    mode: str = "segment",
    quad_degree: int | None = None,
    element_id: int | None = None,
    geometry: CutGeometry | None = None,
) -> LocalIfeSpace:
    """Build the full local space for one cut element.

    A precomputed ``geometry`` may be supplied to share quadrature work when
    several conductivity pairs are built on the same mesh; its edges carry
    the global canonical orientation (see build_cut_geometry). Without one,
    the edges take the element-local orientation.
    """
    constraints = build_constraint_system(cut, a1, a2, k, mode)
    poly = PolyBasis(k)
    m = poly.dim
    if geometry is None:
        geometry = build_cut_geometry(cut, k, quad_degree)
    x_ref, h_ref = geometry.x_ref, geometry.h_ref
    m1, m2 = geometry.mass[OMEGA1], geometry.mass[OMEGA2]

    if mode == "segment":
        # Closed-form structured basis in the chord frame: exact dimension,
        # and the chord jumps cancel slot-wise instead of through an
        # entangled SVD basis.
        null = _segment_null_basis(cut, a1, a2, k)
    else:
        null = scipy.linalg.null_space(constraints)
        if null.shape[1] != m:
            raise RankDeficient(
                f"null space dimension {null.shape[1]} != {m} on element {cut.element_id}"
            )

    def pair_mass(u, v):
        return u[:m].T @ m1 @ v[:m] + u[m:].T @ m2 @ v[m:]

    null = null / np.linalg.norm(null, axis=0)
    gram_null = pair_mass(null, null)
    eig = np.linalg.eigvalsh(gram_null)
    gram_cond = float(eig[-1] / max(eig[0], 1e-300))
    ill = gram_cond > COND_MAX
    if ill:
        warnings.warn(
            f"piecewise Gram condition {gram_cond:.2e} exceeds {COND_MAX:.1e} "
            f"on element {cut.element_id}",
            IllConditionedWarning,
        )

    try:
        if mode == "segment":
            # Mix in parameter space, coeffs = null @ R with R from the m x m
            # Gram (column 0 of null is the constant pair). Both sides are
            # then fixed maps of one R, so the jump conditions hold up to the
            # rounding of that last product; mixing the 2m pair rows instead
            # gives each side its own forward error, grown by the Gram
            # condition.
            coeffs = null @ _orthonormal_mixing(
                lambda u, v: u.T @ gram_null @ v, np.eye(m), np.eye(m)[0]
            )
        else:
            coeffs = _orthonormal_mixing(pair_mass, null, _pair_constant_vector(m))
    except scipy.linalg.LinAlgError as exc:
        raise SingularGram(f"deflated Gram not positive on element {cut.element_id}") from exc
    if mode != "segment":
        # Re-project onto the null space: triangular mixing can amplify the
        # SVD null-space residual by the Gram condition. The structured
        # segment basis needs no correction (and would only pick up noise);
        # the constant column satisfies the constraints identically.
        gram_c = constraints @ constraints.T
        for _ in range(2):
            defect = constraints @ coeffs[:, 1:]
            coeffs[:, 1:] -= constraints.T @ np.linalg.solve(gram_c, defect)

    residual = float(np.max(np.abs(constraints @ coeffs)))
    gram = pair_mass(coeffs, coeffs)

    # Gradient Grams of the basis, mapped from the monomial ones.
    full_gram = np.zeros((m, m))
    full_gram_weighted = np.zeros((m, m))
    for side, a_side, block in ((OMEGA1, a1, coeffs[:m]), (OMEGA2, a2, coeffs[m:])):
        gram_side = block.T @ geometry.grad_gram[side] @ block
        full_gram += gram_side
        full_gram_weighted += a_side * gram_side
    grad_gram = full_gram[1:, 1:]
    grad_gram_weighted = full_gram_weighted[1:, 1:]

    # Per-edge data: split quadrature, orthonormal Legendre traces, and the
    # normal moments feeding the weak gradient.
    edges = []
    for eg in geometry.edges:
        side1 = eg["side1"]
        rule = eg["rule"]
        leg = eg["legendre"]
        block = np.where(side1[:, None], eg["v_all"] @ coeffs[:m], eg["v_all"] @ coeffs[m:])
        gn = np.where(side1[:, None], eg["gn_all"] @ coeffs[:m], eg["gn_all"] @ coeffs[m:])
        gn = gn[:, 1:]  # (n, m-1) normal derivatives of the gradient basis
        trace = leg.T @ (rule.weights[:, None] * block)  # (k, m)
        normal_moments = (gn * rule.weights[:, None]).T @ leg  # (m-1, k)
        a_pt = np.where(side1, a1, a2)
        normal_moments_weighted = (gn * (a_pt * rule.weights)[:, None]).T @ leg
        edges.append(
            EdgeData(
                start=eg["start"],
                end=eg["end"],
                outward_normal=eg["normal"],
                rule=rule,
                legendre=leg,
                trace=trace,
                normal_moments=normal_moments,
                normal_moments_weighted=normal_moments_weighted,
            )
        )

    # Weak gradients: Riesz representatives in the gradient space, one per
    # local dof. The unweighted map realizes the plain distributional-gradient
    # functional (used by the energy norm); the A-weighted map realizes the
    # flux functional (A grad v0, q) - <Q_b v0 - vb, A q . n> and is the one
    # the bilinear form must use, otherwise the transmitted interface flux
    # loses an O(1) component whenever A1 != A2.
    n_local = m + 3 * k
    rhs = np.zeros((m - 1, n_local))
    rhs[:, :m] = full_gram[1:, :]
    rhs_w = np.zeros((m - 1, n_local))
    rhs_w[:, :m] = full_gram_weighted[1:, :]
    for i, ed in enumerate(edges):
        rhs[:, :m] -= ed.normal_moments @ ed.trace
        rhs[:, m + i * k : m + (i + 1) * k] = ed.normal_moments
        rhs_w[:, :m] -= ed.normal_moments_weighted @ ed.trace
        rhs_w[:, m + i * k : m + (i + 1) * k] = ed.normal_moments_weighted
    try:
        cho = scipy.linalg.cho_factor(grad_gram)
        cho_w = scipy.linalg.cho_factor(grad_gram_weighted)
    except scipy.linalg.LinAlgError as exc:
        raise SingularGram(f"gradient Gram singular on element {cut.element_id}") from exc
    weak_grad = scipy.linalg.cho_solve(cho, rhs)
    weak_grad_weighted = scipy.linalg.cho_solve(cho_w, rhs_w)

    # The penalty must keep pace with the weighted gradient energy, or the
    # trace ties go slack by a factor max(A)/min(A) under contrast.
    stab = max(a1, a2) / cut.h
    stiffness = weak_grad_weighted.T @ grad_gram_weighted @ weak_grad_weighted
    for i, ed in enumerate(edges):
        s = np.zeros((k, n_local))
        s[:, :m] = ed.trace
        s[:, m + i * k : m + (i + 1) * k] = -np.eye(k)
        stiffness += stab * (s.T @ s)
    stiffness = 0.5 * (stiffness + stiffness.T)

    return LocalIfeSpace(
        element_id=cut.element_id if element_id is None else element_id,
        k=k,
        a1=a1,
        a2=a2,
        cut=cut,
        mode=mode,
        poly=poly,
        x_ref=x_ref,
        f_mat=geometry.f_mat,
        h_ref=h_ref,
        coeffs=coeffs,
        gram=gram,
        gram_cond=gram_cond,
        ill_conditioned=ill,
        constraint_residual=residual,
        rules=geometry.rules,
        vander=geometry.vander,
        grad_gram=grad_gram,
        grad_gram_weighted=grad_gram_weighted,
        edges=edges,
        weak_grad=weak_grad,
        weak_grad_weighted=weak_grad_weighted,
        stiffness=stiffness,
    )


def load_vector(space: LocalIfeSpace, f) -> np.ndarray:
    """Moments (f, phi_j)_T of the source against the interior basis."""
    return space.moments(space.sample(f))


def sample_chord_residuals(space: LocalIfeSpace, n_samples: int = 20):
    """Max jump residuals of every basis function sampled along the chord D-E.

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

    cut = space.cut
    t = np.linspace(0.0, 1.0, n_samples)
    pts = cut.point_d + np.outer(t, cut.point_e - cut.point_d)
    loc = space.local_coords(pts)
    m = space.m
    c1, c2 = exact(space.coeffs[:m]), exact(space.coeffs[m:])
    d_weighted = Fraction(space.a1) * c1 - Fraction(space.a2) * c2

    def worst(op, coeffs) -> float:
        return float(np.max(np.abs(op @ coeffs)))

    val = worst(exact(space.poly.eval(loc)), c1 - c2)
    n_loc = exact(space.f_mat) @ exact(cut.normal)  # chord normal, local coordinates
    flux = worst(exact(space.poly.grad(loc)) @ n_loc, d_weighted)
    if space.k == 1:
        return val, flux, 0.0
    # The frame is orthogonal up to the 1/h scale, so the physical Laplacian
    # is the local one divided by h^2.
    lap = exact(space.poly.laplacian(loc)) / Fraction(space.h_ref) ** 2
    return val, flux, worst(lap, d_weighted)
