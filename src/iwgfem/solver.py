"""Sparse SPD solvers: pivot-free factorization and two-level interface-band preconditioned CG."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(Exception):
    pass


class NotPositiveDefinite(SolverError):
    """A factorization hit a non-positive pivot, the interface band is not SPD, or CG broke down."""


class NoConvergence(SolverError):
    """CG exhausted its iteration budget."""


@dataclass(frozen=True)
class SolveStats:
    method: str
    residual: float  # relative residual certificate ||Kx - b|| / ||b||, may exceed CG_TOL
    iterations: int  # CG iterations, 0 for the direct path
    n: int
    refinements: int = 0  # the direct path's float64 refinement steps on its float32 factor
    fallback: bool = False  # the direct path fell back to a float64 factor


def solve(matrix: sp.spmatrix, rhs: np.ndarray, method: str = "cholesky", band=None, coarse=None, factor=None):
    """Solve an SPD system by ``method``, "cholesky" or "cg"; returns (x, SolveStats) with a residual certificate.

    ``band`` is CG's interface band as ``DofMap.band`` gives it: the columns
    that CG's preconditioner solves exactly, with each interface element's
    own; without it CG is Jacobi-preconditioned.
    ``coarse`` is CG's coarse basis Z (n, n_c), as ``LevelPlan.coarse``
    gives it; with it CG is deflated in the A-DEF2 form. The direct path
    ignores both. It factors ``matrix`` in float32 and refines the solve in
    float64 (``_solve_direct``), falling back to a float64 factor.
    ``factor`` is a future of ``superlu`` on ``matrix`` in CSC form, started
    by the caller in another thread: the direct path joins it and checks its
    pivots here in place of factoring.
    """
    if method not in ("cholesky", "cg"):
        raise ValueError(f"unknown method {method!r}")
    if method == "cholesky":
        a = sp.csc_matrix(matrix)
    else:  # sorted CSR rows sum in ascending column order, as a CSC matvec does
        a = _sorted_csr(matrix)
    b = np.asarray(rhs, float)
    if a.shape[0] != a.shape[1] or a.shape[0] != len(b):
        raise ValueError("matrix/rhs shape mismatch")
    if a.shape[0] == 0:
        return np.zeros(0), SolveStats(method, 0.0, 0, 0)

    iters = refinements = 0
    fallback = False
    if method == "cholesky":
        x, refinements, fallback = _solve_direct(a, b, factor)
    else:
        x, iters = _solve_cg(a, b, band, coarse)

    bnorm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(a @ x - b)) / max(bnorm, 1e-300)
    return x, SolveStats(method, residual, iters, a.shape[0], refinements, fallback)


def _sorted_csr(matrix) -> sp.csr_matrix:
    a = sp.csr_matrix(matrix)
    return a if a.has_sorted_indices else a.sorted_indices()


def superlu(a: sp.csc_matrix, permc_spec: str = "MMD_AT_PLUS_A", dtype=np.float32):
    """SuperLU factorization of a CSC matrix cast to ``dtype``, diagonal pivoting disabled, unchecked.

    The direct path's factor is float32 (``_solve_direct`` refines it in
    float64); ``_factor`` asks for float64 where it falls back and for CG's
    band and coarse factors. This is all the work that may run in a worker
    thread; scipy 1.17's factorization releases the GIL, so that thread runs
    beside the caller. It raises RuntimeError on an exactly zero pivot;
    ``_factor`` checks the signs of the others.
    """
    with np.errstate(over="ignore"):  # an entry beyond float32's range is inf, and the direct path falls back
        a = a.astype(dtype, copy=False)
    return spla.splu(a, diag_pivot_thresh=0.0, permc_spec=permc_spec, options={"SymmetricMode": True})


def _factor(a: sp.spmatrix, pending=None, permc_spec: str = "MMD_AT_PLUS_A", dtype=np.float64):
    """SuperLU factorization of an SPD matrix in ``dtype`` with diagonal pivoting disabled.

    With off-diagonal pivoting suppressed, SuperLU computes P A P^T = L U with
    unit-lower L, which for symmetric input is the LDL^T factorization; all
    U-pivots positive is then equivalent to positive definiteness, and a
    non-positive (or NaN) one raises NotPositiveDefinite. ``pending``, a
    future of ``superlu`` on ``a``, is joined in place of factoring.
    """
    try:
        lu = superlu(sp.csc_matrix(a), permc_spec, dtype) if pending is None else pending.result()
    except RuntimeError as exc:
        raise NotPositiveDefinite(f"factorization failed: {exc}") from exc
    if not np.all(lu.U.diagonal() > 0.0):
        raise NotPositiveDefinite("non-positive pivot in symmetric factorization")
    return lu


# The float64 refinement of the direct path's float32 factor stops at this
# recursive residual relative to ||b||, or falls back after this many steps.
REFINE_TOL = 1e-15
REFINE_MAX_STEPS = 50


def _solve_direct(a: sp.csc_matrix, b: np.ndarray, pending=None):
    """x of K x = b from a float32 factor refined in float64; returns (x, steps, fell_back).

    CG on K in float64, preconditioned by the float32 factor of K, is
    mixed-precision iterative refinement for SPD systems (Carson & Higham,
    SIAM J. Sci. Comput. 40, 2018): each step costs one float32 solve and
    one float64 matvec, and the float32 factor holds half the bytes. If
    the float32 factor fails or shows a non-positive pivot, or the
    refinement meets non-positive curvature or ``REFINE_MAX_STEPS``, K is
    factored again in float64, whose failure alone raises
    NotPositiveDefinite. ``pending`` is a future of ``superlu`` on ``a``.
    """

    def precondition(r):
        # Scaled to unit max norm, so that a small residual does not underflow float32.
        scale = float(np.abs(r).max()) or 1.0
        z = lu.solve((r / scale).astype(np.float32)).astype(np.float64)
        z *= scale
        return z

    try:
        lu = _factor(a, pending, dtype=np.float32)
        x, steps = _pcg(a, b, precondition, REFINE_TOL, REFINE_MAX_STEPS)
        return x, steps, False
    except SolverError:
        lu = None  # freed before the float64 factor
    return _factor(a).solve(b), 0, True


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v summed by numpy's own loop: BLAS ddot's order depends on its thread count."""
    return float(np.einsum("i,i->", u, v))


def _preconditioner(a: sp.csr_matrix, band):
    """CG's one-level M^-1: D_u^-1 off the interface band plus A_bb^-1 on it.

    D_u is the diagonal of ``a`` off the band's columns and A_bb the band's
    block, factored once by ``_factor``; without a band M is Jacobi's
    diagonal. Returns D_u^-1 (zero on the band), the band's columns and the
    map r -> M^-1 r.
    """
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise NotPositiveDefinite("non-positive diagonal entry")
    inv_du = 1.0 / diag
    cols = np.zeros(0, np.int64) if band is None else band.columns
    if not len(cols):
        return inv_du, cols, lambda r: inv_du * r
    inv_du[cols] = 0.0
    try:
        # COLAMD fills more than MMD (68,676 against 51,306 in L + U at
        # N = 64, k = 2) in larger supernodes, whose solve takes 92-96 us
        # against 115-129 us on 2 vCPUs.
        lu = _factor(a[cols][:, cols], permc_spec="COLAMD")
    except NotPositiveDefinite as exc:
        for element, own in band.blocks:
            try:
                np.linalg.cholesky(a[own][:, own].toarray())
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(
                    f"interface element {element}: its block of the interface band is not positive definite"
                ) from exc
        raise NotPositiveDefinite(f"interface band: {exc}") from exc

    def precondition(r):
        y = inv_du * r
        y[cols] = lu.solve(r[cols])
        return y

    return inv_du, cols, precondition


def _deflation(a: sp.csr_matrix, z: sp.csr_matrix, inv_du: np.ndarray, cols: np.ndarray):
    """The coarse level of A-DEF2: E = Z^T A Z, exactly symmetric, W_1^T and G.

    W_1^T = Z^T - Z^T A D_u^-1 and G = (Z^T A)[:, band], so that for
    y = M^-1 r (``_preconditioner``) W^T r = Z^T r - Z^T A y = W_1^T r - G y_b.
    """
    z_t = z.T.tocsr()
    zt_a = z_t @ a
    e = zt_a @ z
    return 0.5 * (e + e.T), _sorted_csr(z_t - zt_a @ sp.diags(inv_du)), _sorted_csr(zt_a[:, cols])


# CG stops when its recursively updated residual reaches CG_TOL relative to
# ||b||, or raises NoConvergence after CG_MAX_ITER iterations. The bound is on
# that residual, not the true one: ``SolveStats.residual`` is the certificate,
# and at high contrast it may exceed CG_TOL (1.9e-11 at N = 64, k = 2, (1000, 1)).
CG_TOL = 1e-12
CG_MAX_ITER = 20000


def _solve_cg(a: sp.csr_matrix, b: np.ndarray, band, coarse):
    """Deterministic preconditioned conjugate gradients, updating in place.

    The one-level preconditioner is M^-1 = D_u^-1 + R_b^T A_bb^-1 R_b
    (``_preconditioner``): the interface band is one subdomain, solved
    exactly. With a coarse basis Z the iteration is deflated in the A-DEF2
    form (Tang, Nabben, Vuik & Erlangga, J. Sci. Comput. 39, 2009): it
    starts from x0 = Z E^-1 Z^T b and applies z = y + Z E^-1 (W_1^T r - G y_b)
    with y = M^-1 r (``_deflation``), E factored by ``_factor``. Both factors
    are SuperLU's and the reductions do not go through BLAS, so the iterates
    do not depend on its thread count.

    The loop stops when the recursively updated residual r reaches
    ``CG_TOL`` relative to b. At high contrast r drifts from b - A x, so the
    true residual that ``solve`` reports may exceed ``CG_TOL``.
    """
    inv_du, cols, one_level = _preconditioner(a, band)
    if coarse is None:
        return _pcg(a, b, one_level, CG_TOL, CG_MAX_ITER)
    z_c = _sorted_csr(coarse)
    e, w1_t, g = _deflation(a, z_c, inv_du, cols)
    lu = _factor(e)
    x = z_c @ lu.solve(z_c.T @ b)

    def precondition(r):
        y = one_level(r)
        y += z_c @ lu.solve(w1_t @ r - g @ y[cols])
        return y

    return _pcg(a, b, precondition, CG_TOL, CG_MAX_ITER, x)


def _pcg(a, b: np.ndarray, precondition, tol: float, max_iter: int, x=None):
    """Preconditioned CG from x (zero by default), updating in place; returns (x, iterations).

    Stops when the recursively updated residual reaches ``tol`` relative to
    ||b||; raises NotPositiveDefinite on non-positive curvature and
    NoConvergence after ``max_iter`` iterations.
    """
    n = len(b)
    if x is None:
        x, r = np.zeros(n), b.copy()
    else:
        r = b - a @ x
    z = precondition(r)
    p = z.copy()
    tmp = np.empty(n)
    rz = _dot(r, z)
    bnorm = math.sqrt(_dot(b, b))
    if math.sqrt(_dot(r, r)) <= tol * bnorm:
        return x, 0
    for it in range(1, max_iter + 1):
        ap = a @ p
        pap = _dot(p, ap)
        if not pap > 0.0:
            raise NotPositiveDefinite("CG breakdown: non-positive curvature")
        alpha = rz / pap
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(ap, alpha, out=tmp)
        r -= tmp
        if math.sqrt(_dot(r, r)) <= tol * bnorm:
            return x, it
        z = precondition(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NoConvergence(f"CG did not reach {tol} in {max_iter} iterations")
