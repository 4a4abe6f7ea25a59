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
class SolverConfig:
    """The solver and CG's stopping rule.

    ``cg_tol`` bounds CG's recursively updated residual relative to ||b||,
    not the true one: ``SolveStats.residual`` is the certificate, and at
    high contrast it may exceed ``cg_tol`` (2.7e-11 at N = 64, k = 2,
    (1000, 1)).
    """

    method: str = "cholesky"  # "cholesky" | "cg"
    cg_tol: float = 1e-12
    cg_max_iter: int = 20000

    def __post_init__(self):
        if self.method not in ("cholesky", "cg"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError("cg_tol must lie in (0, 1)")
        if self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be >= 1")


@dataclass(frozen=True)
class SolveStats:
    method: str
    residual: float  # relative residual certificate ||Kx - b|| / ||b||, may exceed cg_tol
    iterations: int  # 0 for the direct path
    n: int


def solve(
    matrix: sp.spmatrix, rhs: np.ndarray, config: SolverConfig | None = None, band=None, coarse=None, factor=None
):
    """Solve an SPD system; returns (x, SolveStats) with a residual certificate.

    ``band`` is CG's interface band as ``DofMap.band`` gives it: the columns
    that CG's preconditioner solves exactly, with each interface element's
    own; without it CG is Jacobi-preconditioned.
    ``coarse`` is CG's coarse basis Z (n, n_c), as ``assembly.coarse_basis``
    builds it; with it CG is deflated in the A-DEF2 form. The direct path
    ignores both. ``factor`` is a future of ``superlu`` on ``matrix`` in
    CSC form, started by the caller in another thread: the direct path
    joins it and checks its pivots here in place of factoring.
    """
    if config is None:
        config = SolverConfig()
    if config.method == "cholesky":
        a = sp.csc_matrix(matrix)
    else:  # sorted CSR rows sum in ascending column order, as a CSC matvec does
        a = _sorted_csr(matrix)
    b = np.asarray(rhs, float)
    if a.shape[0] != a.shape[1] or a.shape[0] != len(b):
        raise ValueError("matrix/rhs shape mismatch")
    if a.shape[0] == 0:
        return np.zeros(0), SolveStats(config.method, 0.0, 0, 0)

    if config.method == "cholesky":
        x, iters = _factor(a, factor).solve(b), 0
    else:
        x, iters = _solve_cg(a, b, config, band, coarse)

    bnorm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(a @ x - b)) / max(bnorm, 1e-300)
    return x, SolveStats(config.method, residual, iters, a.shape[0])


def _sorted_csr(matrix) -> sp.csr_matrix:
    a = sp.csr_matrix(matrix)
    return a if a.has_sorted_indices else a.sorted_indices()


def superlu(a: sp.csc_matrix, permc_spec: str = "MMD_AT_PLUS_A"):
    """SuperLU factorization of a CSC matrix with diagonal pivoting disabled, unchecked.

    This is all the work that may run in a worker thread; scipy 1.17's
    factorization releases the GIL, so that thread runs beside the caller.
    It raises RuntimeError on an exactly zero pivot; ``_factor`` checks the
    signs of the others.
    """
    return spla.splu(a, diag_pivot_thresh=0.0, permc_spec=permc_spec, options={"SymmetricMode": True})


def _factor(a: sp.spmatrix, pending=None, permc_spec: str = "MMD_AT_PLUS_A"):
    """SuperLU factorization of an SPD matrix with diagonal pivoting disabled.

    With off-diagonal pivoting suppressed, SuperLU computes P A P^T = L U with
    unit-lower L, which for symmetric input is the LDL^T factorization; all
    U-pivots positive is then equivalent to positive definiteness, and a
    non-positive one raises NotPositiveDefinite. ``pending``, a future of
    ``superlu`` on ``a``, is joined in place of factoring.
    """
    try:
        lu = superlu(sp.csc_matrix(a), permc_spec) if pending is None else pending.result()
    except RuntimeError as exc:
        raise NotPositiveDefinite(f"factorization failed: {exc}") from exc
    if np.any(lu.U.diagonal() <= 0.0):
        raise NotPositiveDefinite("non-positive pivot in symmetric factorization")
    return lu


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


def _solve_cg(a: sp.csr_matrix, b: np.ndarray, config: SolverConfig, band, coarse):
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
    ``cg_tol`` relative to b. At high contrast r drifts from b - A x, so the
    true residual that ``solve`` reports may exceed ``cg_tol``.
    """
    n = len(b)
    inv_du, cols, precondition = _preconditioner(a, band)
    x = np.zeros(n)
    r = b.copy()
    if coarse is not None:
        z_c = _sorted_csr(coarse)
        e, w1_t, g = _deflation(a, z_c, inv_du, cols)
        lu = _factor(e)
        x = z_c @ lu.solve(z_c.T @ b)
        r -= a @ x
        one_level = precondition

        def precondition(r):
            y = one_level(r)
            y += z_c @ lu.solve(w1_t @ r - g @ y[cols])
            return y

    z = precondition(r)
    p = z.copy()
    tmp = np.empty(n)
    rz = _dot(r, z)
    bnorm = math.sqrt(_dot(b, b))
    if math.sqrt(_dot(r, r)) <= config.cg_tol * bnorm:
        return x, 0
    for it in range(1, config.cg_max_iter + 1):
        ap = a @ p
        pap = _dot(p, ap)
        if pap <= 0.0:
            raise NotPositiveDefinite("CG breakdown: non-positive curvature")
        alpha = rz / pap
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(ap, alpha, out=tmp)
        r -= tmp
        if math.sqrt(_dot(r, r)) <= config.cg_tol * bnorm:
            return x, it
        z = precondition(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NoConvergence(f"CG did not reach {config.cg_tol} in {config.cg_max_iter} iterations")
