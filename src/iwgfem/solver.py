"""Sparse SPD solvers: pivot-free factorization and two-level additive-Schwarz preconditioned CG."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(Exception):
    pass


class NotPositiveDefinite(SolverError):
    """A factorization hit a non-positive pivot, a Schwarz patch is not SPD, or CG broke down."""


class NoConvergence(SolverError):
    """CG exhausted its iteration budget."""


@dataclass(frozen=True)
class SolverConfig:
    """The solver and CG's stopping rule.

    ``cg_tol`` bounds CG's recursively updated residual relative to ||b||,
    not the true one: ``SolveStats.residual`` is the certificate, and at
    high contrast it may exceed ``cg_tol`` (2.6e-11 at N = 64, k = 2,
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
    matrix: sp.spmatrix, rhs: np.ndarray, config: SolverConfig | None = None, patches=(), coarse=None, factor=None
):
    """Solve an SPD system; returns (x, SolveStats) with a residual certificate.

    ``patches`` are the overlapping additive-Schwarz patches of CG's
    preconditioner, groups of (element ids (n_p,), columns (n_p, s)) as in
    ``DofMap.patches``; without patches CG is Jacobi-preconditioned.
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
        x, iters = _solve_cg(a, b, config, patches, coarse)

    bnorm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(a @ x - b)) / max(bnorm, 1e-300)
    return x, SolveStats(config.method, residual, iters, a.shape[0])


def _sorted_csr(matrix) -> sp.csr_matrix:
    a = sp.csr_matrix(matrix)
    return a if a.has_sorted_indices else a.sorted_indices()


def superlu(a: sp.csc_matrix):
    """SuperLU factorization of a CSC matrix with diagonal pivoting disabled, unchecked.

    This is all the work that may run in a worker thread; scipy 1.17's
    factorization releases the GIL, so that thread runs beside the caller.
    It raises RuntimeError on an exactly zero pivot; ``_factor`` checks the
    signs of the others.
    """
    return spla.splu(a, diag_pivot_thresh=0.0, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def _factor(a: sp.spmatrix, pending=None):
    """SuperLU factorization of an SPD matrix with diagonal pivoting disabled.

    With off-diagonal pivoting suppressed, SuperLU computes P A P^T = L U with
    unit-lower L, which for symmetric input is the LDL^T factorization; all
    U-pivots positive is then equivalent to positive definiteness, and a
    non-positive one raises NotPositiveDefinite. ``pending``, a future of
    ``superlu`` on ``a``, is joined in place of factoring.
    """
    try:
        lu = superlu(sp.csc_matrix(a)) if pending is None else pending.result()
    except RuntimeError as exc:
        raise NotPositiveDefinite(f"factorization failed: {exc}") from exc
    if np.any(lu.U.diagonal() <= 0.0):
        raise NotPositiveDefinite("non-positive pivot in symmetric factorization")
    return lu


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v summed by numpy's own loop: BLAS ddot's order depends on its thread count."""
    return float(np.einsum("i,i->", u, v))


def _schwarz_inverse(a: sp.csr_matrix, patches) -> sp.csr_matrix:
    """M^-1 = D_u^-1 + sum_p R_p^T A_p^-1 R_p as one sorted CSR matrix.

    R_p restricts to patch p's columns, and D_u is the diagonal of ``a`` on
    the columns that no patch covers, so without patches M^-1 is Jacobi's
    inverse diagonal. Each group's blocks A[I, I] are inverted through one
    batched Cholesky factorization and made exactly symmetric.
    """
    n = a.shape[0]
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise NotPositiveDefinite("non-positive diagonal entry")
    covered = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    for elements, idx in patches:
        r = np.repeat(idx[:, :, None], idx.shape[1], axis=2)
        c = r.swapaxes(1, 2)
        blocks = np.asarray(a[r.ravel(), c.ravel()]).reshape(r.shape)
        try:
            low = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(
                f"interface element {_first_indefinite(elements, blocks)}: "
                "Schwarz patch block is not positive definite"
            ) from None
        inv_low = np.linalg.inv(low)
        inv = np.einsum("pki,pkj->pij", inv_low, inv_low)
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append((0.5 * (inv + inv.swapaxes(1, 2))).ravel())
        covered[idx.ravel()] = True
    u = np.flatnonzero(~covered)
    rows.append(u)
    cols.append(u)
    vals.append(1.0 / diag[u])
    m_inv = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return _sorted_csr(m_inv)


def _first_indefinite(elements: np.ndarray, blocks: np.ndarray):
    """The element of the first block whose Cholesky factorization fails."""
    for element, block in zip(elements, blocks):
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return element


def _deflation(a: sp.csr_matrix, m_inv: sp.csr_matrix, z: sp.csr_matrix):
    """The coarse level of A-DEF2: E = Z^T A Z, exactly symmetric, and W^T = Z^T - Z^T A M^-1."""
    z_t = z.T.tocsr()
    zt_a = z_t @ a
    e = zt_a @ z
    return 0.5 * (e + e.T), _sorted_csr(z_t - zt_a @ m_inv)


def _solve_cg(a: sp.csr_matrix, b: np.ndarray, config: SolverConfig, patches, coarse):
    """Deterministic preconditioned conjugate gradients, updating in place.

    The one-level preconditioner is M^-1 = ``_schwarz_inverse(a, patches)``,
    applied by one CSR matvec per iteration. With a coarse basis Z the
    iteration is deflated in the A-DEF2 form (Tang, Nabben, Vuik &
    Erlangga, J. Sci. Comput. 39, 2009): it starts from x0 = Z E^-1 Z^T b
    and applies z = M^-1 r + Z E^-1 W^T r (``_deflation``), as one matvec
    of [M^-1, Z] on [r; E^-1 W^T r], with E factored by ``_factor``. The
    reductions do not go through BLAS, so the iterates do not depend on
    its thread count.

    The loop stops when the recursively updated residual r reaches
    ``cg_tol`` relative to b. At high contrast r drifts from b - A x, so the
    true residual that ``solve`` reports may exceed ``cg_tol``.
    """
    n = len(b)
    m_inv = _schwarz_inverse(a, patches)
    x = np.zeros(n)
    r = b.copy()
    if coarse is not None:
        z_c = _sorted_csr(coarse)
        e, w_t = _deflation(a, m_inv, z_c)
        lu = _factor(e)
        x = z_c @ lu.solve(z_c.T @ b)
        r -= a @ x
        m_inv = _sorted_csr(sp.hstack([m_inv, z_c]))

    def precondition(r):
        return m_inv @ (r if coarse is None else np.concatenate([r, lu.solve(w_t @ r)]))

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
