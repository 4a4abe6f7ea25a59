"""Sparse SPD solvers: pivot-free factorization and Jacobi-preconditioned CG."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(Exception):
    pass


class NotPositiveDefinite(SolverError):
    """Factorization hit a non-positive pivot or CG broke down."""


class NoConvergence(SolverError):
    """CG exhausted its iteration budget."""


@dataclass(frozen=True)
class SolverConfig:
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
    residual: float  # relative residual certificate ||Kx - b|| / ||b||
    iterations: int  # 0 for the direct path
    n: int


def solve(matrix: sp.spmatrix, rhs: np.ndarray, config: SolverConfig | None = None):
    """Solve an SPD system; returns (x, SolveStats) with a residual certificate."""
    if config is None:
        config = SolverConfig()
    if config.method == "cholesky":
        a = sp.csc_matrix(matrix)
    else:  # sorted CSR rows sum in ascending column order, as a CSC matvec does
        a = sp.csr_matrix(matrix)
        a = a if a.has_sorted_indices else a.sorted_indices()
    b = np.asarray(rhs, float)
    if a.shape[0] != a.shape[1] or a.shape[0] != len(b):
        raise ValueError("matrix/rhs shape mismatch")
    if a.shape[0] == 0:
        return np.zeros(0), SolveStats(config.method, 0.0, 0, 0)

    if config.method == "cholesky":
        x, iters = _solve_cholesky(a, b)
    else:
        x, iters = _solve_cg(a, b, config)

    bnorm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(a @ x - b)) / max(bnorm, 1e-300)
    return x, SolveStats(config.method, residual, iters, a.shape[0])


def _solve_cholesky(a: sp.csc_matrix, b: np.ndarray):
    """Symmetric factorization with diagonal pivoting disabled.

    With off-diagonal pivoting suppressed, SuperLU computes P A P^T = L U with
    unit-lower L, which for symmetric input is the LDL^T factorization; all
    U-pivots positive is then equivalent to positive definiteness.
    """
    try:
        lu = spla.splu(
            a,
            diag_pivot_thresh=0.0,
            permc_spec="MMD_AT_PLUS_A",
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NotPositiveDefinite(f"factorization failed: {exc}") from exc
    pivots = lu.U.diagonal()
    if np.any(pivots <= 0.0):
        raise NotPositiveDefinite("non-positive pivot in symmetric factorization")
    return lu.solve(b), 0


def _solve_cg(a: sp.csr_matrix, b: np.ndarray, config: SolverConfig):
    """Deterministic Jacobi-preconditioned conjugate gradients, updating in place."""
    n = len(b)
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise NotPositiveDefinite("non-positive diagonal entry")
    inv_diag = 1.0 / diag

    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    tmp = np.empty(n)
    rz = float(r @ z)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0
    for it in range(1, config.cg_max_iter + 1):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise NotPositiveDefinite("CG breakdown: non-positive curvature")
        alpha = rz / pap
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(ap, alpha, out=tmp)
        r -= tmp
        if math.sqrt(r @ r) <= config.cg_tol * bnorm:
            return x, it
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NoConvergence(f"CG did not reach {config.cg_tol} in {config.cg_max_iter} iterations")
