"""Manufactured solutions, error norms, convergence orders and reports.

The energy error evaluates the broken norm

    sum_{T non-interface} |grad(u - u_h)|_T^2
  + sum_{T interface}    |grad_w(Q_h u - u_h)|_T^2
                       + h_T^{-1} |Q_b e_0 - e_b|_{dT}^2,

the L2 error integrates e_0 = u - u_h on non-interface elements and
Q_0 u - u_0 on interface elements, and the max error samples |u - u_h| at
the error-quadrature points (interior function on interface elements). On
the interface elements each side's u is sampled once on that side's packed
cut-cell rule points, u once on the edge points, and the sums are reduced
per segment.
"""

from __future__ import annotations

import csv
import math

from dataclasses import dataclass, field

import numpy as np

from iwgfem.assembly import DofMap, LevelPlan
from iwgfem.geometry import OMEGA1, OMEGA2, CircleInterface
from iwgfem.ife import IfeSpaces, sample


class AnalysisError(Exception):
    pass


class NonPositiveError(AnalysisError):
    """Convergence orders need strictly positive error entries."""


@dataclass(frozen=True, eq=False)
class ManufacturedSolution:
    """Closed forms of an exact solution with its source and boundary data.

    u_side(x, y, side) evaluates the smooth extension of the given side;
    u(x, y) picks the side from the interface sign. grad_side returns the
    gradient stacked on the last axis. f is globally defined; g is the
    Dirichlet trace (the domain boundary lies in Omega2).
    """

    a1: float
    a2: float
    u_side: callable
    grad_side: callable
    f: callable
    interface: CircleInterface
    name: str = "manufactured"

    def u(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        inside = self.interface.value(x, y) < 0.0
        out = np.empty(x.shape)
        out[inside] = self.u_side(x[inside], y[inside], OMEGA1)
        out[~inside] = self.u_side(x[~inside], y[~inside], OMEGA2)
        return out

    def g(self, x, y):
        return self.u_side(x, y, OMEGA2)


def example1_source(x, y):
    """Example 1's source f = 4 pi sin(pi r^2) + 4 pi^2 r^2 cos(pi r^2), the same for every pair."""
    r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
    return 4.0 * np.pi * np.sin(np.pi * r2) + 4.0 * np.pi**2 * r2 * np.cos(np.pi * r2)


def example1(a1: float, a2: float, interface: CircleInterface | None = None) -> ManufacturedSolution:
    """The benchmark solution: cos(pi r^2)/A_i, offset outside for continuity.

    Both sides share the flux A grad u = -2 pi sin(pi r^2) (x, y), so the
    normal flux is continuous everywhere and the source

        f = 4 pi sin(pi r^2) + 4 pi^2 r^2 cos(pi r^2)

    is a single smooth expression (verified against finite differences in
    the test suite).
    """
    if interface is None:
        interface = CircleInterface()
    half = 0.5 * (1.0 / a1 - 1.0 / a2)

    def u_side(x, y, side):
        r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        if side == OMEGA1:
            return np.cos(np.pi * r2) / a1
        return np.cos(np.pi * r2) / a2 + half

    def grad_side(x, y, side):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        a = a1 if side == OMEGA1 else a2
        r2 = x**2 + y**2
        fac = -2.0 * np.pi * np.sin(np.pi * r2) / a
        return np.stack([fac * x, fac * y], axis=-1)

    return ManufacturedSolution(
        a1, a2, u_side, grad_side, example1_source, interface, name=f"example1({a1},{a2})"
    )


def linear_solution(c0: float, c1: float, c2: float, a: float = 1.0) -> ManufacturedSolution:
    """Patch-test solution u = c0 + c1 x + c2 y with matching coefficients and f = 0."""

    def u_side(x, y, side):
        return c0 + c1 * np.asarray(x, float) + c2 * np.asarray(y, float)

    def grad_side(x, y, side):
        x = np.asarray(x, float)
        return np.stack([np.full_like(x, c1), np.full_like(x, c2)], axis=-1)

    def f(x, y):
        return np.zeros_like(np.asarray(x, float))

    return ManufacturedSolution(a, a, u_side, grad_side, f, CircleInterface(), name="linear patch")


def check_interface_conditions(ms: ManufacturedSolution, n_samples: int = 256) -> tuple[float, float]:
    """Max jump of value and weighted normal flux sampled along the interface."""
    theta = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    r = ms.interface.radius
    cx, cy = ms.interface.center
    x = cx + r * np.cos(theta)
    y = cy + r * np.sin(theta)
    n = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    val = np.max(np.abs(ms.u_side(x, y, OMEGA1) - ms.u_side(x, y, OMEGA2)))
    flux1 = np.einsum("nd,nd->n", ms.grad_side(x, y, OMEGA1), n) * ms.a1
    flux2 = np.einsum("nd,nd->n", ms.grad_side(x, y, OMEGA2), n) * ms.a2
    return float(val), float(np.max(np.abs(flux1 - flux2)))


# Non-interface elements per block of the error pass. It bounds the pass's
# (elements, points) temporaries: those of 4,096 elements take about 9 MB at k = 2.
ERROR_BLOCK = 4096


def _noninterface_errors(plan: LevelPlan, x_all, ms):
    """Energy and L2 squares and the max error on the non-interface elements.

    Each side's elements are taken ERROR_BLOCK at a time: their error points
    are rebuilt from v0 and J, u and grad u are sampled on them as
    (elements, points) arrays, and each element's weighted sums are kept.
    The sums over a side's elements are one product with its dets.
    """
    coefs = x_all[plan.dofmap.node_col[plan.nodes]]  # (ne, nl)
    w = plan.err_weights
    energy_sq = 0.0
    l2_sq = 0.0
    linf = 0.0
    for side, (sel, v0, j_mats) in plan.sides.items():
        if len(sel) == 0:
            continue
        l2_el = np.empty(len(sel))
        energy_el = np.empty(len(sel))
        for start in range(0, len(sel), ERROR_BLOCK):
            blk = slice(start, start + ERROR_BLOCK)
            pts = v0[blk, None, :] + plan.err_ref[None, :, :] @ j_mats[blk]
            block_coefs, cls = coefs[sel[blk]], plan.cls[sel[blk]]
            diff = block_coefs @ plan.err_shapes.T
            diff -= np.asarray(ms.u_side(pts[..., 0], pts[..., 1], side), float)
            gdiff = -np.asarray(ms.grad_side(pts[..., 0], pts[..., 1], side), float)
            for c, g_phys in enumerate(plan.err_grads):
                in_c = cls == c
                gdiff[in_c] += np.tensordot(block_coefs[in_c], g_phys, axes=(1, 1))
            l2_el[blk] = diff**2 @ w
            energy_el[blk] = (gdiff[..., 0] ** 2 + gdiff[..., 1] ** 2) @ w
            linf = max(linf, float(np.max(np.abs(diff))))
        dets = plan.dets[sel]
        l2_sq += float(l2_el @ dets)
        energy_sq += float(energy_el @ dets)
    return energy_sq, l2_sq, linf


def _interface_errors(dofmap: DofMap, spaces: IfeSpaces, x_all, ms):
    if not np.array_equal(spaces.elements, dofmap.elements):
        raise AnalysisError("interface spaces do not follow the routing matrix's element order")
    m = dofmap.m
    geometry = spaces.geometry
    # Every interface element's local dofs at once, row blocks in P's order.
    locs = (dofmap.P @ x_all).reshape(spaces.stiffness.shape[:2])
    ue = geometry.sample_sides(ms.u_side)  # shared by Q_0 u and the max norm
    q0 = spaces.project_interior(ue)
    qb = spaces.project_traces(sample(ms.u, geometry.edge_points))
    q_h = np.concatenate([q0, qb.reshape(len(q0), 3 * geometry.k)], axis=1)
    energy_sq = spaces.energy_seminorm_sq(q_h - locs)
    d = q0 - locs[:, :m]
    l2_sq = np.einsum("ni,nij,nj->", d, spaces.gram, d)
    diff = spaces.interior_values(locs[:, :m])
    diff -= ue
    return float(energy_sq.sum()), float(l2_sq), float(np.max(np.abs(diff), initial=0.0))


def compute_errors(plan: LevelPlan, spaces: IfeSpaces, x_all: np.ndarray, ms: ManufacturedSolution) -> dict:
    """Energy, L2 and max errors of a pair solved on a level plan, in one pass."""
    e1, l1, m1 = _noninterface_errors(plan, x_all, ms)
    e2, l2, m2 = _interface_errors(plan.dofmap, spaces, x_all, ms)
    return {
        "energy": math.sqrt(e1 + e2),
        "l2": math.sqrt(l1 + l2),
        "linf": max(m1, m2),
    }


def interpolation_errors(plan: LevelPlan, spaces: IfeSpaces, ms: ManufacturedSolution) -> dict:
    """Projection-only diagnostic: CG interpolation H1 error and Q_0 L2 error.

    Verifies the approximation power of the two local families independently
    of the solver; expected orders are k and k+1.
    """
    dofmap = plan.dofmap
    coords = dofmap.node_coords
    x_nodal = np.asarray(ms.u(coords[:, 0], coords[:, 1]), float)
    # Reuse the error machinery with nodal interpolation coefficients laid
    # out over all columns.
    x_cols = np.zeros(dofmap.n_total)
    valid = dofmap.node_col >= 0
    x_cols[dofmap.node_col[valid]] = x_nodal[valid]
    e_grad_sq, _, _ = _noninterface_errors(plan, x_cols, ms)

    ue = spaces.geometry.sample_sides(ms.u_side)
    diff = spaces.interior_values(spaces.project_interior(ue))
    diff -= ue
    q0_sq = float(spaces.geometry.rule_weights @ diff**2)
    return {"cg_h1": math.sqrt(e_grad_sq), "q0_l2": math.sqrt(q0_sq)}


def convergence_orders(errors) -> list[float]:
    """log2 ratios of consecutive entries (valid because h halves per level)."""
    errors = [float(e) for e in errors]
    if any(e <= 0.0 for e in errors):
        raise NonPositiveError("convergence orders need positive errors")
    return [math.log2(a / b) for a, b in zip(errors[:-1], errors[1:])]


@dataclass
class ConvergenceReport:
    """Per-level errors and observed orders for one (k, A1, A2) study."""

    k: int
    a1: float
    a2: float
    mode: str
    depth: int
    levels: list[int] = field(default_factory=list)
    h: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    l2: list[float] = field(default_factory=list)
    linf: list[float] = field(default_factory=list)
    timings: list[float] = field(default_factory=list)
    solver_stats: list = field(default_factory=list)

    def add_level(self, level, h, errors, elapsed, stats):
        self.levels.append(level)
        self.h.append(h)
        self.energy.append(errors["energy"])
        self.l2.append(errors["l2"])
        self.linf.append(errors["linf"])
        self.timings.append(elapsed)
        self.solver_stats.append(stats)

    def orders(self, column: str) -> list[float]:
        return convergence_orders(getattr(self, column))

    def write_csv(self, path) -> None:
        cols = ["energy", "l2", "linf"]
        orders = {c: [""] + [f"{o:.4f}" for o in self.orders(c)] for c in cols}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["level", "h", "energy_err", "energy_order", "l2_err", "l2_order", "linf_err", "linf_order"]
            )
            for i, level in enumerate(self.levels):
                writer.writerow(
                    [
                        level,
                        f"{self.h[i]:.10e}",
                        f"{self.energy[i]:.10e}",
                        orders["energy"][i],
                        f"{self.l2[i]:.10e}",
                        orders["l2"][i],
                        f"{self.linf[i]:.10e}",
                        orders["linf"][i],
                    ]
                )

    def write_plot_data(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# level log10_energy log10_l2 log10_linf\n")
            for i, level in enumerate(self.levels):
                fh.write(
                    f"{level} {math.log10(self.energy[i]):.8f} "
                    f"{math.log10(self.l2[i]):.8f} {math.log10(self.linf[i]):.8f}\n"
                )

    def format_table(self) -> str:
        lines = [
            f"k={self.k}  (A1, A2) = ({self.a1:g}, {self.a2:g})  [{self.mode}]",
            f"{'n':>3} {'|||Q_h u - u_h|||':>18} {'order':>8} {'||Q_0 u - u_0||':>16} "
            f"{'order':>8} {'||u - u_h||_inf':>16} {'order':>8}",
        ]
        orders = {c: [None] + self.orders(c) for c in ("energy", "l2", "linf")}

        def fmt(o):
            return "    --" if o is None else f"{o:8.4f}"

        for i, level in enumerate(self.levels):
            lines.append(
                f"{level:>3} {self.energy[i]:>18.4e} {fmt(orders['energy'][i]):>8} "
                f"{self.l2[i]:>16.4e} {fmt(orders['l2'][i]):>8} "
                f"{self.linf[i]:>16.4e} {fmt(orders['linf'][i]):>8}"
            )
        return "\n".join(lines)
