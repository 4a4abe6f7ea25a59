"""Manufactured solutions, error norms, convergence orders and reports.

The energy error evaluates the broken norm

    sum_{T non-interface} |grad(u - u_h)|_T^2
  + sum_{T interface}    |grad_w(Q_h u - u_h)|_T^2
                       + h_T^{-1} |Q_b e_0 - e_b|_{dT}^2,

the L2 error integrates e_0 = u - u_h on non-interface elements and
Q_0 u - u_0 on interface elements, and the max error samples |u - u_h| at
the error-quadrature points (interior function on interface elements).
``compute_errors``, a level's one error pass, samples the profiles once for
all of its pairs in a non-interface and an interface half; the interface
sums are reduced per segment of the packed cut-cell rule.
"""

from __future__ import annotations

import csv
import math

from dataclasses import dataclass, field

import numpy as np

from iwgfem.assembly import LevelPlan
from iwgfem.geometry import OMEGA1, OMEGA2, CircleInterface
from iwgfem.ife import sample


class AnalysisError(Exception):
    pass


class NonPositiveError(AnalysisError):
    """Convergence orders need strictly positive error entries."""


@dataclass(frozen=True, eq=False)
class ManufacturedSolution:
    """Closed forms of an exact solution with its source and boundary data.

    u_side(x, y, side) = u_step(u_profile(x, y), side) is the given side's
    smooth extension, grad_side = grad_step(grad_profile(x, y), x, y, side)
    its gradient stacked on the last axis. No pair changes the profiles, so one
    error pass samples them for all pairs of a level. u(x, y) picks the side from
    the interface sign; f is global; g is the Dirichlet trace (in Omega2).
    """

    a1: float
    a2: float
    u_profile: callable
    grad_profile: callable
    u_step: callable
    grad_step: callable
    f: callable
    interface: CircleInterface
    name: str = "manufactured"

    def u_side(self, x, y, side):
        return self.u_step(self.u_profile(x, y), side)

    def grad_side(self, x, y, side):
        return self.grad_step(self.grad_profile(x, y), x, y, side)

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


def example1_cos(x, y):
    """cos(pi r^2): example 1's u on either side before its pair's 1/A_side and offset."""
    return np.cos(np.pi * (x**2 + y**2))


def example1_flux(x, y):
    """-2 pi sin(pi r^2): example 1's A grad u over (x, y), the same on both sides and for every pair."""
    return -2.0 * np.pi * np.sin(np.pi * (x**2 + y**2))


def example1(a1: float, a2: float, interface: CircleInterface | None = None) -> ManufacturedSolution:
    """The benchmark solution: cos(pi r^2)/A_i, offset outside for continuity.

    Both sides share the flux A grad u = -2 pi sin(pi r^2) (x, y), so the
    normal flux is continuous everywhere and the source

        f = 4 pi sin(pi r^2) + 4 pi^2 r^2 cos(pi r^2)

    is a single smooth expression (verified against finite differences in
    the test suite). A pair divides the profiles by A_side and adds its offset.
    """
    if interface is None:
        interface = CircleInterface()
    half = 0.5 * (1.0 / a1 - 1.0 / a2)

    def u_step(cos, side):
        return cos / a1 if side == OMEGA1 else cos / a2 + half

    def grad_step(flux, x, y, side):
        fac = flux / (a1 if side == OMEGA1 else a2)
        return np.stack([fac * x, fac * y], axis=-1)

    return ManufacturedSolution(
        a1, a2, example1_cos, example1_flux, u_step, grad_step, example1_source, interface, f"example1({a1},{a2})"
    )


# Non-interface elements per block of the error pass. It bounds the pass's
# (elements, points) temporaries: those of 4,096 elements take about 9 MB at k = 2.
ERROR_BLOCK = 4096


def _noninterface_errors(plan: LevelPlan, solved) -> list[tuple[float, float, float]]:
    """Energy and L2 squares and the max error on the non-interface elements of each (x_all, ms) pair.

    Each side's elements are taken ERROR_BLOCK at a time. A block's error
    points (rebuilt from v0 and J), class masks and profiles, which the
    pairs share, are built once; each pair gathers its coefficients of
    the block, steps the profiles to its u and grad u as (elements, points)
    arrays and keeps each element's weighted sums. A side's sums are one
    product with its dets.
    """
    w = plan.err_weights
    sums = [[0.0, 0.0, 0.0] for _ in solved]  # energy^2, L2^2, max per pair
    for side, (sel, v0, j_mats) in plan.sides.items():
        if len(sel) == 0:
            continue
        l2_el, energy_el = np.empty((2, len(solved), len(sel)))
        for start in range(0, len(sel), ERROR_BLOCK):
            blk = slice(start, start + ERROR_BLOCK)
            pts = v0[blk, None, :] + plan.err_ref[None, :, :] @ j_mats[blk]
            x, y = pts[..., 0], pts[..., 1]
            profiles = solved[0][1].u_profile(x, y), solved[0][1].grad_profile(x, y)
            cols = plan.dofmap.node_col[plan.nodes[sel[blk]]]
            in_cls = [plan.cls[sel[blk]] == c for c in range(len(plan.err_grads))]
            for i, (x_all, ms) in enumerate(solved):
                coefs = x_all[cols]
                diff = coefs @ plan.err_shapes.T
                diff -= ms.u_step(profiles[0], side)
                gdiff = np.negative(ms.grad_step(profiles[1], x, y, side))
                for in_c, g_phys in zip(in_cls, plan.err_grads):
                    gdiff[in_c] += np.tensordot(coefs[in_c], g_phys, axes=(1, 1))
                l2_el[i, blk] = diff**2 @ w
                energy_el[i, blk] = (gdiff[..., 0] ** 2 + gdiff[..., 1] ** 2) @ w
                sums[i][2] = max(sums[i][2], float(np.max(np.abs(diff))))
        dets = plan.dets[sel]
        for i, pair_sums in enumerate(sums):
            pair_sums[0] += float(energy_el[i] @ dets)
            pair_sums[1] += float(l2_el[i] @ dets)
    return [tuple(pair_sums) for pair_sums in sums]


def _interface_errors(plan: LevelPlan, solved) -> list[tuple[float, float, float]]:
    """Energy and L2 squares and the max error on the interface elements of each (x_all, ms, spaces) pair.

    The profile is sampled once, at the packed points and the edge points, and each pair steps it by side: a
    packed point by its segment's (a side-2 point may lie inside the circle), an edge point by the interface.
    """
    geometry, dofmap, shared = plan.geometry, plan.dofmap, solved[0][1]
    n_rule, edges = len(geometry.rule_weights), geometry.edge_points.reshape(-1, 2)
    on_1 = np.repeat(np.tile([True, False], len(geometry.elements)), np.diff(geometry.rule_offsets))
    on_1 = np.concatenate([on_1, sample(shared.interface.value, edges) < 0.0])
    profile = sample(shared.u_profile, np.concatenate([geometry.rule_points, edges]))
    out = []
    for x_all, ms, spaces in solved:
        if not np.array_equal(spaces.elements, dofmap.elements):
            raise AnalysisError("interface spaces do not follow the DOF map's element order")
        u = np.where(on_1, ms.u_step(profile, OMEGA1), ms.u_step(profile, OMEGA2))
        locs = (dofmap.routes @ x_all[dofmap.columns][..., None])[..., 0]  # every element's local dofs
        q0 = spaces.project_interior(u[:n_rule])  # u at the packed points also gives the max norm
        qb = geometry.project_traces(u[n_rule:].reshape(geometry.edge_weights.shape))
        energy_sq = spaces.energy_seminorm_sq(np.concatenate([q0, qb.reshape(len(q0), 3 * geometry.k)], axis=1) - locs)
        d = q0 - locs[:, : dofmap.m]
        l2_sq = np.einsum("ni,nij,nj->", d, spaces.gram, d)
        diff = spaces.interior_values(locs[:, : dofmap.m]) - u[:n_rule]
        out.append((float(energy_sq.sum()), float(l2_sq), float(np.max(np.abs(diff), initial=0.0))))
    return out


def compute_errors(plan: LevelPlan, solved) -> list[dict]:
    """Energy, L2 and max errors of pairs solved on a level plan, in one error pass for all of them.

    ``solved`` holds each pair's (x_all, ms, spaces); the errors follow its order.
    """
    if len({(ms.u_profile, ms.grad_profile, ms.interface) for _, ms, _ in solved}) != 1:
        if solved:
            raise AnalysisError("the pairs of one error pass must share their solution's profiles and interface")
        return []
    noninterface = _noninterface_errors(plan, [(x_all, ms) for x_all, ms, _ in solved])
    return [
        {"energy": math.sqrt(e1 + e2), "l2": math.sqrt(l1 + l2), "linf": max(m1, m2)}
        for (e1, l1, m1), (e2, l2, m2) in zip(noninterface, _interface_errors(plan, solved))
    ]


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
