"""Span tracer for the traced benchmark run.

Wraps a named list of public iwgfem functions from outside the package,
records one span per call (name, start, end, parent span) and turns the
spans and the values the calls return into per-layer metrics. Nothing is
added to the program itself.

A wrapper replaces every binding of the function inside the ``iwgfem``
package, because callers look names up in their own module (``cli`` imports
``build_mesh`` by name; ``assembly`` calls its helpers through its globals).
A function that a later commit removed or renamed is reported as absent:
its metrics are ``None`` and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (time metric, module, function). The time metric is the function's self
# time: its spans minus the spans of traced calls nested inside it.
TRACED = (
    ("mesh.build_s", "iwgfem.mesh", "build_mesh"),
    ("geometry.cut_quad_s", "iwgfem.assembly", "build_cut_geometries"),
    ("ife.spaces_s", "iwgfem.assembly", "build_ife_spaces"),
    ("assembly.dofmap_s", "iwgfem.assembly", "build_dof_map"),
    ("assembly.cg_blocks_s", "iwgfem.assembly", "assemble_noninterface"),
    ("assembly.wg_blocks_s", "iwgfem.assembly", "assemble_interface"),
    ("assembly.constraints_s", "iwgfem.assembly", "apply_constraints"),
    ("assembly.self_s", "iwgfem.assembly", "assemble_system"),
    ("solver.solve_s", "iwgfem.solver", "solve"),
    ("analysis.errors_s", "iwgfem.analysis", "compute_errors"),
)

# Call counts reported as metrics: metric -> traced function.
CALLS = {
    "mesh.calls": "build_mesh",
    "geometry.calls": "build_cut_geometries",
    "solver.calls": "solve",
    "analysis.calls": "compute_errors",
}


def _mesh_sizes(mesh):
    return len(mesh.triangles), len(mesh.cuts)


def _quad_points(geometries):
    return (sum(len(r.weights) for g in geometries.values() for r in g.rules.values()),)


def _space_health(spaces):
    s = list(spaces.values())
    return (
        len(s),
        max((x.gram_cond for x in s), default=0.0),
        max((x.constraint_residual for x in s), default=0.0),
        sum(bool(x.ill_conditioned) for x in s),
    )


def _system_sizes(result):
    system = result[0]
    return system.matrix.shape[0], system.matrix.nnz, system.asymmetry


def _solve_stats(result):
    stats = result[1]
    return stats.iterations, stats.residual


# Counts read from return values at the same boundaries:
# function -> (metrics, reader). A metric whose last part starts with
# "max_" keeps the largest value seen; every other one is summed.
OBSERVED = {
    "build_mesh": (("mesh.triangles", "mesh.cut_elements"), _mesh_sizes),
    "build_cut_geometries": (("geometry.quad_points",), _quad_points),
    "build_ife_spaces": (
        ("ife.spaces_built", "ife.max_gram_cond", "ife.max_constraint_residual", "ife.ill_conditioned"),
        _space_health,
    ),
    "assemble_system": (("assembly.n_free", "assembly.nnz", "assembly.max_asymmetry"), _system_sizes),
    "solve": (("solver.iterations", "solver.max_residual"), _solve_stats),
}


def _is_max(metric: str) -> bool:
    return metric.rsplit(".", 1)[-1].startswith("max_")


class Tracer:
    """Installs the wrappers and keeps the spans of one process in memory."""

    def __init__(self, traced=TRACED):
        self.traced = traced
        self.spans = []  # [function, start, end, parent index or -1]
        self.stack = []
        self.calls = {}
        self.values = {}
        self.unreadable = set()  # observed metrics whose reader failed
        self.absent = {}  # function -> reason

    def install(self) -> None:
        for _, module, name in self.traced:
            try:
                original = getattr(importlib.import_module(module), name)
            except (ImportError, AttributeError) as exc:
                self.absent[name] = f"{module}.{name}: {exc}"
                continue
            if not callable(original):
                self.absent[name] = f"{module}.{name} is not callable"
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "iwgfem" or mod_name.startswith("iwgfem.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, original):
        self.calls[name] = 0

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.calls[name] += 1
            self._observe(name, out)
            return out

        return wrapper

    def _observe(self, name, out) -> None:
        if name not in OBSERVED:
            return
        metrics, reader = OBSERVED[name]
        try:
            values = reader(out)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            self.unreadable.update(metrics)
            self.absent.setdefault(name + " result", repr(exc))
            return
        for metric, value in zip(metrics, values):
            value = float(value)
            old = self.values.get(metric)
            if old is None:
                self.values[metric] = value
            else:
                self.values[metric] = max(old, value) if _is_max(metric) else old + value

    def self_times(self) -> dict:
        """Self time per traced function, summed over its spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in self.calls}
        for (name, start, end, _), nested in zip(self.spans, child):
            out[name] += end - start - nested
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def metrics(self, wall_s: float, cpu_s: float) -> dict:
        """Per-layer metrics of the traced run; ``None`` marks an absent one."""
        own = self.self_times()
        out = {}
        for metric, _, name in self.traced:
            out[metric] = own.get(name)
        for metric, name in CALLS.items():
            out[metric] = float(self.calls[name]) if name in self.calls else None
        for name, (metrics, _) in OBSERVED.items():
            for metric in metrics:
                present = name in self.calls and metric not in self.unreadable
                out[metric] = self.values.get(metric, 0.0) if present else None

        builds = out["geometry.calls"]
        pairs = float(self.calls["build_ife_spaces"]) if "build_ife_spaces" in self.calls else None
        out["geometry.pairs_per_build"] = pairs / builds if pairs is not None and builds else None
        spaces_s, built = out["ife.spaces_s"], out["ife.spaces_built"]
        out["ife.ms_per_space"] = 1000.0 * spaces_s / built if spaces_s is not None and built else None
        out["cli.self_s"] = wall_s - self.top_level_s()
        out["cli.cpu_s"] = cpu_s
        return out
