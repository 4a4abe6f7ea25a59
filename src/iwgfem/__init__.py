"""Immersed weak Galerkin / continuous Galerkin solver for elliptic interface problems.

Solves -div(A grad u) = f on [-1,1]^2 with a piecewise-constant conductivity
jumping across a circular interface, on uniform triangular meshes that are
not fitted to the interface. Elements away from the interface use standard
continuous P_k Lagrange elements; cut elements use immersed weak Galerkin
spaces whose local bases satisfy the interface jump conditions.
"""

from iwgfem.analysis import ConvergenceReport, ManufacturedSolution, compute_errors, example1
from iwgfem.assembly import assemble_system, build_dof_map, build_ife_spaces, build_level_plan
from iwgfem.geometry import CircleInterface
from iwgfem.mesh import MeshPartition, build_mesh
from iwgfem.solver import solve

__all__ = [
    "CircleInterface",
    "ConvergenceReport",
    "ManufacturedSolution",
    "MeshPartition",
    "RunConfig",
    "assemble_system",
    "build_dof_map",
    "build_ife_spaces",
    "build_level_plan",
    "build_mesh",
    "compute_errors",
    "example1",
    "run_study",
    "solve",
]


def __getattr__(name):
    # Resolved on first use: importing iwgfem.cli here would put it in
    # sys.modules before `python -m iwgfem.cli` runs it, and runpy warns.
    if name in ("RunConfig", "run_study"):
        from iwgfem import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
