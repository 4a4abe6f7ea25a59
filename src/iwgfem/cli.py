"""Batch driver: configuration, convergence studies, CSV and table output."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from iwgfem.analysis import ConvergenceReport, ManufacturedSolution, compute_errors, example1
from iwgfem.assembly import (
    LevelPlan,
    assemble_system,
    build_cut_geometries,
    build_level_plan,
    dump_matrix,
)
from iwgfem.geometry import GeometryError
from iwgfem.ife import IfeError
from iwgfem.mesh import build_mesh, dump_mesh
from iwgfem.solver import SolverError, solve, superlu

DEFAULT_PAIRS = ((1.0, 1.0), (1.0, 10.0), (1.0, 100.0), (1.0, 1000.0))
MAX_DEPTH = 12  # deepest arc subdivision of the cut-cell quadrature
MAX_QUAD_OFFSET = 16  # largest extra quadrature degree
MAX_CELLS = 256  # most cells per side at the finest level
# A one-pair direct-solve study factors its finest level in a worker thread
# while the coarser levels run (run_study) only if that level has at least
# this many P_k nodes, (k N)^2. Wall time of main and peak VmHWM on 2 vCPUs,
# plain schedule -> overlapped, medians of alternating runs: k = 2, levels
# 1..5 (finest N = 128, 65,536 nodes) saves a quarter of the wall time for
# 7 MB more (BENCH_finest_overlap.json). Below the gate the gain is smaller
# for about as much memory: k = 1, finest N = 128 (16,384 nodes)
# 0.391 -> 0.365 s, 102.1 -> 107.4 MB; k = 2, levels 2..5, finest N = 64
# (16,384 nodes) 0.361 -> 0.305 s, 114.1 -> 119.2 MB.
OVERLAP_MIN_NODES = 2**16


def _check_span(first: int, last: int, n_first: int = 2, what: str = "") -> None:
    # N doubles per level from n_first (at least 2). The levels are refused from their ends,
    # before 2**(last - first) or a range of that many levels is built.
    if last - first > math.log2(MAX_CELLS) - math.log2(n_first):
        raise ValueError(f"{what}the finest level must have at most {MAX_CELLS} cells per side")


@dataclass(frozen=True)
class RunConfig:
    """Validated study configuration; fully deterministic (no seeds anywhere)."""

    k: int = 1
    levels: tuple[int, ...] = (1, 2, 3, 4, 5)
    pairs: tuple[tuple[float, float], ...] = DEFAULT_PAIRS
    depth: int = 6
    quad_offset: int = 0
    ife_mode: str = "auto"  # "auto" | "segment" | "arc"
    solver: str = "cholesky"
    out_dir: str | None = None
    # Cells per side at the first level of the range; doubles per level. The
    # default 8 calibrates the family against the benchmark's reported
    # level-1 error magnitudes (the plain mesh default of 2^(level+1) is one
    # halving coarser and still pre-asymptotic at the band).
    n_level1: int = 8
    dump_mesh: bool = False
    dump_matrix: bool = False

    def __post_init__(self):
        if self.k not in (1, 2):
            raise ValueError("k must be 1 or 2")
        if not self.levels:
            raise ValueError("levels must not be empty")
        if any(l < 1 for l in self.levels):
            raise ValueError("levels must be >= 1")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if not all(math.isfinite(a) for pair in self.pairs for a in pair):
            raise ValueError("conductivities must be finite")
        if any(a1 <= 0 or a2 <= 0 for a1, a2 in self.pairs):
            raise ValueError("conductivities must be positive")
        # A pair's output files and log lines name it by A1 and A2 formatted with :g.
        if len({f"{a1:g},{a2:g}" for a1, a2 in self.pairs}) != len(self.pairs):
            raise ValueError("coefficient pairs must be distinct in the 6 significant digits that name their output")
        # The moment fit integrates along 2**depth arc chords per cut side, and
        # the peak memory grows 2-3x per two depth levels: at N = 8, k = 2 a
        # level peaks at 100 MB at depth 10, 197 MB at 12 and 583 MB at 14;
        # at N = 64, depth 12 takes 320 MB; depth 24 asks numpy for 8.5 GiB.
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in 0..{MAX_DEPTH}")
        # The rules' point counts grow with the square of the degree: at N = 8,
        # k = 2 a level peaks at 69 MB at offset 0, 115 MB at 8 and 282 MB at
        # 16; offset 32 takes 1.5 GB and 128 asks numpy for 17.2 GiB.
        if not 0 <= self.quad_offset <= MAX_QUAD_OFFSET:
            raise ValueError(f"quad-offset must be in 0..{MAX_QUAD_OFFSET}")
        if self.ife_mode not in ("auto", "segment", "arc"):
            raise ValueError("ife mode must be auto, segment or arc")
        if self.solver not in ("cholesky", "cg"):
            raise ValueError("solver must be cholesky or cg")
        if self.n_level1 < 2:
            raise ValueError("n_level1 must be >= 2")
        # A level's peak grows about fourfold per doubling of N: one pair peaks at 195 MB
        # (k = 1) and 876 MB (k = 2) at N = 256; at N = 512 k = 1 takes 570 MB and k = 2
        # runs SuperLU out of a 3 GB address space; N = 100,000 asks numpy for 74.5 GiB.
        _check_span(self.levels[0], self.levels[-1], self.n_level1)

    def cells_for_level(self, level: int) -> int:
        return self.n_level1 * 2 ** (level - self.levels[0])

    def resolved_mode(self) -> str:
        """Default constraint realization: chord for k=1, true arc for k=2.

        The linearized chord keeps optimal orders for k=1 but caps the k=2
        consistency error at the geometric O(h^2), so the quadratic space
        enforces the jump conditions weakly along the actual arc instead.
        """
        if self.ife_mode != "auto":
            return self.ife_mode
        return "segment" if self.k == 1 else "arc"


def _solve_pair(config: RunConfig, level: int, mesh, plan: LevelPlan, ms: ManufacturedSolution, assembled, factor=None):
    """Solve a pair, assembled on a level plan as (system, spaces), and take its dumps.

    ``factor``, a prepared pair's future of ``superlu``, must come as its
    only reference, so that L and U are freed when the solve returns.
    Returns (x_all, ms, spaces) for ``compute_errors``, the solver stats and
    the log line's solve and health fields, none holding the system or the
    spaces' stiffness blocks.
    """
    system, spaces = assembled
    band, coarse = (plan.dofmap.band, plan.coarse) if config.solver == "cg" else (None, None)
    x, stats = solve(system.matrix, system.rhs, config.solver, band, coarse, factor=factor)
    del factor
    x_all = system.full_coefficients(x)
    fields = (
        f"residual={stats.residual:.2e} free={system.matrix.shape[0]} nnz={system.matrix.nnz} "
        f"gram_cond={spaces.gram_cond.max(initial=0.0):.2e} "
        f"constraint={spaces.constraint_residual.max(initial=0.0):.2e} asym={system.asymmetry:.2e} "
        f"iters={stats.iterations} refine={stats.refinements} fallback={stats.fallback}"
    )
    tag = f"k{config.k}_A{ms.a1:g}_{ms.a2:g}_level{level}"
    if config.out_dir and config.dump_mesh:
        dump_mesh(mesh, Path(config.out_dir) / f"mesh_{tag}.txt")
    if config.out_dir and config.dump_matrix:
        dump_matrix(system, Path(config.out_dir) / f"matrix_{tag}.txt")
    return (x_all, ms, dataclasses.replace(spaces, stiffness=None)), stats, fields


def _build_level(config: RunConfig, level: int):
    """The mesh and the plan of one level, and its setup log line; raises GeometryError."""
    source = example1(1.0, 1.0)
    t0 = time.perf_counter()
    mesh = build_mesh(level, source.interface, depth=config.depth, n_override=config.cells_for_level(level))
    t1 = time.perf_counter()
    geometries = build_cut_geometries(mesh, config.k, config.quad_offset)
    t2 = time.perf_counter()
    plan = build_level_plan(mesh, config.k, source.f, config.quad_offset, geometries)
    t3 = time.perf_counter()
    line = (
        f"level={level} N={mesh.n_cells} cut={len(mesh.cuts)} "
        f"quad_points={len(geometries.rule_weights)} mesh={t1 - t0:.3f}s geometry={t2 - t1:.3f}s "
        f"plan={t3 - t2:.3f}s neg_weights={int((geometries.rule_weights < 0).sum())}"
    )
    return mesh, plan, line


def _study_level(config: RunConfig, level: int, reports: dict, failed: set, log, ahead=None) -> int:
    """Every pair not yet failed on one level; returns 1 if one fails now, else 0.

    The mesh, the cut geometry and the level plan (example 1's source is
    one function for every pair) are shared by the pairs. ``ahead`` is the
    level as ``_start_finest`` prepared it: a pair assembled there joins the
    factor started in the worker, and any other pair is assembled here. Each
    pair's system is freed once it is solved and its spaces after the one
    ``compute_errors`` pass that serves every solved pair (each pair's time
    takes an even share of it); the lines are logged in pair order. A level failing
    to build raises GeometryError.
    """
    mesh, plan, line, prepared = ahead or (*_build_level(config, level), {})
    log(line)
    mode = config.resolved_mode()
    solved, outcomes = [], []  # outcomes: (pair, failure message or (stats, fields, own time))
    for pair in config.pairs:
        if pair in failed:
            continue
        ms = example1(*pair)
        t0 = time.perf_counter()
        try:
            # [assembled, factor] (and a prepared pair's clock), popped so that the solve holds their one references.
            job = prepared.pop(pair, None) or [assemble_system(plan, ms.a1, ms.a2, ms.g, mode), None]
            entry, stats, fields = _solve_pair(config, level, mesh, plan, ms, job.pop(0), job.pop(0))
        except (GeometryError, IfeError, SolverError) as exc:
            outcomes.append((pair, str(exc)))  # not exc, whose traceback holds the system
            continue
        elapsed = time.perf_counter() - t0
        if job:  # a prepared pair's time before t0: its assembly, and its factorization up to t0
            assembly_s, start, end = job.pop()
            elapsed += assembly_s + min(end.result(), t0) - start.result()
        solved.append(entry)
        outcomes.append((pair, (stats, fields, elapsed)))
    t0 = time.perf_counter()
    errors = iter(compute_errors(plan, solved))
    share = (time.perf_counter() - t0) / max(len(solved), 1)
    code = 0
    for pair, outcome in outcomes:
        name = f"k={config.k} (A1,A2)=({pair[0]:g},{pair[1]:g}) level={level}"
        if isinstance(outcome, str):
            log(f"FAILED {name}: {outcome}")
            failed.add(pair)
            code = 1
            continue
        stats, fields, elapsed = outcome
        err, elapsed = next(errors), elapsed + share
        reports[pair].add_level(level, mesh.h, err, elapsed, stats)
        log(
            f"{name} N={mesh.n_cells}: energy={err['energy']:.4e} l2={err['l2']:.4e} linf={err['linf']:.4e} "
            f"{fields} [{elapsed:.2f}s]"
        )
    return code


def _overlaps_finest(config: RunConfig) -> bool:
    """Whether ``run_study`` factors the finest level while the coarser levels run.

    SuperLU's factorization releases the GIL; CG's Python loop does not. With
    several pairs, overlapping the finest level's first factor left
    ``study_k1`` flat (0.94 -> 0.91 s) for a peak of 127.5 MB against
    101.8 MB.
    """
    nodes = (config.k * config.cells_for_level(config.levels[-1])) ** 2
    one_direct_pair = len(config.pairs) == 1 and config.solver == "cholesky"
    return one_direct_pair and len(config.levels) > 1 and nodes >= OVERLAP_MIN_NODES


def _start_finest(config: RunConfig, worker):
    """The finest level of a one-pair study, built with its pair's factor started in ``worker``.

    The pair's K is kept in CSC form only, and ``superlu`` factors it while
    the coarser levels run; ``_study_level`` (given this as ``ahead``) joins
    the factor, and ``solve`` checks its pivots on this thread. Returns None
    if the finest level cannot be prepared.
    """
    (pair,) = config.pairs
    try:
        ms = example1(*pair)
        mesh, plan, line = _build_level(config, config.levels[-1])
        t0 = time.perf_counter()
        assembled = assemble_system(plan, ms.a1, ms.a2, ms.g, config.resolved_mode())
        assembled[0].matrix = assembled[0].matrix.tocsc()
        assembly_s = time.perf_counter() - t0
        # The one worker runs its calls in order, so these clock reads
        # time the factorization without running Python in the worker.
        start = worker.submit(time.perf_counter)
        factor = worker.submit(superlu, assembled[0].matrix)
        clock = (assembly_s, start, worker.submit(time.perf_counter))
    except Exception:
        # A typed error, or memory that the early finest level ran out
        # of: the plain schedule meets it again in its place, or not at all.
        return None
    return mesh, plan, line, {pair: [assembled, factor, clock]}


def run_study(config: RunConfig, log=print) -> tuple[list[ConvergenceReport], int]:
    """Run the full (pair, level) matrix; returns reports and an exit code.

    Levels form the outer loop so the mesh, the cut geometry and the level
    plan are built once per level and shared by all coefficient pairs. The
    levels run in turn through ``_study_level`` until one fails to build or
    every pair has failed. Some one-pair studies factor the finest level
    while the coarser levels run (``_start_finest``), with the same output:
    its lines follow the coarser levels', and if the pair fails on a coarser
    level, or one fails to build, the finest level is dropped unlogged.
    """
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    mode = config.resolved_mode()
    reports = {
        (a1, a2): ConvergenceReport(k=config.k, a1=a1, a2=a2, mode=mode, depth=config.depth)
        for a1, a2 in config.pairs
    }
    failed, exit_code = set(), 0
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = {config.levels[-1]: _start_finest(config, worker)} if _overlaps_finest(config) else {}
        for level in config.levels:
            if len(failed) == len(config.pairs):
                break
            try:
                exit_code |= _study_level(config, level, reports, failed, log, ahead.pop(level, None))
            except GeometryError as exc:
                log(f"FAILED building level {level}: {exc}")
                exit_code = 1
                break

    out = []
    for (a1, a2), report in reports.items():
        if not report.levels:
            continue
        out.append(report)
        log("")
        log(report.format_table())
        log("")
        if out_dir is not None:
            tag = f"k{config.k}_A{a1:g}_{a2:g}"
            report.write_csv(out_dir / f"convergence_{tag}.csv")
            report.write_plot_data(out_dir / f"plot_{tag}.txt")
    return out, exit_code


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = (int(p) for p in text.split(".."))
            levels = range(lo, hi + 1)
        else:
            levels = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"levels must be A..B or a comma list of integers, got {text!r}") from exc
    if not levels:
        raise ValueError(f"level range {text!r} is empty or decreasing")
    if isinstance(levels, range):  # refused before it is built
        _check_span(levels[0], levels[-1], what=f"level range {text!r}: ")
    return tuple(levels)


def _parse_pairs(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"coefficient pair {chunk!r} must be 'A1,A2'")
        pairs.append((float(parts[0]), float(parts[1])))
    return tuple(pairs)


# RunConfig fields whose config-file key (and flag name) differs from the
# field name; every other field is its own key.
_FIELD_KEYS = {"pairs": "coeffs", "ife_mode": "ife", "out_dir": "out"}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
_KEY_TO_FIELD = {_FIELD_KEYS.get(field, field): field for field in _DEFAULTS}
_BOOLEANS = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}


def _parse_value(field: str, text: str):
    """A config-file or flag value for ``field``, typed like the field's default."""
    if field == "levels":
        return _parse_levels(text)
    if field == "pairs":
        return _parse_pairs(text)
    default = _DEFAULTS[field]
    if isinstance(default, bool):
        if text.lower() not in _BOOLEANS:
            raise ValueError(f"{_FIELD_KEYS.get(field, field)} must be one of {'/'.join(_BOOLEANS)}, got {text!r}")
        return _BOOLEANS[text.lower()]
    if isinstance(default, int):
        return int(text)
    return text


def load_config_file(path) -> dict:
    """key=value per line; '#' comments; unknown keys rejected."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TO_FIELD:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[_KEY_TO_FIELD[key]] = _parse_value(_KEY_TO_FIELD[key], val)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwgfem",
        description="Convergence studies for the immersed WG-CG interface solver on [-1,1]^2.",
    )
    parser.add_argument("--k", help="polynomial degree (1 or 2); default 1")
    parser.add_argument("--levels", help="level range A..B or comma list; default 1..5")
    parser.add_argument(
        "--coeffs",
        help="coefficient pairs 'A1,A2[;A1,A2...]'; default '1,1;1,10;1,100;1,1000'",
    )
    parser.add_argument("--depth", help="arc-subdivision depth for cut quadrature; default 6")
    parser.add_argument("--quad-offset", help="extra quadrature degree; default 0")
    parser.add_argument("--ife", choices=("auto", "segment", "arc"), help="constraint realization")
    parser.add_argument("--solver", choices=("cholesky", "cg"), help="linear solver; default cholesky")
    parser.add_argument("--out", help="output directory for CSV / plot data")
    parser.add_argument(
        "--n-level1", help="cells per side at the first level (doubles per level); default 8"
    )
    parser.add_argument("--dump-mesh", action="store_const", const="true", help="write mesh listings")
    parser.add_argument("--dump-matrix", action="store_const", const="true", help="write matrix dumps")
    parser.add_argument("--config", help="key=value config file (flags win)")
    return parser


def config_from_argv(argv=None) -> RunConfig:
    """The validated configuration of a command line: config file, then flags.

    Raises ValueError or TypeError on malformed input, OSError on an
    unreadable config file.
    """
    args = build_parser().parse_args(argv)
    values = load_config_file(args.config) if args.config else {}
    for key, field in _KEY_TO_FIELD.items():
        text = getattr(args, key)
        if text is not None:
            values[field] = _parse_value(field, text)
    return RunConfig(**values)


def main(argv=None) -> int:
    try:
        config = config_from_argv(argv)
        if config.out_dir:  # an existing file there is a config error, not a traceback
            Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _, exit_code = run_study(config)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
