import csv
import dataclasses
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iwgfem.analysis
import iwgfem.assembly
import iwgfem.cli
from iwgfem.assembly import build_cut_geometries
from iwgfem.cli import (
    _KEY_TO_FIELD,
    RunConfig,
    _parse_levels,
    _overlaps_finest,
    _parse_pairs,
    config_from_argv,
    load_config_file,
    main,
    run_study,
)
from iwgfem.geometry import CircleInterface, GeometryError
from iwgfem.mesh import build_mesh
from iwgfem.solver import NotPositiveDefinite


class TestParsing:
    def test_levels_range(self):
        assert _parse_levels("1..5") == (1, 2, 3, 4, 5)
        assert _parse_levels("2,4") == (2, 4)

    def test_pairs(self):
        assert _parse_pairs("1,1;1,10") == ((1.0, 1.0), (1.0, 10.0))
        assert _parse_pairs("2.5,7") == ((2.5, 7.0),)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(k=3)
        with pytest.raises(ValueError):
            RunConfig(levels=(3, 2))
        with pytest.raises(ValueError, match="levels must be strictly increasing"):
            RunConfig(levels=(1, 1, 2))
        with pytest.raises(ValueError, match="coefficient pairs must be distinct"):
            RunConfig(pairs=((1.0, 10.0), (1.0, 10.0)))
        with pytest.raises(ValueError):
            RunConfig(pairs=((0.0, 1.0),))
        with pytest.raises(ValueError):
            RunConfig(ife_mode="exact")
        with pytest.raises(ValueError):
            RunConfig(solver="lu")
        # Deeper arc subdivisions would run out of memory, not fail cleanly.
        for depth in (-1, 13, 64):
            with pytest.raises(ValueError, match="depth must be in 0..12"):
                RunConfig(depth=depth)
        assert RunConfig(depth=12).depth == 12
        for offset in (-1, 17, 128):
            with pytest.raises(ValueError, match="quad-offset must be in 0..16"):
                RunConfig(quad_offset=offset)
        assert RunConfig(quad_offset=16).quad_offset == 16
        # A finer finest level would run out of memory, not fail cleanly.
        assert RunConfig(levels=(1, 2, 3, 4, 5, 6)).cells_for_level(6) == 256
        for levels, n_level1 in [((1, 2, 3, 4, 5, 6, 7), 8), ((3,), 257)]:
            with pytest.raises(ValueError, match="at most 256 cells per side"):
                RunConfig(levels=levels, n_level1=n_level1)

    def test_mode_resolution(self):
        assert RunConfig(k=1).resolved_mode() == "segment"
        assert RunConfig(k=2).resolved_mode() == "arc"
        assert RunConfig(k=2, ife_mode="segment").resolved_mode() == "segment"

    def test_cells_per_level_double(self):
        config = RunConfig(levels=(1, 2, 3), n_level1=8)
        assert [config.cells_for_level(l) for l in (1, 2, 3)] == [8, 16, 32]


# Config keys, and random names that argparse may take for a flag or an
# abbreviation of one, but never for --help or --config: the test reads no
# path it did not write.
_KEYS = st.one_of(
    st.sampled_from(sorted(_KEY_TO_FIELD)),
    st.from_regex(r"[a-z][a-z0-9_-]{0,9}", fullmatch=True).filter(
        lambda key: not any(name.startswith(key.replace("_", "-")) for name in ("help", "config"))
    ),
)
# Random text, and integers, comma lists and ranges written as text. A value
# never starts like an option (a dash and a letter), which argparse would
# take for one after a flag that takes no value.
_VALUES = st.one_of(
    st.text(max_size=16),
    st.integers().map(str),
    st.lists(st.integers(min_value=0), min_size=1, max_size=3).map(lambda ints: ",".join(map(str, ints))),
    st.tuples(st.integers(), st.integers()).map(lambda ends: f"{ends[0]}..{ends[1]}"),
).filter(lambda value: re.match(r"-+[A-Za-z]", value) is None)


class TestConfigSurface:
    @settings(deadline=None, max_examples=300)
    @given(
        flags=st.lists(st.tuples(_KEYS, _VALUES), max_size=4),
        lines=st.lists(st.tuples(_KEYS, _VALUES), max_size=4),
        use_file=st.booleans(),
    )
    @example(flags=[("levels", "1,1000000000000000000")], lines=[], use_file=False)
    @example(flags=[], lines=[("levels", "2,1000000000000000000")], use_file=True)
    def test_any_flags_and_file_give_a_config_or_a_config_error(self, flags, lines, use_file):
        # config_from_argv returns a RunConfig, raises what main reports as a
        # config error, or exits through argparse with code 2; it runs no study.
        argv = [token for key, value in flags for token in (f"--{key.replace('_', '-')}", value)]
        with tempfile.TemporaryDirectory() as tmp:
            if use_file:
                path = Path(tmp) / "study.cfg"
                path.write_bytes("".join(f"{key} = {value}\n" for key, value in lines).encode())
                argv += ["--config", str(path)]
            try:
                config = config_from_argv(argv)
            except (ValueError, TypeError, OSError):
                return
            except SystemExit as exc:
                assert exc.code == 2
                return
        assert isinstance(config, RunConfig)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("k = 2\nlevels = 1..3\ncoeffs = 1,10\nife = arc\n# comment\n")
        values = load_config_file(path)
        assert values == {
            "k": 2,
            "levels": (1, 2, 3),
            "pairs": ((1.0, 10.0),),
            "ife_mode": "arc",
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("penalty = 7\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(path)

    def test_flags_win_over_file(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("k = 2\nlevels = 1..1\ncoeffs = 1,1\n")
        config = config_from_argv(["--config", str(path), "--k", "1"])
        assert config.k == 1
        assert config.levels == (1,) and config.pairs == ((1.0, 1.0),)

    def test_a_boolean_is_one_of_six_words_in_any_case(self, tmp_path, capsys):
        path = tmp_path / "study.cfg"
        for text, value in [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("No", False)]:
            path.write_text(f"dump_mesh = {text}\n")
            assert load_config_file(path) == {"dump_mesh": value}, text
        # A typo used to read as false and run with no dumps.
        path.write_text("dump_mesh = ture\n")
        message = "dump_mesh must be one of 1/0/true/false/yes/no, got 'ture'"
        with pytest.raises(ValueError, match=message):
            load_config_file(path)
        assert main(["--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    # One value per RunConfig field, unlike its default: (config text, value).
    SETTINGS = {
        "k": ("2", 2),
        "levels": ("2..3", (2, 3)),
        "pairs": ("1,10;2,20", ((1.0, 10.0), (2.0, 20.0))),
        "depth": ("4", 4),
        "quad_offset": ("1", 1),
        "ife_mode": ("arc", "arc"),
        "solver": ("cg", "cg"),
        "out_dir": ("results", "results"),
        "n_level1": ("16", 16),
        "dump_mesh": ("true", True),
        "dump_matrix": ("yes", True),
    }

    def test_every_field_settable_from_file_and_flag(self, tmp_path):
        assert set(self.SETTINGS) == {f.name for f in dataclasses.fields(RunConfig)}
        keys = {field: key for key, field in _KEY_TO_FIELD.items()}
        for field, (text, value) in self.SETTINGS.items():
            assert getattr(RunConfig(), field) != value, field
            path = tmp_path / f"{field}.cfg"
            path.write_text(f"{keys[field]} = {text}\n")
            assert getattr(config_from_argv(["--config", str(path)]), field) == value, field
            flag = "--" + keys[field].replace("_", "-")
            argv = [flag] if isinstance(value, bool) else [flag, text]
            assert getattr(config_from_argv(argv), field) == value, field


class TestRunStudy:
    def test_single_level_empty_orders(self, tmp_path):
        config = RunConfig(
            k=1, levels=(1,), pairs=((1.0, 1.0),), out_dir=str(tmp_path), n_level1=4
        )
        reports, code = run_study(config, log=lambda *a: None)
        assert code == 0
        csv_path = tmp_path / "convergence_k1_A1_1.csv"
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "level",
            "h",
            "energy_err",
            "energy_order",
            "l2_err",
            "l2_order",
            "linf_err",
            "linf_order",
        ]
        assert len(rows) == 2
        assert rows[1][3] == "" and rows[1][5] == "" and rows[1][7] == ""

    def test_multi_level_csv_and_plot_data(self, tmp_path):
        config = RunConfig(
            k=1, levels=(1, 2), pairs=((1.0, 10.0),), out_dir=str(tmp_path), n_level1=4
        )
        reports, code = run_study(config, log=lambda *a: None)
        assert code == 0
        (report,) = reports
        orders = report.orders("l2")
        assert len(orders) == 1
        plot = (tmp_path / "plot_k1_A1_10.txt").read_text().splitlines()
        assert plot[0].startswith("#")
        assert len(plot) == 3

    def test_bit_reproducible(self, tmp_path):
        config = RunConfig(k=1, levels=(1, 2), pairs=((1.0, 10.0),), n_level1=4)
        r1, _ = run_study(config, log=lambda *a: None)
        r2, _ = run_study(config, log=lambda *a: None)
        assert r1[0].energy == r2[0].energy
        assert r1[0].l2 == r2[0].l2
        assert r1[0].linf == r2[0].linf

    def test_dumps(self, tmp_path):
        config = RunConfig(
            k=1,
            levels=(1,),
            pairs=((1.0, 1.0),),
            out_dir=str(tmp_path),
            n_level1=4,
            dump_mesh=True,
            dump_matrix=True,
        )
        _, code = run_study(config, log=lambda *a: None)
        assert code == 0
        assert (tmp_path / "mesh_k1_A1_1_level1.txt").exists()
        assert (tmp_path / "matrix_k1_A1_1_level1.txt").exists()


class TestLevelPlanSharing:
    @staticmethod
    def _study_calls(monkeypatch, module, name) -> list:
        """The arguments of every call of ``module.name`` in a two-level, three-pair study."""
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        config = RunConfig(k=1, levels=(1, 2), pairs=((1.0, 1.0), (1.0, 10.0), (1.0, 1000.0)), n_level1=4)
        assert run_study(config, log=lambda *a: None)[1] == 0
        return calls

    def test_source_sampled_at_most_twice_per_level(self, monkeypatch):
        calls = self._study_calls(monkeypatch, iwgfem.analysis, "example1_source")
        assert 0 < len(calls) <= 2 * 2

    def test_solution_profile_sampled_per_level_not_per_pair(self, monkeypatch):
        # Example 1's u profile is cos(pi r^2). A level's one error pass
        # samples it once per block of each side's non-interface elements
        # and once on the packed cut-cell points and the edge points together,
        # whatever the number of pairs it serves.
        calls, passes = [], []
        cos, compute_errors = iwgfem.analysis.example1_cos, iwgfem.cli.compute_errors

        def counted(*args):
            calls.append(1)
            return cos(*args)

        def counted_pass(plan, solved):
            before = len(calls)
            out = compute_errors(plan, solved)
            passes.append((len(solved), len(calls) - before))
            return out

        monkeypatch.setattr(iwgfem.analysis, "example1_cos", counted)
        monkeypatch.setattr(iwgfem.cli, "compute_errors", counted_pass)
        for pairs in (((1.0, 1.0),), ((1.0, 1.0), (1.0, 10.0), (1.0, 1000.0))):
            config = RunConfig(k=1, levels=(1, 2), pairs=pairs, n_level1=4)
            assert run_study(config, log=lambda *a: None)[1] == 0
        assert passes == [(1, 2 + 1), (1, 2 + 1), (3, 2 + 1), (3, 2 + 1)]

    def test_dof_map_built_once_per_level(self, monkeypatch):
        calls = self._study_calls(monkeypatch, iwgfem.assembly, "build_dof_map")
        assert [mesh.n_cells for mesh, _ in calls] == [4, 8]

    @pytest.mark.parametrize("k", [1, 2])
    def test_csvs_do_not_depend_on_the_other_pairs_or_their_order(self, tmp_path, k, monkeypatch):
        # With the node gate at 0 the one-pair studies overlap their finest
        # level's factor, and the two-pair ones take the plain schedule.
        monkeypatch.setattr(iwgfem.cli, "OVERLAP_MIN_NODES", 0)
        pairs = ((1.0, 1.0), (1.0, 1000.0))

        def csvs(name, study_pairs):
            out = tmp_path / name
            config = RunConfig(k=k, levels=(1, 2, 3), pairs=study_pairs, n_level1=4, out_dir=str(out))
            assert run_study(config, log=lambda *a: None)[1] == 0
            return {p.name: p.read_bytes() for p in out.glob("convergence_*.csv")}

        both = csvs("both", pairs)
        assert csvs("reversed", pairs[::-1]) == both
        alone = {}
        for i, pair in enumerate(pairs):
            alone.update(csvs(f"alone{i}", (pair,)))
        assert alone == both and len(both) == 2


def test_a_pair_failing_between_two_keeps_its_place_in_the_log(monkeypatch):
    # The lines of a level are logged after its one error pass over the
    # solved pairs, still in pair order, with the FAILED line in its place.
    solves, passes = [], []
    solve, compute_errors = iwgfem.cli.solve, iwgfem.cli.compute_errors

    def failing(*args, **kwargs):
        solves.append(1)
        if len(solves) == 2:
            raise NotPositiveDefinite("non-positive pivot in symmetric factorization")
        return solve(*args, **kwargs)

    def counted(plan, solved):
        passes.append([(ms.a1, ms.a2) for _, ms, _ in solved])
        return compute_errors(plan, solved)

    monkeypatch.setattr(iwgfem.cli, "solve", failing)
    monkeypatch.setattr(iwgfem.cli, "compute_errors", counted)
    config = RunConfig(k=1, levels=(1, 2), pairs=((1.0, 1.0), (1.0, 10.0), (1.0, 1000.0)), n_level1=4)
    lines = []
    reports, code = run_study(config, log=lines.append)
    assert code == 1
    assert passes == [[(1.0, 1.0), (1.0, 1000.0)]] * 2
    heads = [" ".join(l.split()[:3]) for l in lines[: lines.index("")]]
    assert heads == [
        "level=1 N=4 cut=18",
        "k=1 (A1,A2)=(1,1) level=1",
        "FAILED k=1 (A1,A2)=(1,10)",
        "k=1 (A1,A2)=(1,1000) level=1",
        "level=2 N=8 cut=34",
        "k=1 (A1,A2)=(1,1) level=2",
        "k=1 (A1,A2)=(1,1000) level=2",
    ]
    assert [(r.a2, r.levels) for r in reports] == [(1.0, [1, 2]), (1000.0, [1, 2])]


@pytest.mark.parametrize("overlap", [False, True])
def test_every_system_is_freed_before_its_level_error_pass(monkeypatch, overlap):
    # A pair keeps its spaces for the level's one error pass, but not its
    # system: each of the level's GlobalSystems must be gone when
    # compute_errors runs, the overlapped finest level's (assembled ahead,
    # while the coarser levels run) included.
    systems, passes = [], []
    assemble, compute_errors = iwgfem.cli.assemble_system, iwgfem.cli.compute_errors

    def tracked(plan, *args, **kwargs):
        system, spaces = assemble(plan, *args, **kwargs)
        systems.append((plan, weakref.ref(system)))
        return system, spaces

    def checked(plan, solved):
        refs = [ref for of, ref in systems if of is plan]
        passes.append((len(refs), all(ref() is None for ref in refs)))
        return compute_errors(plan, solved)

    monkeypatch.setattr(iwgfem.cli, "OVERLAP_MIN_NODES", 0 if overlap else iwgfem.cli.OVERLAP_MIN_NODES)
    monkeypatch.setattr(iwgfem.cli, "assemble_system", tracked)
    monkeypatch.setattr(iwgfem.cli, "compute_errors", checked)
    pairs = ((1.0, 1000.0),) if overlap else ((1.0, 1.0), (1.0, 10.0), (1.0, 1000.0))
    config = RunConfig(k=2, levels=(1, 2, 3), pairs=pairs, n_level1=4)
    assert _overlaps_finest(config) == overlap
    assert run_study(config, log=lambda *a: None)[1] == 0
    assert passes == [(len(pairs), True)] * 3


@pytest.mark.parametrize("overlap", [False, True])
def test_the_error_pass_gets_spaces_without_stiffness(monkeypatch, overlap):
    # Nothing after assembly reads a pair's stiffness blocks, so the spaces
    # kept for the level's one error pass hold none.
    passes = []
    compute_errors = iwgfem.cli.compute_errors

    def checked(plan, solved):
        passes.append([spaces.stiffness is None for _, _, spaces in solved])
        return compute_errors(plan, solved)

    monkeypatch.setattr(iwgfem.cli, "OVERLAP_MIN_NODES", 0 if overlap else iwgfem.cli.OVERLAP_MIN_NODES)
    monkeypatch.setattr(iwgfem.cli, "compute_errors", checked)
    pairs = ((1.0, 1000.0),) if overlap else ((1.0, 1.0), (1.0, 1000.0))
    config = RunConfig(k=2, levels=(1, 2), pairs=pairs, n_level1=4)
    assert _overlaps_finest(config) == overlap
    assert run_study(config, log=lambda *a: None)[1] == 0
    assert passes == [[True] * len(pairs)] * 2


def _strip_times(lines: list[str]) -> list[str]:
    """Log lines without the setup and per-pair times."""
    return [re.sub(r" (mesh|geometry|plan)=[0-9.]+s| \[[0-9.]+s\]", "", line) for line in lines]


class TestOverlappedFinestLevel:
    """A one-pair direct-solve study factors its finest level while the coarser levels run.

    The node gate is patched to 0 so that small studies take that schedule;
    at its own value these studies take the plain one.
    """

    GATE = iwgfem.cli.OVERLAP_MIN_NODES

    def _study(self, config, monkeypatch, overlap: bool):
        monkeypatch.setattr(iwgfem.cli, "OVERLAP_MIN_NODES", 0 if overlap else self.GATE)
        assert _overlaps_finest(config) == overlap
        lines = []
        _, code = run_study(config, log=lines.append)
        return lines, code

    def test_which_studies_overlap(self):
        assert _overlaps_finest(RunConfig(k=2, levels=(1, 2, 3, 4, 5), pairs=((1.0, 1000.0),)))
        assert not _overlaps_finest(RunConfig(k=1))  # four pairs
        assert not _overlaps_finest(RunConfig(k=2, levels=(1, 2, 3, 4, 5), pairs=((1.0, 1000.0),), solver="cg"))
        assert not _overlaps_finest(RunConfig(k=2, levels=(5,), n_level1=128, pairs=((1.0, 1000.0),)))
        # (k N)^2 = 128^2 nodes, under the gate.
        assert not _overlaps_finest(RunConfig(k=1, levels=(1, 2, 3, 4, 5), pairs=((1.0, 1000.0),)))

    @pytest.mark.parametrize("k", [1, 2])
    def test_same_log_and_files_as_the_plain_schedule(self, tmp_path, monkeypatch, k):
        joined = []
        solve = iwgfem.cli.solve

        def spied(*args, factor=None, **kwargs):
            joined.append(factor is not None)
            return solve(*args, factor=factor, **kwargs)

        runs = {}
        for overlap in (False, True):
            out = tmp_path / str(overlap)
            config = RunConfig(
                k=k, levels=(1, 2, 3), pairs=((1.0, 1000.0),), n_level1=4, out_dir=str(out),
                dump_mesh=True, dump_matrix=True,
            )
            monkeypatch.setattr(iwgfem.cli, "solve", spied)
            lines, code = self._study(config, monkeypatch, overlap)
            assert code == 0
            runs[overlap] = _strip_times(lines), {p.name: p.read_bytes() for p in out.iterdir()}
        # Only the second study's finest solve joined a factor from the worker.
        assert joined == [False] * 5 + [True]
        assert runs[True] == runs[False]
        assert len(runs[True][1]) == 2 + 2 * 3  # CSV, plot data, and a mesh and a matrix per level

    def test_a_pair_failing_on_a_coarser_level_drops_the_finest_level(self, tmp_path, monkeypatch):
        calls = []
        solve = iwgfem.cli.solve

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NotPositiveDefinite("non-positive pivot in symmetric factorization")
            return solve(*args, **kwargs)

        monkeypatch.setattr(iwgfem.cli, "solve", failing)
        runs = {}
        for overlap in (False, True):
            calls.clear()
            out = tmp_path / str(overlap)
            config = RunConfig(k=1, levels=(1, 2, 3), pairs=((1.0, 10.0),), n_level1=4, out_dir=str(out))
            lines, code = self._study(config, monkeypatch, overlap)
            assert code == 1
            runs[overlap] = lines
            with open(out / "convergence_k1_A1_10.csv") as fh:
                assert [row[0] for row in csv.reader(fh)] == ["level", "1"]
        failed = "FAILED k=1 (A1,A2)=(1,10) level=2: non-positive pivot in symmetric factorization"
        for lines in runs.values():
            assert [l for l in lines if l.startswith("FAILED")] == [failed]
            assert not any("level=3" in l for l in lines)

    def test_no_level_is_built_once_every_pair_has_failed(self, monkeypatch):
        built, solves = [], []
        build, solve = iwgfem.cli.build_mesh, iwgfem.cli.solve

        def counted_build(*args, **kwargs):
            built.append(kwargs["n_override"])
            return build(*args, **kwargs)

        def failing(*args, **kwargs):
            solves.append(1)
            if len(solves) == 2:
                raise NotPositiveDefinite("non-positive pivot in symmetric factorization")
            return solve(*args, **kwargs)

        monkeypatch.setattr(iwgfem.cli, "build_mesh", counted_build)
        monkeypatch.setattr(iwgfem.cli, "solve", failing)
        config = RunConfig(k=1, levels=(1, 2, 3), pairs=((1.0, 10.0),), n_level1=4)
        lines, code = self._study(config, monkeypatch, overlap=False)
        assert code == 1
        assert built == [4, 8]  # no third build_mesh call
        assert not any("level=3" in l for l in lines)
        assert [l.split()[0] for l in lines[:4]] == ["level=1", "k=1", "level=2", "FAILED"]

    def test_the_finest_level_failing_to_build_is_met_in_its_place(self, monkeypatch):
        build = iwgfem.cli.build_mesh

        def failing(level, interface, depth=6, n_override=None):
            if n_override == 16:
                raise GeometryError("interface cuts 1 edges of element 38; expected 2")
            return build(level, interface, depth=depth, n_override=n_override)

        config = RunConfig(k=1, levels=(1, 2, 3), pairs=((1.0, 10.0),), n_level1=4)
        runs = {}
        monkeypatch.setattr(iwgfem.cli, "build_mesh", failing)
        for overlap in (False, True):
            lines, code = self._study(config, monkeypatch, overlap)
            assert code == 1
            runs[overlap] = _strip_times(lines)
        assert runs[True] == runs[False]
        study = runs[True][: runs[True].index("")]
        assert [l.split()[0] for l in study] == ["level=1", "k=1", "level=2", "k=1", "FAILED"]
        assert study[-1] == "FAILED building level 3: interface cuts 1 edges of element 38; expected 2"

    def test_the_finest_factor_is_freed_before_its_error_pass(self, monkeypatch):
        # scipy's SuperLU takes no weak reference, so the worker's factor is
        # wrapped in an object that does and delegates to it. Its L and U
        # must be gone before the finest level's error pass runs.
        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def __getattr__(self, name):
                return getattr(self.lu, name)

        factors, dead = [], []
        superlu, compute_errors = iwgfem.cli.superlu, iwgfem.cli.compute_errors

        def wrapped(*args, **kwargs):
            factor = Factor(superlu(*args, **kwargs))
            factors.append(weakref.ref(factor))
            return factor

        def checked(*args, **kwargs):
            dead.append(all(ref() is None for ref in factors))
            return compute_errors(*args, **kwargs)

        monkeypatch.setattr(iwgfem.cli, "superlu", wrapped)
        monkeypatch.setattr(iwgfem.cli, "compute_errors", checked)
        config = RunConfig(k=2, levels=(1, 2, 3), pairs=((1.0, 1000.0),), n_level1=4)
        _, code = self._study(config, monkeypatch, overlap=True)
        assert code == 0
        assert len(factors) == 1 and len(dead) == 3
        assert dead[-1]

    def test_the_finest_time_counts_its_hidden_factorization(self, monkeypatch):
        # The worker's factorization takes over 0.5 s and the coarser level
        # longer, so the factor is done before the finest solve joins it. The
        # pair's logged time must still count it.
        factored, joined = [], []
        build, superlu, solve = iwgfem.cli.build_mesh, iwgfem.cli.superlu, iwgfem.cli.solve

        def slow_build(*args, **kwargs):
            if kwargs["n_override"] == 4:  # the coarser level
                time.sleep(0.6)
            return build(*args, **kwargs)

        def slow_superlu(*args, **kwargs):
            time.sleep(0.5)
            lu = superlu(*args, **kwargs)
            factored.append(time.perf_counter())
            return lu

        def timed(*args, factor=None, **kwargs):
            if factor is not None:
                joined.append(time.perf_counter())
            return solve(*args, factor=factor, **kwargs)

        monkeypatch.setattr(iwgfem.cli, "build_mesh", slow_build)
        monkeypatch.setattr(iwgfem.cli, "superlu", slow_superlu)
        monkeypatch.setattr(iwgfem.cli, "solve", timed)
        config = RunConfig(k=2, levels=(1, 2), pairs=((1.0, 1000.0),), n_level1=4)
        lines, code = self._study(config, monkeypatch, overlap=True)
        assert code == 0
        assert len(factored) == len(joined) == 1 and factored[0] < joined[0]
        (finest,) = [l for l in lines if l.startswith("k=2 (A1,A2)=(1,1000) level=2 ")]
        assert float(re.search(r"\[([0-9.]+)s\]$", finest).group(1)) >= 0.5

    def test_no_thread_left_behind(self, monkeypatch):
        monkeypatch.setattr(iwgfem.cli, "OVERLAP_MIN_NODES", 0)
        config = RunConfig(k=2, levels=(1, 2, 3), pairs=((1.0, 1000.0),), n_level1=4)
        threads = threading.active_count()
        assert run_study(config, log=lambda *a: None)[1] == 0
        assert threading.active_count() == threads

        build = iwgfem.cli.build_mesh

        def unexpected(level, interface, depth=6, n_override=None):
            if n_override == 4:
                raise RuntimeError("unexpected")
            return build(level, interface, depth=depth, n_override=n_override)

        monkeypatch.setattr(iwgfem.cli, "build_mesh", unexpected)
        with pytest.raises(RuntimeError, match="unexpected"):
            run_study(config, log=lambda *a: None)
        assert threading.active_count() == threads


class TestMain:
    def test_quick_invocation(self, tmp_path, capsys):
        code = main(
            ["--k", "1", "--levels", "1..1", "--coeffs", "1,1", "--n-level1", "4",
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "energy=" in out
        # Size and health figures of the solve ride on the same line.
        line = next(l for l in out.splitlines() if "energy=" in l)
        for field in ("free=", "nnz=", "gram_cond=", "constraint=", "asym=", "iters=", "refine=", "fallback="):
            assert field in line, field
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok and "(" not in tok)
        assert int(fields["free"]) > 0 and int(fields["nnz"]) > 0
        assert int(fields["iters"]) == 0  # direct solve
        assert int(fields["refine"]) > 0 and fields["fallback"] == "False"  # float32 factor, refined
        assert 1.0 <= float(fields["gram_cond"]) < 1e12
        assert float(fields["constraint"]) < 1e-10
        assert float(fields["asym"]) < 1e-12

    def test_level_setup_line(self, capsys):
        # One line per level gives the sizes and the setup time the pairs share.
        code = main(["--k", "2", "--levels", "1..2", "--coeffs", "1,10", "--n-level1", "4", "--depth", "2"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("level=")]
        assert len(lines) == 2
        for level, line in zip((1, 2), lines):
            fields = dict(tok.split("=", 1) for tok in line.split())
            assert list(fields) == ["level", "N", "cut", "quad_points", "mesh", "geometry", "plan", "neg_weights"]
            assert int(fields["level"]) == level and int(fields["N"]) == 4 * level
            # A chord splits a triangle into a triangle and a quadrilateral;
            # at depth 2 the arc adds 3 vertices to each, so the two fans have
            # 4 + 5 triangles, of 25 points each at k = 2.
            cut = int(fields["cut"])
            assert cut > 0 and int(fields["quad_points"]) == cut * (4 + 5) * 25
            assert float(fields["mesh"].rstrip("s")) >= 0.0
            assert float(fields["geometry"].rstrip("s")) >= 0.0
            assert float(fields["plan"].rstrip("s")) >= 0.0
            # No cut is deeper than the fan rules, so no weight is fitted.
            assert int(fields["neg_weights"]) == 0

    def test_level_setup_line_counts_the_negative_fitted_weights(self, capsys):
        # At depth 6 and k = 2 the moment fit leaves some sliver sides with
        # negative weights; the line counts those of the packed rule.
        code = main(["--k", "2", "--levels", "1", "--coeffs", "1,10", "--n-level1", "32"])
        assert code == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("level="))
        fields = dict(tok.split("=", 1) for tok in line.split())
        weights = build_cut_geometries(build_mesh(1, CircleInterface(), n_override=32), 2).rule_weights
        assert int(fields["neg_weights"]) == int((weights < 0).sum()) > 0

    def test_bad_flag_value(self):
        assert main(["--k", "7"]) == 2

    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense\n")
        assert main(["--config", str(path)]) == 2

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "no" / "such.cfg"
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(path) in err

    def test_overflowing_contrast_fails_the_pair_with_a_typed_error(self, capsys):
        # A1 / A2 overflows, so the chord-space basis is not finite: the pair
        # is logged as failed, naming the element, and the study goes on.
        with np.errstate(all="ignore"):
            code = main(["--levels", "1", "--coeffs", "1e308,1e-308;1,1", "--n-level1", "4"])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        (failed,) = [l for l in lines if l.startswith("FAILED")]
        assert "level=1: null basis or its Gram not finite on element " in failed
        assert any(l.startswith("k=1 (A1,A2)=(1,1) level=1") for l in lines)

    def test_overflowing_contrast_fails_without_runtime_warnings(self, capsys):
        # Under numpy's default error state the overflow and the NaNs it
        # leaves are expected, so the FAILED line is all the run prints.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--levels", "1", "--coeffs", "1e308,1e-308", "--n-level1", "8"])
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        (failed,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAILED")]
        assert failed.endswith("level=1: null basis or its Gram not finite on element 36")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--levels", "1..x"], "levels must be A..B or a comma list of integers"),
            (["--levels", "3..1"], "level range '3..1' is empty or decreasing"),
            (["--coeffs", "1,2,3"], "coefficient pair '1,2,3' must be 'A1,A2'"),
            (["--coeffs", "1,nan"], "conductivities must be finite"),
            (["--coeffs", "1,inf"], "conductivities must be finite"),
            (["--k", "1", "--coeffs", "1,10", "--n-level1", "4", "--levels", "1,1,2"], "levels must be strictly increasing"),
            (["--coeffs", "1,10;1,10"], "coefficient pairs must be distinct"),
            (["--levels", "1..2", "--coeffs", "1,1000000;1,1000001"], "coefficient pairs must be distinct"),
            (["--levels", "1", "--depth", "64"], "depth must be in 0..12"),
            (["--levels", "1", "--quad-offset", "128"], "quad-offset must be in 0..16"),
            (["--levels", "1", "--n-level1", "100000"], "the finest level must have at most 256 cells per side"),
            (["--levels", "1..14"], "the finest level must have at most 256 cells per side"),
            (["--levels", "1..1000000000000000000"], "the finest level must have at most 256 cells per side"),
            (["--levels", "1,1000000000000000000"], "the finest level must have at most 256 cells per side"),
            (["--levels", "1", "--out", "{file}"], "File exists"),
        ],
    )
    def test_malformed_input_is_a_config_error(self, argv, message, capsys, tmp_path):
        taken = tmp_path / "taken"  # an existing file, for --out
        taken.write_text("")
        assert main([a.format(file=taken) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err


def test_module_entry_point_has_no_runpy_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "iwgfem.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "usage: iwgfem" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
