import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from iwgfem.cli import (
    _KEY_TO_FIELD,
    RunConfig,
    _parse_levels,
    _parse_pairs,
    config_from_argv,
    load_config_file,
    main,
    run_study,
)


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
        with pytest.raises(ValueError):
            RunConfig(pairs=((0.0, 1.0),))
        with pytest.raises(ValueError):
            RunConfig(ife_mode="exact")
        with pytest.raises(ValueError):
            RunConfig(solver="lu")

    def test_mode_resolution(self):
        assert RunConfig(k=1).resolved_mode() == "segment"
        assert RunConfig(k=2).resolved_mode() == "arc"
        assert RunConfig(k=2, ife_mode="segment").resolved_mode() == "segment"

    def test_cells_per_level_double(self):
        config = RunConfig(levels=(1, 2, 3), n_level1=8)
        assert [config.cells_for_level(l) for l in (1, 2, 3)] == [8, 16, 32]


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
        for field in ("free=", "nnz=", "gram_cond=", "constraint=", "asym=", "iters="):
            assert field in line, field
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok and "(" not in tok)
        assert int(fields["free"]) > 0 and int(fields["nnz"]) > 0
        assert int(fields["iters"]) == 0  # direct solve
        assert 1.0 <= float(fields["gram_cond"]) < 1e12
        assert float(fields["constraint"]) < 1e-10
        assert float(fields["asym"]) < 1e-12

    def test_bad_flag_value(self):
        assert main(["--k", "7"]) == 2

    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense\n")
        assert main(["--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--levels", "1..x"], "levels must be A..B or a comma list of integers"),
            (["--levels", "3..1"], "level range '3..1' is empty or decreasing"),
            (["--coeffs", "1,2,3"], "coefficient pair '1,2,3' must be 'A1,A2'"),
            (["--coeffs", "1,nan"], "conductivities must be finite"),
            (["--coeffs", "1,inf"], "conductivities must be finite"),
        ],
    )
    def test_malformed_input_is_a_config_error(self, argv, message, capsys):
        assert main(argv) == 2
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
