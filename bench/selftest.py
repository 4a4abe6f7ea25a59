"""Self-test of the benchmark: python3 -m pytest bench/selftest.py

Checks the output gate, the tracer's tolerance of missing functions, the
seeded pair order, the refusal to run without sources, and a reduced-size
traced run of every workload's argument list (about a minute).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import run
from tracer import TRACED, Tracer

sys.path.insert(0, str(run.SRC))

from iwgfem.analysis import ConvergenceReport  # noqa: E402
from iwgfem.cli import main as cli_main  # noqa: E402


def _write_reference_csvs(reference: dict, k: int, out_dir: Path, scale=None) -> None:
    """CSVs of the reference values through the CLI's own writer."""
    for tag, levels in reference.items():
        a1, a2 = (float(x) for x in tag.split("_A", 1)[1].split("_"))
        report = ConvergenceReport(k=k, a1=a1, a2=a2, mode="arc", depth=6)
        for level in sorted(levels, key=int):
            row = levels[level]
            errors = {c.split("_")[0]: row[c] for c in gate.COLUMNS}
            if scale and (tag, level) == scale[0]:
                errors[scale[1].split("_")[0]] *= scale[2]
            report.add_level(int(level), 2.0 / 2 ** int(level), errors, 0.0, None)
        report.write_csv(out_dir / f"convergence_{tag}.csv")


def _gate_failures(scale=None) -> dict:
    reference = gate.load_reference()["full"]["study_k2_A1000"]
    with tempfile.TemporaryDirectory() as tmp:
        _write_reference_csvs(reference, 2, Path(tmp), scale)
        return gate.check(reference, gate.read_csvs(tmp), "", k=2)


def test_gate_accepts_reference_values():
    assert _gate_failures() == {}


def test_gate_rejects_one_perturbed_value():
    for column, rtol in gate.RTOL.items():
        key = ("k2_A1_1000", "3")
        assert _gate_failures((key, column, 1.0 + 0.3 * rtol)) == {}
        failures = _gate_failures((key, column, 1.0 + 3.0 * rtol))
        assert list(failures) == [key], (column, failures)


def test_gate_checks_order_bands_and_logged_failures():
    # A last-level energy error 30% too large leaves the band of criterion 2.
    key = ("k2_A1_1000", "5")
    failures = _gate_failures((key, "energy_err", 1.3))
    assert key in failures and any("energy_order" in r for r in failures[key])
    reference = gate.load_reference()["full"]["study_k2_A1000"]
    log = "FAILED k=2 (A1,A2)=(1,1000) level=4: SolverError"
    assert ("k2_A1_1000", "4") in gate.check(reference, {}, log)
    assert len(gate.check(reference, {})) == 5  # every missing row fails


def test_tracer_tolerates_missing_functions():
    traced = TRACED + (
        ("gone.module_s", "iwgfem.no_such_module", "old_function"),
        ("gone.function_s", "iwgfem.assembly", "no_such_function"),
    )
    tracer = Tracer(traced)
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["--k", "1", "--levels", "1", "--coeffs", "1,10"]) == 0
    metrics = tracer.metrics(wall_s=1.0, cpu_s=1.0)
    assert metrics["gone.module_s"] is None and metrics["gone.function_s"] is None
    assert set(tracer.absent) == {"old_function", "no_such_function"}
    assert metrics["mesh.calls"] == 1.0 and metrics["solver.calls"] == 1.0
    assert metrics["geometry.pairs_per_build"] == 1.0
    # Self times partition the top-level spans.
    assert math.isclose(sum(tracer.self_times().values()), tracer.top_level_s(), abs_tol=1e-9)


def test_seed_permutes_sweep_pairs_only():
    argv1, pairs1 = run.workload_argv("sweep_k2_cg", 1)
    assert run.workload_argv("sweep_k2_cg", 1) == (argv1, pairs1)
    assert sorted(pairs1) == sorted(run.SWEEP_PAIRS)
    orders = {tuple(run.workload_argv("sweep_k2_cg", s)[1]) for s in range(5)}
    assert len(orders) > 1
    assert run.workload_argv("study_k1", 1) == run.workload_argv("study_k1", 2)


def test_refuses_to_run_without_sources():
    run.TMP_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "study_k1", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_smoke_run_of_every_workload():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "all", "--smoke", "--seed", "7", "--seconds", "0", "--trace", "1"])
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    # One untraced and one traced run each: 8 + 2 + 7 level solves.
    assert result["attempted"] == 2 * (8 + 2 + 7)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in run.WORKLOADS:
        for metric in spec["per_layer"]:
            value = result["metrics"][f"{name}.{metric['name']}"]
            assert value["value"] is not None and value["unit"] == metric["unit"], (name, metric)


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
