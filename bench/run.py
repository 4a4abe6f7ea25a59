"""iwgfem benchmark: convergence studies through the real CLI, timed and checked.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is one of the workloads below, or ``all`` to run each in turn. Every
run of ``iwgfem.cli.main(argv)`` happens in a fresh interpreter, and every
CSV it writes is checked by the output gate (``gate.py``). With ``--trace 0``
the end-to-end metrics are reported; with ``--trace 1`` a traced run follows
and the per-layer metrics are reported. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only if every level solve passed the gate.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".bench_tmp"

SWEEP_PAIRS = ("1,1", "1,10", "1,100", "1,1000", "10,1", "100,1", "1000,1")
# name -> (CLI arguments, k whose order bands the gate checks, or None).
WORKLOADS = {
    "study_k1": (["--k", "1"], 1),
    "study_k2_A1000": (["--k", "2", "--coeffs", "1,1000", "--levels", "1..5"], 2),
    "sweep_k2_cg": (["--k", "2", "--levels", "1", "--n-level1", "64", "--solver", "cg"], None),
}
# Reduced sizes for the self-test: appended flags win over the workload's own.
SMOKE_FLAGS = {
    "study_k1": ["--levels", "1..2"],
    "study_k2_A1000": ["--levels", "1..2"],
    "sweep_k2_cg": ["--n-level1", "16"],
}
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170.0


def workload_argv(name: str, seed: int, smoke: bool = False) -> tuple[list[str], list[str]]:
    """CLI arguments of a workload and its coefficient-pair order.

    The seed permutes the pairs of the sweep, so that a cache keyed on the
    previous pair cannot pass for a gain; the studies keep the CLI's order.
    """
    argv = list(WORKLOADS[name][0])
    pairs = []
    if name == "sweep_k2_cg":
        pairs = list(SWEEP_PAIRS)
        random.Random(seed).shuffle(pairs)
        argv += ["--coeffs", ";".join(pairs)]
    if smoke:
        argv += SMOKE_FLAGS[name]
    return argv, pairs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for the child and return its resource usage (peak RSS included)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        time.sleep(0.02)


def measure_setup() -> float:
    """Seconds to import iwgfem.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import iwgfem.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_child(argv: list[str], traced: bool) -> dict:
    """Run the CLI once in a fresh process; returns its result and CSV tables."""
    TMP_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        out_dir, result_path, log_path = work / "out", work / "result.json", work / "cli.log"
        cmd = [
            sys.executable, str(BENCH_DIR / "child.py"), str(result_path), str(log_path),
            "traced" if traced else "plain", "--", *argv, "--out", str(out_dir),
        ]
        with open(work / "stderr.txt", "w") as err:
            proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=err, stderr=err)
            usage = _wait(proc, CHILD_TIMEOUT_S)
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        result["process_exit"] = proc.returncode
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        result["log"] = log_path.read_text() if log_path.exists() else ""
        result["tables"] = gate.read_csvs(out_dir)
        if proc.returncode != 0:
            tail = (work / "stderr.txt").read_text()[-2000:]
            print(f"child exited with {proc.returncode}:\n{tail}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def code_record() -> dict:
    files = sorted((SRC / "iwgfem").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = out.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict, smoke: bool) -> dict:
    """Setup timings, untraced runs for ``seconds`` (at least one), then the traced run."""
    bands = None if smoke else WORKLOADS[name][1]
    argv, pairs = workload_argv(name, seed, smoke)
    ref = reference["smoke" if smoke else "full"][name]
    level_solves = sum(len(levels) for levels in ref.values())

    setup = [measure_setup() for _ in range(SETUP_REPEATS)]
    plain = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_child(argv, traced=False))
        now = time.perf_counter()
        # Start another run only if it fits in the measuring time.
        if now - start + (now - t0) > seconds:
            break
    runs = plain + ([run_child(argv, traced=True)] if trace else [])

    failed = 0
    for r in runs:
        failures = gate.check(ref, r["tables"], r["log"], bands)
        if not failures and (r.get("exit_code") != 0 or r["process_exit"] != 0):
            failures = {("exit", "code"): [f"CLI exit {r.get('exit_code')}"]}
        for (tag, level), reasons in sorted(failures.items()):
            print(f"{name}: {tag} level {level}: {'; '.join(reasons)}", file=sys.stderr)
        failed += min(len(failures), level_solves)

    walls = [r["wall_s"] for r in plain if "wall_s" in r]
    result = {
        "workload": name,
        "seed": seed,
        "argv": argv,
        "pair_order": pairs,
        "runs": len(plain),
        "attempted": level_solves * len(runs),
        "failed": failed,
        "host": next((r["host"] for r in runs if "host" in r), None),
        "metrics": {
            "wall_s": statistics.median(walls) if walls else None,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "level_solves": float(level_solves),
        },
    }
    if trace:
        traced = runs[-1]
        layers = dict(traced.get("layers") or {})
        overhead = None
        if walls and "wall_s" in traced:
            overhead = traced["wall_s"] - result["metrics"]["wall_s"]
        layers["trace.overhead_s"] = overhead
        result["layers"] = layers
        result["absent"] = traced.get("absent", {})
    return result


def metric_units(kind: str) -> dict:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "iwgfem" / "cli.py").is_file():
        print(f"error: no iwgfem sources under {SRC}", file=sys.stderr)
        return 2
    reference = gate.load_reference()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [
            run_workload(n, args.seed, args.seconds, bool(args.trace), reference, args.smoke)
            for n in names
        ]
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    code = code_record()
    metrics = {}
    for res in results:
        values = res["layers"] if args.trace else res["metrics"]
        prefix = "" if len(results) == 1 else res["workload"] + "."
        print(f"{res['workload']} (seed {res['seed']}, {res['runs']} untraced run(s)):")
        for metric, unit in units.items():
            print(f"  {metric} {_fmt(values.get(metric))} {unit}")
            metrics[prefix + metric] = {"value": values.get(metric), "unit": unit}
        print(f"  level_solves_failed {res['failed']} count (of {res['attempted']} attempted)")
        for fn, reason in res.get("absent", {}).items():
            print(f"  absent {fn}: {reason}")
        record = {key: res[key] for key in ("workload", "seed", "argv", "pair_order", "host")}
        print("record " + json.dumps({**record, "code": code}))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["metrics"]["wall_s"] is not None for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
