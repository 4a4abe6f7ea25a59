"""Output gate: checks the convergence CSVs of a run against recorded references.

A (pair, level) solve fails the gate when the CLI logs it as FAILED, when its
CSV row is missing or unreadable, when one of its error values is off its
reference by more than the relative tolerance below, or when it is one of
the last two levels of a full study and its observed order leaves the band
of the acceptance criteria.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

COLUMNS = ("energy_err", "l2_err", "linf_err")

# Relative tolerance per error column. The references come from the seed
# solver. A planned quadrature change (fan triangulation, then
# Caratheodory-Tchakaloff compression of the cut-cell rules) keeps every
# rule exact to the same degree but moves or drops its points. Rerunning
# study_k1 and study_k2_A1000 with such rules moved the errors by at most:
#   compressed rules (NNLS, at most dim P_d points): 6.6e-8 in every column;
#   rules two degrees higher (every cut-cell point moved): 6.5e-7 energy,
#   2.3e-6 l2, and 2.5e-2 linf, which is a maximum over the rule points.
# energy_err and l2_err get about ten times the largest shift, linf_err four
# times. For scale, a wrong solve made by scaling the interface-element loads
# by 1.001 failed the gate on every smoke-size row of the three workloads
# (l2_err moved by 0.27-2.4 % on the sweep's rows).
RTOL = {"energy_err": 2e-5, "l2_err": 2e-5, "linf_err": 0.1}

# Bands of acceptance criteria 1-2 for the last two observed orders.
ORDER_BANDS = {
    1: {"energy_order": (0.85, 1.15), "l2_order": (1.8, 2.2), "linf_order": (1.6, math.inf)},
    2: {"energy_order": (1.85, 2.15), "l2_order": (2.8, 3.2)},
}

REFERENCE_FILE = Path(__file__).with_name("reference.json")
_FAILED = re.compile(r"FAILED k=(\d) \(A1,A2\)=\(([^,]+),([^)]+)\) level=(\d+)")


def load_reference() -> dict:
    """{size: {workload: {tag: {level: {column: value}}}}}, levels as strings."""
    return json.loads(REFERENCE_FILE.read_text())


def read_csvs(out_dir) -> dict:
    """{tag: {level: row}} for every convergence_<tag>.csv in out_dir."""
    tables = {}
    for path in sorted(Path(out_dir).glob("convergence_*.csv")):
        with open(path, newline="") as fh:
            rows = {row.get("level"): row for row in csv.DictReader(fh)}
        tables[path.stem[len("convergence_"):]] = rows
    return tables


def logged_failures(log_text: str) -> set:
    """(tag, level) of every solve the CLI logged as FAILED."""
    return {
        (f"k{k}_A{float(a1):g}_{float(a2):g}", level)
        for k, a1, a2, level in _FAILED.findall(log_text)
    }


def _value(row, column):
    try:
        return float(row[column])
    except (KeyError, TypeError, ValueError):
        return None


def check(reference: dict, tables: dict, log_text: str = "", k: int | None = None) -> dict:
    """Failed (tag, level) -> reasons. ``k`` enables the order bands."""
    failures = {}

    def fail(key, reason):
        failures.setdefault(key, []).append(reason)

    for key in logged_failures(log_text):
        fail(key, "logged as FAILED")
    for tag, levels in reference.items():
        rows = tables.get(tag, {})
        for level, ref in levels.items():
            row = rows.get(level)
            if row is None:
                fail((tag, level), "no CSV row")
                continue
            for column in COLUMNS:
                got = _value(row, column)
                want = ref[column]
                if got is None or not abs(got - want) <= RTOL[column] * abs(want):
                    fail((tag, level), f"{column} {row.get(column)} vs reference {want:.10e}")
        if k is None:
            continue
        for level in sorted(levels, key=int)[-2:]:
            row = rows.get(level)
            if row is None:
                continue
            for column, (lo, hi) in ORDER_BANDS[k].items():
                order = _value(row, column)
                if order is None or not lo <= order <= hi:
                    fail((tag, level), f"{column} {row.get(column)} outside [{lo}, {hi}]")
    return failures
