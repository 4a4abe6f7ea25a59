"""Record the output gate's reference values: python3 bench/record_reference.py

Runs every workload at full and at smoke size once and writes the error
columns of every (pair, level) CSV row to reference.json. The committed
file was recorded from the seed solver; rerun this only when a change to the
numbers is intended and explained.
"""

from __future__ import annotations

import json
import sys

import gate
import run


def main() -> int:
    reference = {}
    for size in ("full", "smoke"):
        reference[size] = {}
        for name in run.WORKLOADS:
            argv, _ = run.workload_argv(name, seed=0, smoke=size == "smoke")
            result = run.run_child(argv, traced=False)
            if result.get("exit_code") != 0 or gate.logged_failures(result["log"]):
                print(f"{name} ({size}) failed; reference not written", file=sys.stderr)
                return 1
            reference[size][name] = {
                tag: {level: {c: float(row[c]) for c in gate.COLUMNS} for level, row in rows.items()}
                for tag, rows in result["tables"].items()
            }
            print(f"{name} ({size}): {sum(map(len, reference[size][name].values()))} rows")
    gate.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
