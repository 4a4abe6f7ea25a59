"""One workload run in a fresh interpreter: ``iwgfem.cli.main(argv)``, timed.

Usage: python3 child.py RESULT_JSON LOG_FILE {plain,traced} -- IWGFEM_ARGV...

The CLI's log goes to LOG_FILE; wall and CPU time of the ``main`` call, its
exit code, the host record and (traced) the per-layer metrics go to
RESULT_JSON. The parent reads the peak resident memory from the process's
resource usage.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import platform
import sys
import time

# Symbols under which OpenBLAS builds export their thread-count getter.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_record() -> dict:
    """BLAS vendor and its thread count, read from the loaded library, never set."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"blas": vendor, "blas_threads": threads}


def host_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_record(),
    }


def main() -> int:
    result_path, log_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    import iwgfem.cli

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(log_path, "w") as log, contextlib.redirect_stdout(log):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        exit_code = iwgfem.cli.main(argv)
        wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    result = {"exit_code": exit_code, "wall_s": wall_s, "cpu_s": cpu_s, "host": host_record()}
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s, cpu_s)
        result["absent"] = tracer.absent
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
