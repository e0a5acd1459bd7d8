"""One workload pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --inputs JSON --out DIR [--trace]
    python3 perfbench/worker.py --setup-only

Imports the program from `src/` of the checkout (as the test suite does),
pays the one-time warm-up, then times one pass and prints one JSON object:
the operations and their outputs, pass wall and CPU time, peak resident
memory and, with --trace, the per-layer metrics. --setup-only stops after
the warm-up; its caller times the whole process as the set-up cost.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (sits next to this file)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process (numpy
    and scipy each bundle one), asked from the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    from shishkin_hdg import refelem
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "ref_tables_cache": refelem.ref_tables.cache_parameters()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--inputs", help="generated inputs, as JSON")
    ap.add_argument("--out", help="directory for files the pass writes")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from shishkin_hdg import harness
    workloads.warm_up(harness)
    if args.setup_only:
        return 0

    inp = json.loads(args.inputs)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        patches = tracer.install()
        info0 = tracer.ref_tables.cache_info()

    cpu0, t0 = time.process_time(), time.perf_counter()
    error = None
    try:
        ops = workloads.run_pass(harness, args.workload, inp, args.out)
    except Exception as exc:  # a failed pass is a measured outcome
        ops, error = [], f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0

    result = {"ops": ops, "error": error, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall(patches)
        info1 = tracer.ref_tables.cache_info()
        delta = (info1.hits - info0.hits, info1.misses - info0.misses)
        result["layers"] = tracer.metrics(wall, cpu, delta)
        tracer.dump(os.path.join(args.out, "spans.jsonl"))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
