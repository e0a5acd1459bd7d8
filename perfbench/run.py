"""Benchmark of the shishkin-hdg solver and study harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout. Each workload pass runs in a fresh worker
process (perfbench/worker.py) with the BLAS thread count set explicitly.

--trace 0 measures the end-to-end metrics: set-up time (the median of
several fresh interpreters importing the program and paying its warm-up),
then workload passes until the time is used, reporting the median pass
wall time, the median peak RSS and the share of operations that passed.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, with the tracing overhead.

Every operation's outputs are checked against perfbench/reference.json.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only if correct is true.
A record with the environment goes to .bench_out/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# A direct solver is deterministic: outputs may differ only by rounding.
RTOL = 1e-9
# Diagnostic values are residuals and relative changes at round-off size.
DIAG_ATOL = 1e-12
SETUP_SAMPLES = 5
# Passes per run at least, in whole input cycles: enough for a median.
MIN_PASSES = 3
MIN_TRACED = 2
# OpenBLAS, OpenMP and MKL all read their own variable. The program's BLAS
# work is batched small dense solves and SuperLU, which ran no faster with
# more BLAS threads; one thread is the steadier baseline.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
CHILD_TIMEOUT = 150


def worker(args, timeout=CHILD_TIMEOUT) -> subprocess.CompletedProcess:
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_ENV})
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)


def measure_setup() -> list:
    """Wall time of fresh interpreters that import the program and pay its
    warm-up."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = worker(["--setup-only"])
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return out


def run_one(workload: str, inp: dict, trace: bool, tag: str) -> dict:
    out_dir = os.path.join(OUT, f"pass-{os.getpid()}-{tag}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    proc = worker(["--workload", workload, "--inputs", json.dumps(inp),
                   "--out", out_dir] + (["--trace"] if trace else []))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = os.path.join(out_dir, "spans.jsonl")
    if trace and os.path.exists(spans):
        os.replace(spans, os.path.join(OUT, f"spans-{workload}.jsonl"))
    shutil.rmtree(out_dir, ignore_errors=True)
    return res


def close(value, ref, atol) -> bool:
    if value is None or ref is None:
        return value is ref
    if math.isnan(value) or math.isnan(ref):
        return False
    return abs(value - ref) <= RTOL * abs(ref) + atol


def check(workload: str, inp: dict, res: dict, reference: dict) -> tuple:
    """(attempted, failed, mismatches) of one pass. An operation fails when
    it raised or is missing, when an output leaves its reference value, or
    when it is a diagnostic entry that reports FAIL. Only the first two are
    mismatches: they mean the outputs are not the reference outputs."""
    got = {op["id"]: op for op in res["ops"]}
    atol = DIAG_ATOL if workload == "diagnose" else 0.0
    failed, mismatches = 0, []
    ids = workloads.expected_ids(workload, inp, reference)
    for oid in ids:
        op, ref = got.get(oid), reference.get(oid)
        if ref is None:
            mismatches.append(f"{oid}: no reference value")
        elif op is None or op["error"]:
            mismatches.append(f"{oid}: {res['error'] or (op or {}).get('error')}")
        else:
            bad = [k for k, r in ref["values"].items()
                   if not close(op["values"].get(k), r, atol)]
            if bad or op["passed"] != ref["passed"]:
                mismatches.append(f"{oid}: {bad or 'verdict'} left the "
                                  "reference values")
            elif op["passed"]:
                continue
        failed += 1
    return len(ids), failed, mismatches


def median(xs):
    return statistics.median(xs)


def environment(env: dict) -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, idx, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, idx, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, idx, "size")) as fh:
                    caches[f"L{level} {kind}"] = fh.read().strip()
            except OSError:
                continue
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "cpu_caches": caches,
            "blas_threads_set": {v: BLAS_THREADS for v in BLAS_ENV}, **env}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the record that is printed and stored.

    Untraced, the run repeats the seed's whole cycle of pass inputs while
    another cycle fits in `seconds`. Traced, it alternates untraced and
    traced passes over the cycle's first input, so counts can repeat."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["ops"][workload]
    cycle = workloads.inputs(workload, seed)
    if trace:
        cycle = cycle[:1]
    t_start = time.perf_counter()
    setup = [] if trace else measure_setup()

    plain, traced = [], []
    attempted = failed = 0
    mismatches = []

    def one_pass(inp, traced_pass):
        nonlocal attempted, failed
        res = run_one(workload, inp, traced_pass, str(len(plain) + len(traced)))
        a, f, m = check(workload, inp, res, reference)
        attempted += a
        failed += f
        mismatches.extend(m)
        (traced if traced_pass else plain).append(res)

    min_cycles = MIN_TRACED if trace else -(-MIN_PASSES // len(cycle))
    cycles, last = 0, 0.0
    while cycles < min_cycles or \
            time.perf_counter() - t_start + last <= seconds:
        t0 = time.perf_counter()
        for inp in cycle:
            one_pass(inp, False)
            if trace:
                one_pass(inp, True)
        cycles += 1
        last = time.perf_counter() - t0

    if trace:
        for r in plain[1:] + traced:
            if r["ops"] != plain[0]["ops"]:
                mismatches.append("outputs differ between passes "
                                  "(traced against untraced)")
                break
        metrics = layer_metrics(traced, plain, mismatches)
    else:
        metrics = {
            "wall_s": (median([r["wall_s"] for r in plain]), "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        # not part of the printed result: the record's context
        "_context": {"workload": workload, "seed": seed, "inputs": cycle,
                     "trace": trace, "passes": len(plain),
                     "traced_passes": len(traced), "setup_samples": len(setup),
                     "pass_wall_s": [r["wall_s"] for r in plain],
                     "setup_wall_s": setup,
                     "mismatches": mismatches[:20],
                     "env": environment(plain[0]["env"])},
    }


# Per-layer metrics that are counts of work must repeat exactly.
EXACT = ("harness.cells", "refelem.gauss_rule.calls",
         "layerquad.cell_rule.calls", "assembly.local.calls", "linalg.dofs",
         "linalg.nnz", "linalg.lu_nnz", "problems.points",
         "layerquad.refined_cells", "refelem.cellquad.calls", "trace.spans")


def layer_metrics(traced: list, plain: list, mismatches: list) -> dict:
    names = traced[0]["layers"].keys()
    out = {}
    for name in names:
        vals = [r["layers"][name][0] for r in traced]
        unit = traced[0]["layers"][name][1]
        if name in EXACT:
            if len(set(vals)) != 1:
                mismatches.append(f"count {name} differs between traced "
                                  f"passes: {vals}")
            out[name] = (vals[0], unit)
        else:
            out[name] = (median(vals), unit)
    t_wall = median([r["wall_s"] for r in traced])
    p_wall = median([r["wall_s"] for r in plain])
    out["trace.wall_s"] = (t_wall, "s")
    out["trace.overhead_s"] = (t_wall - p_wall, "s")
    return out


def summary(rec: dict) -> str:
    ctx = rec["_context"]
    lines = [f"workload {ctx['workload']} seed {ctx['seed']} inputs "
             f"{json.dumps(ctx['inputs'])}",
             f"passes {ctx['passes']} (traced {ctx['traced_passes']}), "
             f"set-up samples {ctx['setup_samples']}; timings are medians"]
    for name, m in rec["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not ctx["trace"]:
        fr = rec["failed"] / rec["attempted"]
        lines.append(f"  {'fail_ratio':32s} {fr:.6g} ratio "
                     f"({rec['failed']}/{rec['attempted']})")
    lines.append(f"  correct {rec['correct']}")
    lines.extend(f"  mismatch: {m}" for m in ctx["mismatches"])
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "shishkin_hdg")):
        print(f"no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        rec = measure(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and rec["correct"]
        print(summary(rec), file=sys.stderr)
        with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        rec.pop("_context")
        print(json.dumps(rec), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
