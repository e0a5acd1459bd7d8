"""Workload definitions: inputs generated from a seed, one workload pass
through the public harness API, and the outputs a pass is checked on.

Every output is an "operation" (one study cell, or one diagnostic entry)
with a stable id, a dict of float values and the program's own pass/fail
verdict where it gives one. Ids carry epsilon, so references recorded for
every epsilon a seed can pick serve every seed.
"""

from __future__ import annotations

import csv
import math
import os
import random

WORKLOADS = ("table-sweep", "large-solve", "diagnose")

# The energy error is epsilon-uniform on this set (acceptance criterion 4).
EPS_CHOICES = (1e-5, 1e-6, 1e-7, 1e-8)
# The number of layer-refined cells does not depend on epsilon, but the
# panel count of their composite rule grows with log(1/eps). The sweep's
# epsilon pairs have equal log-sums, so every seed does the same work.
EPS_PAIRS = ((1e-5, 1e-8), (1e-6, 1e-7))

SWEEP_K = (1, 2)
SWEEP_N = (4, 8, 16, 32, 64)


def inputs(workload: str, seed: int) -> list:
    """The generated inputs of one run: a cycle of pass inputs that the run
    repeats whole. Equal seeds give equal inputs.

    A diagnose pass is a single epsilon, and its work and memory grow with
    log(1/eps), so one diagnose cycle covers every epsilon, in an order and
    with random-triple seeds that the seed chooses.
    """
    rng = random.Random(seed)
    if workload == "table-sweep":
        pair = rng.choice(EPS_PAIRS)
        return [{"k": list(SWEEP_K), "eps": list(pair), "n": list(SWEEP_N)}]
    if workload == "large-solve":
        return [{"k": [2], "eps": [rng.choice(EPS_CHOICES)], "n": [128]}]
    if workload == "diagnose":
        order = rng.sample(EPS_CHOICES, len(EPS_CHOICES))
        return [{"k": [1], "eps": [eps], "n": [16],
                 "rng_seed": rng.randrange(2**31)} for eps in order]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def op_id(k: int, eps: float, n: int) -> str:
    return f"k={k} eps={eps:.0e} N={n}"


def expected_ids(workload: str, inp: dict, reference: dict) -> list:
    """Ids of the operations a pass over `inp` must report; `reference`
    maps this workload's recorded ids to their outputs."""
    cells = [op_id(k, eps, n) for k in inp["k"] for eps in inp["eps"]
             for n in inp["n"]]
    if workload == "diagnose":
        return [rid for rid in reference if rid.split(" ", 3)[:3]
                == cells[0].split(" ")]
    return cells


def _read_csv_tables(out_dir: str, k_list) -> dict:
    """Errors and fitted rates per (mode, k, eps, N) as written to disk:
    the table files are the sweep's deliverable, so they are what is
    checked."""
    rows = {}
    for k in k_list:
        for mode in ("energy", "supercloseness"):
            with open(os.path.join(out_dir, f"table_k{k}_{mode}.csv")) as fh:
                for r in csv.DictReader(fh):
                    key = (mode, int(r["k"]), float(r["eps"]), int(r["N"]))
                    rows[key] = (float(r["error"]) if r["error"] != "error"
                                 else math.nan,
                                 float(r["rate"]) if r["rate"] else None)
            if not os.path.exists(os.path.join(out_dir,
                                               f"table_k{k}_{mode}.md")):
                raise FileNotFoundError(f"markdown table k={k} {mode} missing")
    return rows


def run_pass(hdg, workload: str, inp: dict, out_dir: str) -> list:
    """One workload pass. `hdg` is the imported `shishkin_hdg.harness`
    module; `out_dir` receives the sweep's table files. Returns the list of
    operations as dicts with keys id, values, passed and error. A pass that
    raises leaves its operations missing, which counts them as failed."""
    cfg_kw = dict(k_list=inp["k"], eps_list=inp["eps"], n_list=inp["n"],
                  mode="both")
    if workload == "table-sweep":
        res = hdg.run_sweep(hdg.StudyConfig(out_dir=out_dir, **cfg_kw))
        table = _read_csv_tables(out_dir, inp["k"])
        failed = {op_id(k, eps, n): msg for k, eps, n, msg in res.failures}
        ops = []
        for k in inp["k"]:
            for eps in inp["eps"]:
                for n in inp["n"]:
                    oid = op_id(k, eps, n)
                    err_e, rate_e = table[("energy", k, eps, n)]
                    err_s, rate_s = table[("supercloseness", k, eps, n)]
                    rep = next(t.cells[eps][n] for t in res.tables
                               if t.k == k)
                    values = {"energy": err_e, "supercloseness": err_s,
                              "rate_energy": rate_e,
                              "rate_supercloseness": rate_s}
                    if not isinstance(rep, str):
                        values["l2_u"] = rep.l2_error_u
                        values["l2_q"] = rep.l2_error_q
                    ops.append({"id": oid, "values": values, "passed": True,
                                "error": failed.get(oid)})
        return ops
    if workload == "large-solve":
        rep = hdg.run_single(hdg.StudyConfig(**cfg_kw))
        values = {"energy": rep.energy_error,
                  "supercloseness": rep.supercloseness_error,
                  "l2_u": rep.l2_error_u, "l2_q": rep.l2_error_q,
                  "q_part_sq": rep.q_part_sq,
                  "reaction_part_sq": rep.reaction_part_sq,
                  "jump_part_sq": rep.jump_part_sq}
        return [{"id": op_id(rep.k, rep.epsilon, rep.N), "values": values,
                 "passed": True, "error": None}]
    if workload == "diagnose":
        k, eps, n = inp["k"][0], inp["eps"][0], inp["n"][0]
        rep = hdg.run_diagnostics(hdg.StudyConfig(**cfg_kw),
                                  seed=inp["rng_seed"])
        return [{"id": f"{op_id(k, eps, n)} {e.name}",
                 "values": {"value": e.value}, "passed": bool(e.passed),
                 "error": None} for e in rep.entries]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(hdg) -> None:
    """The one-time work a first cell pays (lazy scipy imports, reference
    tables): one small solve, outside every timed pass."""
    hdg.run_single(hdg.StudyConfig(k_list=[1], eps_list=[1e-4], n_list=[4],
                                   mode="both"))
