"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload for every epsilon a seed can pick, through the same
worker processes the benchmark uses, and writes perfbench/reference.json.
The committed file was recorded from the program as it was when the
benchmark was defined; re-record only in a change that alters the
program's outputs on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import os

import run
import workloads

COERCIVITY = "coercivity B(xi,xi)"


def main() -> None:
    os.makedirs(run.OUT, exist_ok=True)
    eps_all = list(workloads.EPS_CHOICES)
    jobs = [("table-sweep", {"k": list(workloads.SWEEP_K), "eps": eps_all,
                             "n": list(workloads.SWEEP_N)})]
    for eps in eps_all:
        jobs.append(("large-solve", {"k": [2], "eps": [eps], "n": [128]}))
        jobs.append(("diagnose", {"k": [1], "eps": [eps], "n": [16],
                                  "rng_seed": 0}))
    ops = {name: {} for name in workloads.WORKLOADS}
    for workload, inp in jobs:
        res = run.run_one(workload, inp, False, "ref")
        if res["error"]:
            raise RuntimeError(f"{workload} {inp}: {res['error']}")
        for op in res["ops"]:
            if op["error"]:
                raise RuntimeError(f"{op['id']}: {op['error']}")
            if COERCIVITY in op["id"]:
                # B(xi, xi) = |||xi|||^2 holds identically, so the ratio's
                # reference is 1 whatever random triples the seed draws.
                if abs(op["values"]["value"] - 1.0) > run.DIAG_ATOL:
                    raise RuntimeError(f"{op['id']}: {op['values']}")
                op["values"]["value"] = 1.0
            ops[workload][op["id"]] = {"values": op["values"], "passed": op["passed"]}
        print(f"recorded {workload} {json.dumps(inp)}", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump({"ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
