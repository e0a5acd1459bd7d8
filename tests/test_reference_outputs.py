"""The gated benchmark workloads reproduce perfbench/reference.json.

Each pass runs through the benchmark's own worker (perfbench/run.py): a
fresh process with one BLAS thread, checked as the benchmark checks it, to
a relative 1e-9. The test reads perfbench/ and writes only the worker's
scratch folder under .bench_out/.
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import workloads  # noqa: E402

PASSES = [("table-sweep", {"k": list(workloads.SWEEP_K), "eps": list(pair),
                           "n": list(workloads.SWEEP_N)})
          for pair in workloads.EPS_PAIRS]
PASSES += [("large-solve", {"k": [2], "eps": [eps], "n": [128]})
           for eps in workloads.EPS_CHOICES]


@pytest.mark.parametrize("workload, inp", PASSES,
                         ids=[f"{w}-{inp['eps']}" for w, inp in PASSES])
def test_gated_workload_matches_reference(workload, inp):
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)["ops"][workload]
    res = run.run_one(workload, inp, False, "tier1")
    attempted, failed, mismatches = run.check(workload, inp, res, reference)
    assert attempted and not mismatches, mismatches
    assert failed == 0
