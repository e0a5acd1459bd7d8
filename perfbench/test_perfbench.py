"""Tests of the benchmark itself (not collected by the program's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-pass tests run real workload passes and take a few minutes.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Counts of work that must not depend on timing, pass or seed. The LU fill
# (linalg.lu_nnz) is left out: SuperLU's partial pivoting chooses pivots by
# value, so the fill moves slightly with epsilon (about 1e-4 relative).
SEED_INVARIANT = ("refelem.gauss_rule.calls", "layerquad.cell_rule.calls",
                  "assembly.local.calls", "linalg.dofs", "linalg.nnz",
                  "harness.cells")


def reference(workload):
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["ops"][workload]


def test_inputs_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        assert workloads.inputs(name, 7) == workloads.inputs(name, 7)
        for seed in range(20):
            for inp in workloads.inputs(name, seed):
                assert set(inp["eps"]) <= set(workloads.EPS_CHOICES)
                # every input a seed can produce has reference values
                ids = workloads.expected_ids(name, inp, reference(name))
                assert ids and all(i in reference(name) for i in ids)


def test_every_seed_does_the_same_work():
    import math
    for name in workloads.WORKLOADS:
        if name == "large-solve":
            continue  # one epsilon per run; see README
        work = {round(sum(math.log10(e) for inp in workloads.inputs(name, s)
                          for e in inp["eps"]), 9) for s in range(20)}
        assert len(work) == 1, name


def test_reference_records_the_known_diagnose_fail():
    ref = reference("diagnose")
    failing = sorted(k for k, v in ref.items() if not v["passed"])
    assert len(failing) == len(workloads.EPS_CHOICES)
    assert all("discrete orthogonality residual" in k for k in failing)


def _pass_like_reference(workload, inp):
    ref = reference(workload)
    ops = [{"id": i, "values": dict(ref[i]["values"]),
            "passed": ref[i]["passed"], "error": None}
           for i in workloads.expected_ids(workload, inp, ref)]
    return {"ops": ops, "error": None}, ref


def test_check_counts_known_fail_but_accepts_reference_outputs():
    inp = workloads.inputs("diagnose", 0)[0]
    res, ref = _pass_like_reference("diagnose", inp)
    attempted, failed, mismatches = run.check("diagnose", inp, res, ref)
    assert (attempted, failed, mismatches) == (6, 1, [])


def test_check_flags_outputs_that_leave_the_reference():
    inp = workloads.inputs("table-sweep", 0)[0]
    res, ref = _pass_like_reference("table-sweep", inp)
    assert run.check("table-sweep", inp, res, ref) == (20, 0, [])
    bad = copy.deepcopy(res)
    bad["ops"][3]["values"]["energy"] *= 1 + 1e-7
    attempted, failed, mismatches = run.check("table-sweep", inp, bad, ref)
    assert (attempted, failed, len(mismatches)) == (20, 1, 1)
    missing = copy.deepcopy(res)
    del missing["ops"][0]
    assert run.check("table-sweep", inp, missing, ref)[1] == 1
    raised = {"ops": [], "error": "SolveError: singular"}
    assert run.check("table-sweep", inp, raised, ref)[1] == 20


def test_every_import_binding_is_wrapped():
    from shishkin_hdg import assembly, layerquad, norms, projections, refelem
    originals = (refelem.gauss_rule, refelem.ref_tables, refelem.CellQuad)
    tracer = Tracer()
    patches = tracer.install()
    try:
        for mod in (assembly, norms, projections, layerquad):
            for name in ("gauss_rule", "ref_tables", "CellQuad"):
                if hasattr(mod, name):
                    assert getattr(mod, name) is getattr(refelem, name)
                    assert getattr(mod, name) not in originals
    finally:
        Tracer.uninstall(patches)
    assert (refelem.gauss_rule, refelem.ref_tables,
            refelem.CellQuad) == originals
    assert assembly.gauss_rule is refelem.gauss_rule


@pytest.fixture(scope="module")
def traced_sweeps():
    """Two traced table-sweep passes over one epsilon pair, one over the
    other pair, and an untraced pass over the first."""
    inp0, inp1 = ({"k": list(workloads.SWEEP_K), "eps": list(pair),
                   "n": list(workloads.SWEEP_N)} for pair in workloads.EPS_PAIRS)
    os.makedirs(run.OUT, exist_ok=True)
    return {"plain": run.run_one("table-sweep", inp0, False, "test-p"),
            "a": run.run_one("table-sweep", inp0, True, "test-a"),
            "b": run.run_one("table-sweep", inp0, True, "test-b"),
            "other_seed": run.run_one("table-sweep", inp1, True, "test-c")}


def test_traced_pass_is_bit_identical_to_untraced(traced_sweeps):
    assert traced_sweeps["a"]["ops"] == traced_sweeps["plain"]["ops"]
    assert not traced_sweeps["a"]["error"]


def test_counts_repeat_across_traced_runs_and_seeds(traced_sweeps):
    a, b, c = (traced_sweeps[k]["layers"] for k in ("a", "b", "other_seed"))
    for name in run.EXACT:
        assert a[name] == b[name], name
    for name in SEED_INVARIANT:
        assert a[name] == c[name], name
    assert a["harness.cells"][0] == 20


def test_diagnose_counts_and_distinct_ratio():
    inp = workloads.inputs("diagnose", 0)[0]
    plain = run.run_one("diagnose", inp, False, "test-dp")
    traced = run.run_one("diagnose", inp, True, "test-dt")
    assert traced["ops"] == plain["ops"]
    layers = traced["layers"]
    assert layers["assembly.local.calls"][0] == 203
    assert layers["assembly.local.distinct_ratio"][0] == pytest.approx(3 / 203)
    assert layers["harness.cells"][0] == 2
