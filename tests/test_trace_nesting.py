"""The benchmark's span tracer reads the program's call tree correctly.

A k=2, N=64 solve runs under perfbench/tracer.py's Tracer, which records a
span per call of every public function of the program's layers with the
span it was called from. Every call runs on the calling thread, so each
span lies inside its parent's interval and no layer's self time is
negative. The test reads perfbench/ and writes nothing there.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from tracer import Tracer  # noqa: E402

from shishkin_hdg import harness  # noqa: E402


def test_spans_nest_inside_their_parents():
    cfg = harness.StudyConfig(k_list=[2], eps_list=[1e-6], n_list=[64],
                              mode="both")
    tracer = Tracer()
    patches = tracer.install()
    try:
        harness.run_single(cfg)
    finally:
        tracer.uninstall(patches)
    spans = tracer.spans
    assert any(name == "assembly.condense" for name, *_ in spans)
    outside = [(name, spans[parent][0])
               for name, start, end, parent in spans
               if parent >= 0 and not (spans[parent][1] <= start
                                       and end <= spans[parent][2])]
    assert not outside, (len(outside), len(spans), outside[:5])
    negative = {layer: s for layer, s in tracer.self_times().items() if s < 0}
    assert not negative, negative
