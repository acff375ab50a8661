"""A traced benchmark pass reports every per-layer metric BENCHMARK.json declares.

perfbench/run.py --trace 1 prints the tracer's summary; a declared metric
missing from it makes the run's output malformed.  That happens when a
traced layer is renamed away (it lands in `missing`) and also when a
counter's layer is never called: `states.nonzero_weight_ratio` exists
only if `states.state_weight` runs in the workload.  Each op is a cheap
one from one workload: divisibility, the character theorem (products) and
the HTSASM bijection (states).  The states workload is also traced whole,
as run.py traces it, with its state count answered by contraction.
"""

import json
import sys
from pathlib import Path

import pytest

import bentice.cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import Tracer  # noqa: E402

# one op from each workload; each traced pass prints its workload's summary
OPS = [
    ("verify", "divisibility", "--family", "BC", "--lambda", "3,2", "--scheme", "generic"),
    ("verify", "character", "--family", "B", "--lambda", "2,1"),
    ("verify", "bijection", "--family", "B", "--n", "2"),
]
ADDED_BY_RUN_PY = {"trace.overhead_s"}
DECLARED = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("op", OPS, ids=lambda op: op[1])
def test_traced_op_reports_every_declared_per_layer_metric(capsys, op):
    tracer = Tracer()
    tracer.install()
    try:
        # looked up after install, so the call goes through the wrapper
        code = tracer.run_op(0, bentice.cli.main, [*op, "--workers", "1", "--seed", "0"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.missing == []
    assert sorted(DECLARED - ADDED_BY_RUN_PY - set(tracer.summary())) == []


def test_traced_states_workload_counts_without_enumerating(capsys):
    ops = [("enumerate", "--family", "B", "--lambda", "2,1", "--emit", "count"),
           ("verify", "bijection", "--family", "B", "--n", "2")]
    tracer = Tracer()
    tracer.install()
    try:
        codes = [tracer.run_op(op_id, bentice.cli.main, [*op, "--workers", "1", "--seed", "0"])
                 for op_id, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    assert tracer.missing == []
    assert sorted(DECLARED - ADDED_BY_RUN_PY - set(tracer.summary())) == []
    opened = {(name, op_id) for name, _, _, _, op_id in tracer.spans}
    assert ("states.enumerate_states", 0) not in opened
    assert ("states.enumerate_states", 1) in opened
