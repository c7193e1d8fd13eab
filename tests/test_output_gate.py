"""The output gate: every output the benchmark records a digest of in
perfbench/digests.json matches it.

Each certify, control, oracle and H^2 operation of the four workloads runs
through the benchmark's own runner (the CLI for certify and oracle, the
library for controls and direct H^2), one runner per workload, as the H^2
rows need that workload's input groups.  The sha256 of its canonical JSON
without runtime_ms must equal the recorded one.  The digest file is only
read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
OPS = [
    (workload, op)
    for workload in workloads.WORKLOADS
    for op in workloads.all_ops(workload)
    if op.kind != "verify"  # verify outputs have no recorded digest
]


def test_the_gate_covers_every_recorded_digest():
    assert sorted(op.id for _, op in OPS) == sorted(DIGESTS)


@pytest.mark.parametrize("workload,op", OPS, ids=[op.id for _, op in OPS])
def test_output_matches_its_recorded_digest(workload, op, tmp_path):
    runner = workloads.Runner(workload, str(tmp_path), DIGESTS)
    code, out = runner.execute(op)
    assert out is not None, f"{op.id} wrote no output (exit {code})"
    assert workloads.digest(out) == DIGESTS[op.id]
