"""The output gate: certificates and negative controls match the digests the
benchmark records in perfbench/digests.json.

Each certify and control operation of the battery and precision workloads
runs through the benchmark's own runner (the CLI for certify, the library for
controls), and the sha256 of its canonical JSON without runtime_ms must equal
the recorded one.  The digest file is only read.
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
    op
    for workload in ("battery", "precision")
    for op in workloads.all_ops(workload)
    if op.kind in ("certify", "control")
]


def test_the_gate_covers_every_certify_and_control_digest():
    recorded = {key for key in DIGESTS if key.split(":")[0] in ("certify", "control")}
    assert {op.id for op in OPS} == recorded
    assert len(OPS) == 18  # 10 battery and 5 raised-N certificates, 3 controls


@pytest.mark.parametrize("op", OPS, ids=[op.id for op in OPS])
def test_output_matches_its_recorded_digest(op, tmp_path):
    runner = workloads.Runner("battery", str(tmp_path), DIGESTS)
    code, out = runner.execute(op)
    assert out is not None, f"{op.id} wrote no output (exit {code})"
    assert workloads.digest(out) == DIGESTS[op.id]
