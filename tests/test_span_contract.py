"""The span contract of the traced benchmark: one traced pass of each
workload fires every span perfbench/tracing.py expects of it, and no output
is wrong.

A traced run that misses an expected span is judged incorrect even when
every output is right, so a rebinding that no longer reaches its callers
(a renamed function, a call through another module's name, a path that
stops calling a layer) shows up here first.  The pass goes through the
benchmark's own runner and tracer, loaded from perfbench/ and only read.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("perfbench_workloads", "workloads.py")
tracing = _load("perfbench_tracing", "tracing.py")
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_traced_pass_fires_every_expected_span(workload, tmp_path):
    runner = workloads.Runner(workload, str(tmp_path), DIGESTS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in workloads.pass_order(workload, random.Random(0)):
            code, out = tracer.span(f"op.{op.kind}", op.id, runner.execute, op)
            _, wrong = runner.check(op, code, out)
            assert not wrong, runner.problems
    finally:
        tracer.uninstall()
    fired = {span[1] for span in tracer.spans}
    missing = [name for name in tracing.EXPECTED[workload] if name not in fired]
    assert not missing, f"spans never fired: {missing}"
