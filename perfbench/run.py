"""defring benchmark: closed-loop passes over a workload's operation list.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload battery --seed 1 --seconds 22 --trace 0

One process, one operation at a time, no threads.  Each pass runs every
operation of the workload once, in an order shuffled by --seed; passes repeat
until --seconds have passed.  Times are normalised to a reference machine
speed with a calibration loop run next to them (see speed.py).  Every output
is checked (see workloads.py).  With --trace 0 the last stdout line reports the
end-to-end metrics named in BENCHMARK.json; with --trace 1 passes alternate
untraced and traced, and it reports the per-layer metrics of the traced
passes plus the tracing overhead.  Earlier lines print every metric with its
unit and sample count, and the provenance of the run; the full result and
the spans go to perfbench_out/.

    python3 perfbench/run.py --record-digests

runs each operation once and rewrites perfbench/digests.json, the reference
outputs the checks compare against.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One process, no threads: numpy's BLAS pool would start a thread per CPU in
# every interpreter, whose start-up cost swings with the other CPU's load,
# and defring's integer kernels never call BLAS.  Set before numpy loads; the
# set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5  # before the first pass; one more follows each pass
PROBE_LOOPS = 3  # calibration loops after each set-up probe

try:
    LIBC = ctypes.CDLL("libc.so.6")
    LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    LIBC = None

# Imports the package and builds a workload's inputs in a fresh interpreter;
# prints the seconds it took and the median time of the pure-Python
# calibration loop right after.
SETUP_PROBE = """
import statistics, sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import defring.cli, defring.certify, defring.cohomology
import workloads
workloads.build_inputs(sys.argv[3])
dt = time.perf_counter() - t0
import speed
loops = [speed.loop_s("python") for _ in range(int(sys.argv[4]))]
print(repr(dt), repr(statistics.median(loops)))
"""

COMMANDS = ("certify", "verify", "control", "oracle", "h2")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_package():
    """Import defring from this checkout's src/, never from elsewhere."""
    if not (SRC / "defring" / "__init__.py").is_file():
        raise ImportError(f"no defring package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import defring

    if Path(defring.__file__).resolve().parent != SRC / "defring":
        raise ImportError(f"defring imported from {defring.__file__}, not {SRC}")
    return defring


def setup_samples(workload: str, count: int) -> list[tuple[float, float]]:
    """(normalised, wall) set-up seconds of `count` fresh interpreters.  The
    set-up imports and unmarshals code in the interpreter, so every workload
    normalises it by the pure-Python loop."""
    import speed

    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(PROBE_LOOPS)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        wall, loop = map(float, proc.stdout.strip().splitlines()[-1].split())
        samples.append((wall / loop * speed.REF_S["python"], wall))
    return samples


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; "unknown" in
    an export."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(defring, workload: str, seed: int, ops) -> dict:
    import numpy
    import workloads

    return {
        "workload": workload,
        "seed": seed,
        "kernel_backend": defring.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
        "calibration": workloads.CALIBRATION[workload],
        "operations": [op.id for op in ops],
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear interpolation between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(runner, ops, tracer, calibration: str):
    """Run one pass; returns per-operation records (op, seconds, ok, wrong,
    wall seconds).  `seconds` is the wall time normalised by the mean of the
    `calibration` loops run just before and just after the operation."""
    import speed

    records = []
    loop_before = speed.loop_s(calibration)
    for op in ops:
        # A user runs each command in a fresh process, so no operation should
        # pay for, or peak on top of, the garbage and the freed but retained
        # heap of the ones before.
        gc.collect()
        if LIBC is not None:
            LIBC.malloc_trim(0)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code, out = runner.execute(op)
            else:
                code, out = tracer.span(f"op.{op.kind}", op.id, runner.execute, op)
        except Exception:  # noqa: BLE001 - one failing operation must not stop the run
            dt = time.perf_counter() - t0
            runner.problems.append(f"{op.id}: raised\n{traceback.format_exc()}")
            ok, wrong = False, True
        else:
            dt = time.perf_counter() - t0
            ok, wrong = runner.check(op, code, out)
        loop_after = speed.loop_s(calibration)
        scale = speed.REF_S[calibration] / ((loop_before + loop_after) / 2)
        records.append((op, dt * scale, ok, wrong, dt))
        loop_before = loop_after
    return records


def op_medians(passes, ok_only: bool, wall: bool = False) -> dict:
    """Operation -> median normalised (or wall) seconds over its executions
    in `passes`, or over its successful ones only."""
    times: dict = {}
    for recs in passes:
        for op, dt, ok, _, wall_dt in recs:
            if ok or not ok_only:
                times.setdefault(op, []).append(wall_dt if wall else dt)
    return {op: statistics.median(v) for op, v in times.items()}


def pass_time(passes, wall: bool = False) -> float:
    """Typical seconds of one pass in its operations, without the checks: the
    sum of each operation's median.  A sum of medians is steadier than a
    median of sums."""
    return sum(op_medians(passes, ok_only=False, wall=wall).values())


def end_to_end(passes, setup) -> dict:
    """name -> (value, unit, sample count), over untraced passes.  Latency
    percentiles are taken over the operation list, each operation at its
    median over the run's passes."""
    untraced = [recs for recs, traced in passes if not traced]
    ok_times = op_medians(untraced, ok_only=True)
    lat = [dt * 1e3 for dt in ok_times.values()]
    runs = [rec for recs in untraced for rec in recs]
    attempted = len(runs)
    failed = sum(1 for rec in runs if not rec[2])
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s", len(setup)),
        "pass_s": (pass_time(untraced), "s", len(untraced)),
        "op_ms_p50": (percentile(lat, 50) if lat else float("nan"), "ms", len(lat)),
        "op_ms_p90": (percentile(lat, 90) if lat else float("nan"), "ms", len(lat)),
    }
    for kind in COMMANDS:
        n_ok = sum(1 for op, _, ok, _, _ in runs if ok and op.kind == kind)
        total = sum(t for op, t in ok_times.items() if op.kind == kind)
        metrics[f"{kind}_s"] = (total, "s", n_ok)
    metrics["fail_ratio"] = (failed / attempted, "1", attempted)
    # the same at the machine's speed during the run, for reference
    metrics["wall.setup_s"] = (statistics.median(w for _, w in setup), "s", len(setup))
    metrics["wall.pass_s"] = (pass_time(untraced, wall=True), "s", len(untraced))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
    return metrics


def per_layer(passes, traced_spans) -> dict:
    import tracing

    layers = [tracing.layer_metrics(spans) for spans in traced_spans]
    metrics = {}
    for name in layers[0]:
        unit = "s" if name.endswith("_s") else ("1" if name.endswith("_ratio") else "count")
        # counts repeat exactly from pass to pass; keep them whole
        median = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (median(l[name] for l in layers), unit, len(layers))
    pass_s = {
        traced: pass_time([recs for recs, t in passes if t == traced]) for traced in (False, True)
    }
    metrics["trace.pass_s"] = (pass_s[True], "s", len(traced_spans))
    # span times are wall seconds; their shares are taken of the same
    metrics["wall.trace.pass_s"] = (
        pass_time([recs for recs, t in passes if t], wall=True), "s", len(traced_spans)
    )
    metrics["trace.overhead_s"] = (pass_s[True] - pass_s[False], "s", len(passes))
    metrics["trace.spans"] = (
        statistics.median(len(spans) for spans in traced_spans),
        "count",
        len(traced_spans),
    )
    return metrics


def top_layers(metrics, k: int = 6) -> list[tuple[str, float]]:
    """The k largest per-layer self times as shares of the traced pass, both
    in wall seconds."""
    total = metrics["wall.trace.pass_s"][0]
    times = [
        (name[:-2], value / total)
        for name, (value, unit, _) in metrics.items()
        if unit == "s" and not name.startswith(("trace.", "wall.")) and value > 0
    ]
    return sorted(times, key=lambda t: -t[1])[:k]


def write_spans(path: Path, traced_spans) -> None:
    with open(path, "w") as fh:
        for k, spans in enumerate(traced_spans):
            for sid, name, start, end, parent, op, counts in spans:
                rec = {"pass": k, "id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def record_digests() -> int:
    import workloads

    digests = {}
    workdir = tempfile.mkdtemp(prefix="digests-", dir=ROOT)
    try:
        for workload in workloads.WORKLOADS:
            runner = workloads.Runner(workload, workdir, None)
            for op in workloads.all_ops(workload):
                if op.kind == "verify":
                    continue
                code, out = runner.execute(op)
                ok, _ = runner.check(op, code, out)
                if not ok:
                    return fail(f"{op.id} fails its check; not recording: {runner.problems}")
                digests[op.id] = workloads.digest(out)
                print(op.id, digests[op.id][:16], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    try:
        defring = import_package()
    except ImportError as exc:
        return fail(f"cannot import the program: {exc}")
    import tracing
    import workloads

    if args.record_digests:
        return record_digests()
    if args.workload not in workloads.WORKLOADS:
        return fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not DIGESTS.is_file():
        return fail(f"missing {DIGESTS.name}; run with --record-digests")
    digests = json.loads(DIGESTS.read_text())

    # set-up probes are spread over the run, so that they see the same
    # drift in machine speed as the passes do
    setup = [] if args.trace else setup_samples(args.workload, SETUP_PROBES)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        runner = workloads.Runner(args.workload, workdir, digests)
        rng = random.Random(args.seed)
        calibration = workloads.CALIBRATION[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        passes = []  # (records, traced)
        traced_spans = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            ops = workloads.pass_order(args.workload, rng)
            if traced:
                tracer.spans.clear()
                tracer.install()
                try:
                    records = run_pass(runner, ops, tracer, calibration)
                finally:
                    tracer.uninstall()
                traced_spans.append(list(tracer.spans))
            else:
                records = run_pass(runner, ops, None, calibration)
            passes.append((records, traced))
            if not args.trace:
                setup += setup_samples(args.workload, 1)
            if args.trace and len(passes) < 2:
                continue
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(defring, args.workload, args.seed, workloads.all_ops(args.workload))
    problems = list(runner.problems)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = per_layer(passes, traced_spans)
        declared = [m["name"] for m in spec["per_layer"]]
        fired = {s[1] for spans in traced_spans for s in spans}
        missing = [name for name in tracing.EXPECTED[args.workload] if name not in fired]
        if missing:
            problems.append(f"harness self-test: spans never fired: {missing}")
    else:
        metrics = end_to_end(passes, setup)
        declared = [m["name"] for m in spec["end_to_end"]]

    all_records = [rec for recs, _ in passes for rec in recs]
    attempted = len(all_records)
    failed = sum(1 for rec in all_records if not rec[2])
    wrong = sum(1 for rec in all_records if rec[3])
    known = failed - sum(1 for rec in all_records if not rec[2] and rec[3])
    correct = wrong == 0 and not (args.trace and missing)

    print(f"provenance: {json.dumps(prov)}")
    for name in declared + [k for k in metrics if k not in declared]:
        value, unit, n = metrics[name]
        print(f"{name:34s} {value:16.6f} {unit:5s} n={n}")
    if args.trace:
        print("largest layer self times, share of the traced pass:")
        for name, share in top_layers(metrics):
            print(f"  {name:32s} {share:6.1%}")
    if known:
        print(f"known defect: {known} of {attempted} operations failed as listed in NOTES.md")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{name}.json").write_text(
        json.dumps(
            {
                "provenance": prov,
                "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
                "attempted": attempted,
                "failed": failed,
                "wrong": wrong,
                "problems": problems,
                "passes": [
                    {"traced": t, "ops": [[op.id, dt, wall, ok] for op, dt, ok, _, wall in recs]}
                    for recs, t in passes
                ],
            },
            indent=1,
        )
        + "\n"
    )
    if args.trace:
        write_spans(OUT_DIR / f"spans-{name}.jsonl", traced_spans)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
