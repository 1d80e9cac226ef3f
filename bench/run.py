"""Benchmark of the triphase landing sensor toolkit.

    python3 bench/run.py                                   # all workloads, one row each
    python3 bench/run.py --workload landing --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload cone --seed 1 --seconds 10 --trace 1

Workloads (inputs from ``inputs.py``, ops and output checks from ``workloads.py``):

* ``landing``: one ``simulate_landing`` per op.  The paper's closed loop;
  detector inversion does most of the work, behind it the simulator loop,
  geometry and guidance.  Bypasses the CLI and calibration I/O.
* ``cone``: one in-process ``triphase cone`` for one height per op.  Geometry
  range finding, the CLI and CSV writing; never calls the detector or guidance.
* ``calibrate``: measurement CSV -> fit -> save -> load per op, in memory.  The
  detector's write side (profile construction, fitting, I/O), not inversion.

Load model: one process, one thread, closed loop; the next op starts when the
previous one has returned and been checked.  Only the call into the program is
timed.  No CPU pinning or other machine tuning is used.

With ``--trace 0`` the run reports end-to-end metrics: ``setup_s`` (median over
fresh processes of the main thread's CPU time from process start to first
op ready, including ``import triphase``), op and per-cycle time percentiles, ops per
second of op time and peak resident memory.  A cycle is the op's repeated unit of work: a
sense-decide-act cycle (landing), an azimuth row (cone) or a measurement row
(calibrate).  Times are CPU times (see ``run_op``) scaled to a nominal host
speed (see ``speed.py``); the unscaled ones are printed beside them.

With ``--trace 1`` the run alternates untraced and traced passes over one fixed
block of inputs and reports per-layer metrics: calls, microseconds per call and
self milliseconds per pass for each wrapped function, exact counts from the
landing records, the tracing overhead, and how many landings of the fixed
low-start probe fail their check (see ``Landing.low_start_unconverged``).  The spans of the first traced pass
are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from itertools import chain, islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("landing", "cone", "calibrate")
SETUP_REPEATS = 9
MAX_LOGGED_FAILURES = 5

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cycle_us_p50": "us",
    "cycle_us_p90": "us",
    "peak_rss_mb": "MB",
}


class Tally:
    """Ops and checks attempted and failed; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if self.failed <= MAX_LOGGED_FAILURES:
                print(f"check failed: {problem}", file=sys.stderr)


def set_up(name, seed, workdir):
    """Everything before the first op: import, workload context, first input."""
    import inputs
    import workloads

    workload = workloads.WORKLOADS[name](workdir)
    stream = (workload.prepare(inp) for inp in inputs.GENERATORS[name](seed))
    return workload, chain([next(stream)], stream)


def measure_setup(name, seed):
    """Median over fresh processes of the main thread's CPU time from start to first op ready.

    Each probe scales its own figure by the speed gauge it runs right after
    set-up (see ``speed.py``).  Returns (scaled seconds, unscaled seconds).
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        ready, cpu_s, scale = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                                             timeout=120).stdout.split()
        if ready != "ready":
            raise RuntimeError(f"set-up probe printed {ready!r}")
        raw.append(float(cpu_s))
        scaled.append(float(cpu_s) * float(scale))
    return statistics.median(scaled), statistics.median(raw)


def run_op(workload, args, tally):
    """One closed-loop op: time the call, then check its output.

    The op is single-threaded and CPU-bound, so it is timed by this thread's
    CPU clock.  That clock equals the op's wall time, except that with paravirtual
    steal accounting the kernel does not charge it for spells in which the
    host ran other tenants on this vCPU.

    Returns (seconds, result), or None when the op raised or failed its check.
    """
    try:
        start = time.thread_time()
        result = workload.run(args)
        elapsed = time.thread_time() - start
        problem = workload.check(args, result)
    except Exception:  # any failure of the program under test is counted, not fatal
        tally.record(traceback.format_exc())
        return None
    tally.record(problem)
    return None if problem else (elapsed, result)


def run_reference(workload, tally):
    try:
        tally.record(workload.reference())
    except Exception:  # counted like a failed op
        tally.record(traceback.format_exc())


def percentiles(values):
    """(p50, p90) of the values; 0 for an empty list (every op failed)."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[-1]


def timed_phase(workload, stream, seconds, tally, gauge):
    """Closed-loop ops until the deadline: scaled op seconds, scaled cycle us, unscaled op seconds."""
    op_s, cycle_us, raw_s = [], [], []
    deadline = time.perf_counter() + seconds
    scale = gauge.scale()
    for args in stream:
        done = run_op(workload, args, tally)
        scale_before, scale = scale, gauge.scale()
        if done:
            elapsed, result = done
            scaled = elapsed * 0.5 * (scale_before + scale)
            raw_s.append(elapsed)
            op_s.append(scaled)
            cycle_us.append(scaled * 1e6 / workload.cycles(result))
        if time.perf_counter() >= deadline:
            return op_s, cycle_us, raw_s


def end_to_end(name, seed, seconds, workdir):
    import speed

    setup_s, setup_raw_s = measure_setup(name, seed)
    gauge = speed.Gauge()
    workload, stream = set_up(name, seed, workdir)
    tally = Tally()
    run_reference(workload, tally)
    op_s, cycle_us, raw_s = timed_phase(workload, stream, seconds, tally, gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    op_p50, op_p90 = percentiles(op_s)
    cycle_p50, cycle_p90 = percentiles(cycle_us)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(op_s) / sum(op_s) if op_s else 0.0,
        "op_ms_p50": op_p50 * 1e3,
        "op_ms_p90": op_p90 * 1e3,
        "cycle_us_p50": cycle_p50,
        "cycle_us_p90": cycle_p90,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    row = "  ".join(
        f"{k}={m['value']:.6g} {m['unit']}"
        + (f" (n={len(op_s)})" if k.endswith(("_p50", "_p90")) else "")
        + (f" (n={SETUP_REPEATS})" if k == "setup_s" else "")
        for k, m in metrics.items())
    print(f"{name:<9} {row}  failed_ratio={tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted})")
    raw_p50, raw_p90 = percentiles(raw_s)
    print(f"{'':<9} unscaled: setup_s={setup_raw_s:.6g} s  "
          f"op_ms_p50={raw_p50 * 1e3:.6g} ms  op_ms_p90={raw_p90 * 1e3:.6g} ms")
    return tally, metrics


def run_pass(workload, args_list, tally, tracer=None):
    """One pass over a fixed list of ops: total op seconds and summed exact counts."""
    total, counts = 0.0, Counter()
    for op, args in enumerate(args_list):
        if tracer:
            tracer.op = op
        done = run_op(workload, args, tally)
        if done:
            total += done[0]
            counts.update(workload.counts(done[1]))
    return total, counts


def traced(name, seed, seconds, workdir):
    import tracing
    import workloads

    workload, stream = set_up(name, seed, workdir)
    tally = Tally()
    run_reference(workload, tally)
    args_list = list(islice(stream, workload.pass_ops))
    ratios, summaries, first = [], [], None
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.csv"
    deadline = time.perf_counter() + seconds
    while not summaries or time.perf_counter() < deadline:
        plain, _ = run_pass(workload, args_list, tally)
        tracer = tracing.Tracer()
        with tracer.patched():
            with_spans, counts = run_pass(workload, args_list, tally, tracer)
        ratios.append(with_spans / plain if plain else 0.0)  # 0: every op failed
        summaries.append(tracer.summary())
        exact = (counts, {span: row[0] for span, row in summaries[-1].items()})
        if first is None:
            first = exact
            tracer.write(spans_path)
        else:
            tally.record(None if exact == first else "exact counts differ between traced passes")

    counts, calls = first
    metrics = {}
    for span in tracing.SPAN_NAMES:
        n = calls[span]
        metrics[f"{span}.calls"] = (n, "count")
        metrics[f"{span}.us_per_call"] = (
            statistics.median(s[span][1] / n / 1e3 for s in summaries) if n else 0.0, "us")
        metrics[f"{span}.self_ms"] = (statistics.median(s[span][2] / 1e6 for s in summaries), "ms")
    for key in workloads.COUNT_NAMES:
        metrics[key] = (counts[key], "count")
    cycles = counts["simulator.cycles"]
    inversions = calls["detector.voltage_from_phase"]
    metrics["detector.inversions_per_cycle"] = (inversions / cycles if cycles else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    metrics["simulator.low_start_unconverged"] = (workload.low_start_unconverged(), "count")

    print(f"{name}: {len(summaries)} traced passes of {len(args_list)} ops; spans in {spans_path}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def git_commit():
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(), "seed": seed,
            "src_lines": src_lines}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured phase per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be > 0")
    if args.setup_probe and args.workload == "all":
        parser.error("--setup-probe needs one workload")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "triphase" / "__init__.py").is_file():
        print(f"error: no triphase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import triphase

    if Path(triphase.__file__).resolve().parent != SRC / "triphase":
        print(f"error: imported triphase from {triphase.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        set_up(args.workload, args.seed, BENCH_DIR)
        cpu_s = time.thread_time()
        import speed

        gauge = speed.Gauge()
        for _ in range(speed.RECENT):
            scale = gauge.scale()
        print(f"ready {cpu_s!r} {scale!r}", flush=True)
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    measure = traced if args.trace else end_to_end
    print("environment: " + json.dumps(environment(args.seed)))
    attempted = failed = 0
    metrics = {}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        for name in names:
            tally, got = measure(name, args.seed, args.seconds, Path(workdir))
            attempted += tally.attempted
            failed += tally.failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
