"""Benchmark of the adecox package: three seeded workloads, exact checks.

    python3 bench/run.py --workload ring|weyl|session|all --seed N \
        --seconds S --trace 0|1

``ring`` and ``weyl`` are cold: every op runs in a fresh interpreter, as an
``adecox`` CLI call does.  ``session`` is warm: one process answers a stream
of small library queries.  All three are closed loops with one client, so
nothing queues and waiting time is zero by construction.

With ``--trace 0`` the run measures for at least S seconds (whole cycles of
the workload's op list) and prints the end-to-end metrics.  With
``--trace 1`` it runs a fixed op list (one cycle; 300 session blocks) twice,
untraced and then traced, and prints the per-layer metrics and the tracing
overhead.  Every result is checked by exact equality; a wrong number stops
the run with exit code 1 and no result line.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Each run also writes its record (metrics, per-op latencies, environment) to
``bench/out/runs/`` and, when traced, its spans to ``bench/out/traces/``;
``bench/compare.py`` reads the run records.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import ops
from session import WRONG_RESULT
from spans import LAYER_METRICS, layer_metrics

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
# -E -s: ignore PYTHON* variables and the user site, so only SRC provides adecox.
PYTHON = [sys.executable, "-E", "-s"]
WORKER = os.path.join(BENCH, "worker.py")
SESSION = os.path.join(BENCH, "session.py")

SETUP_EVERY = 3  # cold: one set-up sample per this many ops
# The session stream is measured in this many segments; a set-up sample is
# taken before each and after the last, so the samples spread over the run.
SESSION_SEGMENTS = 15
TRACE_BLOCKS = 300
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 165  # a run must end within 180 s

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_share": "share",
}

class Abort(Exception):
    """The run cannot produce a valid result."""


@dataclass
class Child:
    seconds: float
    ready_s: float | None
    stdout: bytes
    code: int
    rss_mb: float
    start_ns: int
    end_ns: int


def spawn(args: list[str], ready: bool = False, talk=None) -> Child:
    """Run a child to its end; time it and read its peak RSS through wait4.

    With ``ready`` the child prints ``ready`` once set up, and the time to
    that line is returned as ``ready_s``.  ``talk(proc)``, if given, is then
    called with the child's stdin open.  The child is killed after
    CHILD_TIMEOUT_S and always reaped before this returns.
    """
    start_ns = time.perf_counter_ns()
    stdin = subprocess.PIPE if talk else subprocess.DEVNULL
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stdin=stdin, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    ready_s = None
    status = None
    try:
        if ready:
            line = proc.stdout.readline()
            ready_s = (time.perf_counter_ns() - start_ns) / 1e9
            if line != b"ready\n":
                ready_s = None
            elif talk:
                talk(proc)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        end_ns = time.perf_counter_ns()
    finally:
        timer.cancel()
        if status is None:
            proc.kill()
            _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        if proc.stdin:
            proc.stdin.close()
    return Child((end_ns - start_ns) / 1e9, ready_s, out, proc.returncode,
                 usage.ru_maxrss / 1024, start_ns, end_ns)


def _beta_window(a: float, b: float, width: float) -> tuple[float, float]:
    """The interval of the given width where the Beta(a, b) density is highest."""
    if a > 1 and b > 1:
        def logpdf(x: float) -> float:
            return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x) if 0 < x < 1 else -math.inf

        mode = (a - 1) / (a + b - 2)
        lo, hi = max(0.0, mode - width), min(mode, 1.0 - width)
        for _ in range(60):  # the density is equal at both ends of the window
            mid = (lo + hi) / 2
            if logpdf(mid) < logpdf(mid + width):
                lo = mid
            else:
                hi = mid
        return lo, lo + width
    return (1.0 - width, 1.0) if a > 1 else (0.0, width)


def percentile(values: list[float], p: float) -> float:
    """Trimmed Harrell-Davis estimate of the p-quantile (Akinshin 2022).

    A weighted mean of the order statistics: the weights are the Beta((n+1)p,
    (n+1)(1-p)) mass over each rank, kept only on that density's highest
    window of width 1/sqrt(n).  On a cold run's few dozen ops this averages
    the handful of latencies around the quantile, where one or two ranks
    would jump between ops of very different cost.  A failed op is ``inf``,
    slower than any; it makes the estimate ``inf`` when its rank falls in
    the window.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    lo, hi = _beta_window(a, b, 1 / math.sqrt(n))
    steps = 32  # midpoint rule per rank
    spans = []
    for i in range(max(0, math.floor(lo * n)), min(n, math.ceil(hi * n))):
        left, right = max(lo, i / n), min(hi, (i + 1) / n)
        if right > left:
            h = (right - left) / steps
            xs = [left + (j + 0.5) * h for j in range(steps)]
            spans.append((i, h, [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in xs]))
    peak = max(v for _, _, logs in spans for v in logs)
    weights = [(i, h * sum(math.exp(v - peak) for v in logs)) for i, h, logs in spans]
    total = sum(w for _, w in weights)
    return sum(w / total * ordered[i] for i, w in weights if w > 0)


def environment(seed: int, op_counts: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "op_counts": dict(sorted(op_counts.items())),
        "note": "CPU pinning and frequency scaling are left unset: the machine's "
                "settings may not be changed.",
    }


# ------------------------------------------------------------------ cold


def cold_setup() -> float:
    """Seconds from a fresh interpreter through ``import adecox``."""
    child = spawn([*PYTHON, WORKER, SRC, "0", "setup"])
    if child.code != 0:
        raise Abort(f"cannot import adecox from {SRC}")
    return child.seconds


def cold_op(op: dict, op_id: int, trace: bool, spans: list) -> dict:
    child = spawn([*PYTHON, WORKER, SRC, "1" if trace else "0", json.dumps(op)])
    record = {"label": ops.label(op), "kind": op["kind"], "seconds": child.seconds, "rss_mb": child.rss_mb}
    if child.code != 0:
        record["status"] = "failed"
        return record
    out = json.loads(child.stdout)
    try:
        record["status"] = ops.check(op, out)
    except ops.Mismatch as exc:
        raise Abort(f"wrong result for {ops.label(op)} {json.dumps(op)}: {exc}") from exc
    if trace:
        spans.append([op_id, -1, None, "op", child.start_ns, child.end_ns, 0])
        for span in out["spans"]:
            span[0] = op_id
            if span[2] is None:
                span[2] = -1
            spans.append(span)
    return record


def traced_op(op: dict, op_id: int, spans: list) -> dict:
    """Run an op untraced and traced, in alternating order, so the difference
    is the tracing overhead at the same machine speed."""
    if op_id % 2:
        record = cold_op(op, op_id, True, spans)
        plain = cold_op(op, op_id, False, spans)
    else:
        plain = cold_op(op, op_id, False, spans)
        record = cold_op(op, op_id, True, spans)
    record["untraced_s"] = plain["seconds"]
    return record


def cold_pass(workload: str, seed: int, trace: bool, started: float, seconds=None, setup=None):
    """Whole cycles of the workload: one if ``seconds`` is None, else as many
    as start before ``seconds`` have passed.  When a ``setup`` list is given,
    a set-up sample is taken every SETUP_EVERY ops, so the samples spread
    over the run as the machine's speed drifts."""
    rng = random.Random(seed)
    records: list[dict] = []
    spans: list[list] = []
    begin = time.perf_counter()
    while True:
        for op in ops.CYCLES[workload](rng):
            if time.perf_counter() - started > RUN_BUDGET_S:
                raise Abort(f"run exceeded {RUN_BUDGET_S} s")
            if setup is not None and len(records) % SETUP_EVERY == 0:
                setup.append(cold_setup())
            op_id = len(records)
            records.append(traced_op(op, op_id, spans) if trace else cold_op(op, op_id, False, spans))
        if seconds is None or time.perf_counter() - begin >= seconds:
            return records, spans


def cold_metrics(records: list[dict], setup: list[float]) -> dict:
    ok = sum(r["status"] == "ok" for r in records)
    # Refusals at the documented guard are answers, not slow ops: they leave
    # the latency percentiles and lower ok_share.  Failures are infinitely slow.
    lat = [r["seconds"] * 1e3 if r["status"] == "ok" else math.inf
           for r in records if r["status"] != "refused"]
    return {
        "ops_per_s": ok / sum(r["seconds"] for r in records),
        "op_p50_ms": percentile(lat, 0.50),
        "op_p90_ms": percentile(lat, 0.90),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "setup_s": statistics.median(setup),
        "ok_share": ok / len(records),
    }


def run_cold(workload: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    cold_setup()  # the first start also writes the bytecode
    if not trace:
        setup: list[float] = []
        records, _ = cold_pass(workload, seed, False, started, seconds, setup)
        return {"records": records, "metrics": cold_metrics(records, setup)}
    records, spans = cold_pass(workload, seed, True, started)
    base = sum(r["untraced_s"] for r in records)
    return {
        "records": records,
        "spans": spans,
        "overhead_pct": 100 * (sum(r["seconds"] for r in records) - base) / base,
        "untraced_s": base,
    }


# --------------------------------------------------------------- session


def session_child(seed: int, trace: bool, mode: str, talk=None) -> tuple[Child, dict | None]:
    child = spawn([*PYTHON, SESSION, SRC, str(seed), "1" if trace else "0", mode], ready=True, talk=talk)
    if child.code == WRONG_RESULT:
        raise Abort("session: a query returned a wrong result (see stderr)")
    if child.code != 0 or child.ready_s is None:
        raise Abort(f"session worker failed with exit code {child.code}")
    return child, (json.loads(child.stdout) if mode != "setup" else None)


def session_records(out: dict) -> list[dict]:
    return [{"seconds": ns / 1e9 if ns >= 0 else math.inf} for ns in out["latencies_ns"]]


def run_session(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        _, out = session_child(seed, True, f"blocks:{TRACE_BLOCKS}")
        traced = sum(out["latencies_ns"]) / 1e9
        return {
            "records": session_records(out),
            "spans": out["spans"],
            "overhead_pct": 100 * (traced - out["untraced_s"]) / out["untraced_s"],
            "untraced_s": out["untraced_s"],
            "repeat_share": out["repeat_share"],
            "counts": out["counts"],
        }
    setup: list[float] = []

    def talk(proc) -> None:
        """Measure the stream in segments, with a fresh set-up sample before
        each segment and after the last, while the stream process waits."""
        try:
            for _ in range(SESSION_SEGMENTS):
                setup.append(session_child(seed, False, "setup")[0].ready_s)
                proc.stdin.write(f"run {seconds / SESSION_SEGMENTS}\n".encode())
                proc.stdin.flush()
                if proc.stdout.readline() != b"paused\n":
                    return  # the exit code tells why
            setup.append(session_child(seed, False, "setup")[0].ready_s)
            proc.stdin.write(b"end\n")
            proc.stdin.flush()
        except BrokenPipeError:
            pass  # the stream process ended early; its exit code tells why

    child, out = session_child(seed, False, "stream", talk)
    setup.append(child.ready_s)
    lat_ms = [ns / 1e6 if ns >= 0 else math.inf for ns in out["latencies_ns"]]
    ok = len(lat_ms) - out["failed"]
    metrics = {
        "ops_per_s": ok / out["busy_s"],
        "op_p50_ms": percentile(lat_ms, 0.50),
        "op_p90_ms": percentile(lat_ms, 0.90),
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": statistics.median(setup),
        "ok_share": ok / len(lat_ms),
    }
    return {
        "records": session_records(out),
        "metrics": metrics,
        "repeat_share": out["repeat_share"],
        "counts": out["counts"],
        "blocks": out["blocks"],
    }


# ----------------------------------------------------------------- report


def write_json(kind: str, name: str, doc: dict) -> str:
    directory = os.path.join(OUT, kind)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}-{time.time_ns()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    if workload == "session":
        run = run_session(seed, seconds, trace)
        op_counts = run["counts"]
    else:
        run = run_cold(workload, seed, seconds, trace, started)
        op_counts = Counter(r["kind"] for r in run["records"])
    records = run["records"]
    statuses = Counter(r.get("status", "failed" if math.isinf(r["seconds"]) else "ok") for r in records)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(records),
        "failed": statuses["failed"],
        "refused": statuses["refused"],
        "environment": environment(seed, op_counts),
    }
    if trace:
        values, missing, idle = layer_metrics(run["spans"], workload)
        values["session.repeat_share"] = run.get("repeat_share", 0)
        values["trace.overhead_pct"] = run["overhead_pct"]
        record["metrics"] = values
        record["missing"] = missing
        record["idle"] = idle
        record["untraced_s"] = run["untraced_s"]
        if missing:
            print(f"warning: {workload}: no span for {', '.join(missing)}; reported as 0, "
                  "though this workload is built to call that layer", file=sys.stderr)
        trace_doc = {"workload": workload, "seed": seed, "records": records, "spans": run["spans"],
                     "span_fields": ["op_id", "span_id", "parent_id", "name", "start_ns", "end_ns", "count"]}
        record["trace_file"] = os.path.relpath(write_json("traces", f"{workload}-seed{seed}", trace_doc), ROOT)
    else:
        record["metrics"] = run["metrics"]
        if workload == "session":
            record["repeat_share"] = run["repeat_share"]
            record["blocks"] = run["blocks"]
        else:
            record["ops"] = [(r["label"], round(r["seconds"], 6), r["status"]) for r in records]
    write_json("runs", f"{workload}-seed{seed}-trace{int(trace)}", record)
    return record


def units(trace: bool) -> dict:
    if not trace:
        return END_TO_END_UNITS
    out = {name: ("s" if name.endswith("_s") else "count") for name in LAYER_METRICS}
    out["session.repeat_share"] = "share"
    out["trace.overhead_pct"] = "%"
    return out


def print_table(record: dict, unit: dict) -> None:
    print(f"# {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}  refused {record['refused']}")
    for name, value in record["metrics"].items():
        mark = ("  (missing: no span)" if name in record.get("missing", ())
                else "  (layer not used here)" if name in record.get("idle", ()) else "")
        print(f"  {name:28s} {value:14.6g} {unit[name]}{mark}")
    if "repeat_share" in record:
        print(f"  repeat share: {record['repeat_share']:.4f} of the queries in the first blocks")
    env = record["environment"]
    print(f"  env: Python {env['python']}, {env['cpu']}, nproc {env['nproc']}; {env['note']}")
    print(f"  ops: {env['op_counts']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("ring", "weyl", "session", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adecox", "__init__.py")):
        print(f"error: no adecox package under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that spawn() kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    unit = units(trace)
    workloads = ("ring", "weyl", "session") if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(workload, args.seed, args.seconds, trace, time.perf_counter()))
            print_table(results[-1], unit)
            sys.stdout.flush()
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": unit[k]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": unit[k]}
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
