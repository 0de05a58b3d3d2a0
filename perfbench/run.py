#!/usr/bin/env python3
"""Benchmark of the ellmf library and its command-line front end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src.
Workloads are listed in BENCHMARK.json and built in workloads.py.  Load
comes from one caller in a closed loop: each op starts only when the
previous one has finished, and the checking of its output, which happens
between ops, is not timed.

--trace 0 measures the end-to-end metrics with the program unmodified.
The machine this was written on changes speed by up to 1.5x for seconds at
a time (other tenants share its cores), so the process pins itself to one
CPU and re-times a fixed piece of pure-Python work, `reference()`, every
REF_PERIOD seconds and before each import.  Each op time and each import
time is scaled by REF_SECONDS / (the median of the five reference times
around it), that is, reported at the speed at which the reference takes
REF_SECONDS.  The unscaled figures are in the run record.

--trace 1 is a separate run: a fixed, seeded list of ops is run in pairs of
passes, once untraced and once with every layer wrapped by tracer.py, until
--seconds have passed.  Counts come from the first traced pass and repeat
exactly for a seed; times are medians over the traced passes, unscaled.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines above it hold a run record and
every metric with its unit, error_rate included.  --workload all runs each
workload in a process of its own and prints one table.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
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
from array import array
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("mf-symbolic", "mf-numeric", "sheaf-queries", "cli-process")

END_TO_END_UNITS = {"throughput_ops_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
# About the reference's time on an idle core of the 2-vCPU Intel Xeon
# machine the benchmark was defined on.
REF_SECONDS = 0.004
REF_PERIOD = 0.1
# Percentiles op_tail_ms may use, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".bytes_" in name:
        return "bytes"
    return "count"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def reference() -> float:
    """Seconds a fixed mix of dict, tuple and Fraction work takes now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        key = (i % 97, i % 31)
        table[key] = table.get(key, 0) + 3 * i
    sorted(table.items())
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return time.perf_counter() - t0


class Speed:
    """Reference times taken during a run, and the scale factor from the
    machine speed at a given moment to the reference speed."""

    def __init__(self):
        self.times = array("d")
        self.samples = array("d")
        self.due = 0.0

    def sample(self) -> None:
        self.samples.append(reference())
        self.times.append(time.perf_counter())
        self.due = self.times[-1] + REF_PERIOD

    def tick(self) -> None:
        if time.perf_counter() >= self.due:
            self.sample()

    def scale_at(self, t: float) -> float:
        """From the three samples before t and the two after it."""
        k = bisect.bisect(self.times, t)
        return REF_SECONDS / statistics.median(
            self.samples[max(0, k - 3):k + 2])


def import_seconds(module: str, speed: Speed) -> tuple[float, float]:
    """Median (scaled, unscaled) import time of `module`, timed inside
    SETUP_REPEATS fresh interpreters."""
    code = ("import time; t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    starts, raw = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        starts.append(time.perf_counter())
        raw.append(float(subprocess.run([sys.executable, "-c", code],
                                        env=child_env(), cwd=ROOT, check=True,
                                        capture_output=True, text=True,
                                        timeout=60).stdout))
    speed.sample()
    return (statistics.median(secs * speed.scale_at(t)
                              for t, secs in zip(starts, raw)),
            statistics.median(raw))


def start_seconds(argv: list[str], repeats: int) -> float:
    """Median wall time of a fresh interpreter running argv."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                       check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(latencies: list[float], cap: float):
    """(percentile, value, samples beyond it): the highest percentile up to
    `cap` with at least ten samples beyond it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if pct <= cap and (n - rank >= 10 or pct == TAIL_LADDER[-1]):
            return pct, xs[rank - 1], n - rank
    raise AssertionError("unreachable")


def attempt(wl, i: int):
    """Run op i and check it; returns (start, seconds, error or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
    except Exception as exc:                  # counted as a failed op
        return t0, time.perf_counter() - t0, exc
    elapsed = time.perf_counter() - t0
    try:
        wl.check(i, out)
    except Exception as exc:                  # Mismatch, or a malformed output
        return t0, elapsed, exc
    return t0, elapsed, None


class Tally:
    """Start, unscaled seconds and outcome of every op, in compact arrays so
    that peak_rss_mb barely grows with the op count."""

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")
        self.ok = array("b")
        self.failed = 0
        self.first_failure = None

    @property
    def attempted(self) -> int:
        return len(self.ok)

    def add(self, i: int, start: float, seconds: float, error) -> None:
        self.starts.append(start)
        self.seconds.append(seconds)
        self.ok.append(error is None)
        if error is not None:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"op {i}: {error!r}"


def measure(wl, seconds: float, speed: Speed) -> Tally:
    """Closed loop for `seconds` after a short warm-up, with reference
    samples between ops."""
    i = 0
    warm_end = time.perf_counter() + min(1.0, seconds / 5)
    while time.perf_counter() < warm_end:
        attempt(wl, i)
        i += 1
    tally = Tally()
    end = time.perf_counter() + seconds
    while tally.attempted == 0 or time.perf_counter() < end:
        speed.tick()
        tally.add(i, *attempt(wl, i))
        i += 1
    speed.sample()
    return tally


def end_to_end(tally: Tally, speed: Speed, cap: float):
    """Scaled throughput, p50 and tail; failed ops count in the time spent
    but not in the ops completed or the latencies."""
    scaled = [secs * speed.scale_at(t)
              for t, secs in zip(tally.starts, tally.seconds)]
    good = [secs for secs, ok in zip(scaled, tally.ok) if ok] or [math.nan]
    pct, tail_s, beyond = tail(good, cap)
    return ((tally.attempted - tally.failed) / sum(scaled),
            statistics.median(good), tail_s, pct, beyond)


def traced_pass(wl, tracer, tally: Tally | None):
    """One pass over the traced op list; returns its wall seconds.  Outputs
    are checked after the pass, with the tracer removed."""
    op = getattr(wl, "traced_op", wl.op)
    outs = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        for i in range(wl.trace_ops):
            if tracer is not None:
                tracer.op = i
            try:
                outs.append((op(i), None))
            except Exception as exc:          # counted as a failed op
                outs.append((None, exc))
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    for i, (out, error) in enumerate(outs):
        if error is None:
            try:
                wl.check(i, out)
            except Exception as exc:          # Mismatch, or a malformed output
                error = exc
        if tally is not None:
            tally.add(i, 0.0, 0.0, error)
        if tracer is not None and hasattr(wl, "input_bytes"):
            tracer.counts["cli.bytes_in"] += wl.input_bytes(i)
            tracer.counts["cli.bytes_out"] += len(out[1]) if out else 0
    return wall


def run_traced(wl, seconds: float, spans_path: str | None):
    tracer = Tracer()
    tally = Tally()
    import_s = 0.0
    if hasattr(wl, "traced_op"):
        import_s = max(0.0, start_seconds(["-c", "import ellmf.cli"], 5)
                       - start_seconds(["-c", "pass"], 5))
    traced_pass(wl, None, None)               # warm-up
    passes, overheads = [], []
    end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < end:
        plain = traced_pass(wl, None, tally)
        overheads.append(traced_pass(wl, tracer, tally) / plain)
        passes.append(tracer.metrics())
        if len(passes) == 1 and spans_path:
            tracer.dump(spans_path)
    first = passes[0]
    metrics = {}
    for name, value in first.items():
        if layer_unit(name) == "s":
            value = statistics.median(p[name] for p in passes)
        metrics[name] = value
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    exact = [n for n in first if layer_unit(n) != "s"]
    info = {"passes": len(passes), "ops_per_pass": wl.trace_ops,
            "counts_repeat_across_passes":
                all(p[n] == first[n] for p in passes for n in exact)}
    return tally, metrics, info


def run_record(args, extra: dict) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "commit": commit, **extra}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    # One CPU for this process and its children, so that the reference
    # sees the speed the ops see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Speed()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if not args.trace:
            setup_s, raw_setup_s = import_seconds(
                workloads.ENTRY[args.workload], speed)
        wl = workloads.make(args.workload, random.Random(args.seed), workdir,
                            child_env())
        gc.collect()
        gc.freeze()
        if args.trace:
            tally, metrics, extra = run_traced(wl, args.seconds, args.spans)
            units = {name: layer_unit(name) for name in metrics}
        else:
            tally = measure(wl, args.seconds, speed)
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli-process"
                   else resource.RUSAGE_SELF)
            throughput, p50_s, tail_s, pct, beyond = end_to_end(
                tally, speed, wl.tail_cap)
            raw = [secs for secs, ok in zip(tally.seconds, tally.ok) if ok]
            metrics = {
                "throughput_ops_s": throughput,
                "op_p50_ms": 1e3 * p50_s,
                "op_tail_ms": 1e3 * tail_s,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            extra = {"ops": tally.attempted, "tail_percentile": pct,
                     "tail_samples_beyond": beyond,
                     "setup_repeats": SETUP_REPEATS,
                     "unscaled_op_p50_ms": 1e3 * statistics.median(
                         raw or [math.nan]),
                     "unscaled_setup_s": raw_setup_s,
                     "reference_s_median": statistics.median(speed.samples),
                     "reference_samples": len(speed.samples)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    error_rate = tally.failed / tally.attempted
    record = run_record(args, {**extra, "error_rate": error_rate,
                               "first_failure": tally.first_failure})
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    if not args.trace:
        print(f"metric error_rate = {error_rate!r} ratio")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table at the end."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    rows = {f"{metric} [{m['unit']}]": [r["metrics"][metric]["value"]
                                        for r in results.values()]
            for metric, m in results[WORKLOADS[0]]["metrics"].items()}
    if not args.trace:
        rows["error_rate [ratio]"] = [r["failed"] / r["attempted"]
                                      for r in results.values()]
    print(f"{'metric':32}" + "".join(f"{w:>16}" for w in results))
    for label, values in rows.items():
        print(f"{label:32}" + "".join(f"{v:>16.6g}" for v in values))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, write the spans of the "
                    "first traced pass to this file as JSON lines")
    args = ap.parse_args(argv)
    if not (SRC / "ellmf" / "__init__.py").is_file():
        print(f"error: no ellmf sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
