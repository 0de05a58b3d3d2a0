#!/usr/bin/env python3
"""Self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

Run it from the root of a checkout.  It asserts that

1. every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json names, each with its unit, and fails no op;
2. two traced runs with the same seed give identical counts;
3. a wrong result injected into the program raises error_rate above 0,
   so the checker can fail;
4. without the program's sources the benchmark exits non-zero and prints
   no result;
5. the spans a traced run writes nest inside their parents.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, SCRATCH, SRC, WORKLOADS, Speed, child_env, measure

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Child interpreter whose enumerate_real_roots drops one root class.
BROKEN_CLI = ("import sys, ellmf.k0 as k0; good = k0.enumerate_real_roots; "
              "k0.enumerate_real_roots = lambda *a: good(*a)[1:]; "
              "import ellmf.cli; ellmf.cli.main()")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
         *extra], cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_spans(path: Path) -> None:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, path
    for k, s in enumerate(spans):
        assert set(s) == {"name", "start", "end", "parent", "op"}, s
        assert s["start"] <= s["end"] and -1 <= s["parent"] < k, s
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def check_metrics() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in WORKLOADS:
            spans = SCRATCH / f"{workload}.spans.jsonl"
            extra = ("--spans", str(spans)) if trace else ()
            runs = [bench(workload, trace, *extra) for _ in range(1 + trace)]
            if trace:
                check_spans(spans)
                spans.unlink()
            for code, lines, err in runs:
                assert code == 0, (workload, trace, err)
                result = json.loads(lines[-1])
                assert set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, result
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                assert got == want, (workload, trace, got)
                assert result["correct"] and result["failed"] == 0, \
                    (workload, lines[0])
                for name, unit in want.items():
                    assert any(ln.startswith(f"metric {name} = ")
                               and ln.endswith(f" {unit}") for ln in lines)
                if not trace:
                    assert any(ln.startswith("metric error_rate = ")
                               for ln in lines)
            if trace:
                counts = [{n: m["value"] for n, m in
                           json.loads(lines[-1])["metrics"].items()
                           if m["unit"] != "s" and n != "trace.overhead_ratio"}
                          for _, lines, _ in runs]
                assert counts[0] == counts[1], (workload, counts)
            print(f"ok  {workload} trace={trace}")


def check_injected_fault() -> None:
    sys.path.insert(0, str(SRC))
    import workloads
    from ellmf import mf, tables

    def shifted_betti(m):
        return tables.translate_betti(good_betti(m), 1)

    def wrong_hilbert(t):
        p, e, mu, ulrich = good_hilbert(t)
        return p, e + 1, mu, ulrich

    good_betti, good_hilbert = mf.betti_of_mf, tables.hilbert
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        for workload in WORKLOADS:
            wl = workloads.make(workload, random.Random(3), workdir,
                                child_env())
            mf.betti_of_mf, tables.hilbert = shifted_betti, wrong_hilbert
            if workload == "cli-process":
                wl.command = [sys.executable, "-c", BROKEN_CLI]
            try:
                tally = measure(wl, 2.0, Speed())
            finally:
                mf.betti_of_mf, tables.hilbert = good_betti, good_hilbert
            assert tally.failed > 0, workload
            print(f"ok  {workload} injected fault: error_rate "
                  f"{tally.failed / tally.attempted:.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_without_sources() -> None:
    bare = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench("mf-symbolic", 0, cwd=bare)
        assert code != 0 and not any(ln.startswith("{") for ln in lines)
        print("ok  exits non-zero without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    try:
        check_without_sources()
        check_injected_fault()
        check_metrics()
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
