#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size twice, untraced and traced, one pass
each, and checks that:
  - every run is correct, with no failed cell;
  - every metric BENCHMARK.json names is printed, with its unit;
  - the exact counters repeat exactly between the two runs;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# Counts of simulated work that must repeat exactly for one seed. The
# timed passes run on one domain, so their allocation is exact too.
EXACT = {
    0: {w: ["alloc_mwords", "peak_heap_mb"]
        for w in ("paper-web", "fleet-request", "fleet-fluid")},
    1: {w: ["engine.events", "page_cache.hits", "page_cache.misses",
            "httperf.completed", "fluid.events", "fleet.run_alloc_mwords"]
        for w in ("paper-web", "fleet-request", "fleet-fluid")},
}


def run(workload, trace, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny",
           "--out", os.path.join(".perfbench", "selftest")]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return p


def fail(msg):
    print("selftest FAILED:", msg)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            results = []
            for _ in range(2):
                p = run(w, trace)
                if p.returncode != 0:
                    fail(f"{w} trace={trace} exited {p.returncode}: "
                         f"{p.stderr[-2000:]}")
                r = json.loads(p.stdout.strip().splitlines()[-1])
                if set(r) != {"correct", "attempted", "failed", "metrics"}:
                    fail(f"{w} trace={trace}: result keys {sorted(r)}")
                if not r["correct"] or r["failed"] or r["attempted"] < 1:
                    fail(f"{w} trace={trace}: not correct:\n{p.stdout}")
                for m in expected[trace]:
                    got = r["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        fail(f"{w} trace={trace}: metric {m['name']} "
                             f"[{m['unit']}] missing or mis-unit: {got}")
                if len(r["metrics"]) != len(expected[trace]):
                    fail(f"{w} trace={trace}: unexpected metrics "
                         f"{sorted(r['metrics'])}")
                results.append(r["metrics"])
            for name in EXACT[trace][w]:
                a, b = (x[name]["value"] for x in results)
                if a != b:
                    fail(f"{w} trace={trace}: {name} differs: {a} vs {b}")
            print(f"ok {w} trace={trace}")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    p = run("paper-web", 0, cwd=bare,
            script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        fail("bare directory: expected a non-zero exit and no result")
    print("ok bare directory exits", p.returncode)
    print("selftest passed")


if __name__ == "__main__":
    main()
