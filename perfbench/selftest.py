#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

Builds the driver like run.py does, then checks that:
  1. two runs with the same seed give identical modelled metrics and
     identical deterministic counters;
  2. a GSF run with every bandwidth share left unset (it never injects)
     is counted as a failed operation, never as a fast one;
  3. a reference fingerprint that does not match fails the operation;
  4. a held-out seed passes every output check on every workload.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step is shared with run.py)

OBSERVED = "uniform-8x8-observed"
WORKLOADS = ["uniform-16x16", "neighbor-64x64", OBSERVED]
HELD_OUT_SEED = 917_203_551
# Counters that must repeat exactly for a fixed seed and run length.
DETERMINISTIC = ("sim.ticks_executed.", "sim.ticks_skipped.", "core.sched_",
                 "net.flit_hops.", "net.packets_delivered.",
                 "gsf.frame_recycles", "observer.events.", "traffic.",
                 "core.spec_forwards", "core.missed_slots")
MODELLED = ("loft_p99_latency_cycles", "loft_accepted_flits_per_node_cycle")


def bench(binary, workload, seed, trace=0, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "2", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def values(result, prefixes):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith(prefixes)}


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        run.ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = run.build(build_dir)
    scratch = os.path.join(build_dir, "selftest")
    os.makedirs(scratch, exist_ok=True)
    failures = []

    def expect(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
        if not ok:
            failures.append(name)

    # 1. Same seed twice: modelled metrics and counters repeat exactly.
    a, b = (bench(binary, OBSERVED, 7) for _ in range(2))
    expect("same-seed modelled metrics",
           values(a, MODELLED) == values(b, MODELLED) != {})
    a, b = (bench(binary, OBSERVED, 7, trace=1) for _ in range(2))
    va, vb = values(a, DETERMINISTIC), values(b, DETERMINISTIC)
    diff = sorted(k for k in va if va[k] != vb.get(k))
    expect("same-seed deterministic counters", va == vb and len(va) > 20,
           ", ".join(diff))

    # 2. Unset GSF shares: zero delivery counts as a failed operation.
    r = bench(binary, OBSERVED, 7,
              extra=("--kinds", "gsf", "--unset-gsf-shares"))
    expect("unset GSF shares is a failed run",
           r["attempted"] == 1 and r["failed"] == 1 and not r["correct"])

    # 3. A wrong reference fingerprint fails the operation.
    wrong = os.path.join(scratch, "wrong-reference.tsv")
    with open(wrong, "w") as f:
        f.write(f"{OBSERVED} wormhole 7 check\t0000000000000000\n")
    r = bench(binary, OBSERVED, 7,
              extra=("--kinds", "wormhole", "--reference", wrong))
    expect("reference mismatch is a failed run", r["failed"] == 1)

    # 4. A held-out seed passes every output check.
    for w in WORKLOADS:
        r = bench(binary, w, HELD_OUT_SEED)
        expect(f"held-out seed passes on {w}",
               r["correct"] and r["failed"] == 0 and r["attempted"] == 3)

    print("selftest:", "FAILED " + ", ".join(failures) if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
