#!/usr/bin/env python3
"""Self-check of the benchmark's own output.

    python3 e2ebench/selfcheck.py

Run from the root of a checkout. Makes a reduced pass (SECONDS per run) of
every workload, untraced and traced, through run.py and asserts:

  1. every metric BENCHMARK.json names is printed, with its unit;
  2. no op failed (failed == 0, failed_share == 0, correct == true);
  3. the traced layer sum of the workload's op reconciles with the paired
     untraced op time within TOLERANCE;
  4. every timed op had the workload's single mode: full or incremental for
     a take, and for a recovery, served from the live log without salvage.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Layer sum vs. untraced op median: tracing overhead plus manager time no
# layer accounts for. Measured at 2-5% on full-length runs; a reduced pass
# has few samples, hence the margin.
TOLERANCE = 0.15
SEED = 7
SECONDS = 4
MODES = {
    "paper-incr": "incremental",
    "alldirty-sharded": "full",
    "history-read": "recover_to_epoch",
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, None
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-3])["details"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    failures = 0

    def check(ok, what):
        nonlocal failures
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        failures += 0 if ok else 1

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            print(f"{workload} trace={trace}")
            details, result = run(workload, trace)
            check(result is not None, "run.py exits 0 with a result line")
            if result is None:
                continue
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{m['name']} printed in {m['unit']}")
            check(result["correct"] and result["failed"] == 0
                  and details["failed_share"] == 0,
                  f"no failed ops ({result['failed']} of "
                  f"{result['attempted']})")
            check(list(details["op_modes"]) == [MODES[workload]],
                  f"single op mode {MODES[workload]} "
                  f"(saw {details['op_modes']})")
            if trace:
                r = details["reconcile"][details["reconcile_primary"]]
                share = abs(r["diff_ms"]) / r["untraced_op_ms_p50"]
                check(share <= TOLERANCE,
                      f"layer sum {r['layer_sum_ms']:.2f} ms vs untraced "
                      f"{r['untraced_op_ms_p50']:.2f} ms: {share:.1%} "
                      f"<= {TOLERANCE:.0%}")
    print("selfcheck:", "PASS" if failures == 0 else f"{failures} FAILED")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
