#!/usr/bin/env python3
"""Build and run the ickpt end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds e2ebench (a CMake package that
compiles the repository's libraries from src/) into .bench_build/, runs one
workload with its logs in .bench_run/<workload>/, and prints a metric
table, a details line, a host-facts line, and as the last line the
result object {"correct", "attempted", "failed", "metrics"}. An untraced
run pools the raw samples of several processes of the program into the
end-to-end metrics; a traced run is one process, which reports the
per-layer metrics itself.
Exits non-zero without a result when the sources are missing, the build
fails, or the run fails. See e2ebench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BUILD_TYPE = "Release"
# All processes of one run must end well inside 180 s.
RUN_TIMEOUT_S = 170
# Untraced runs split their seconds over this many processes and pool the
# samples: op times differ by up to ~10% from one process to the next on a
# shared host (memory placement), while staying steady within a process.
PROCESSES = 6


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"repository sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "e2ebench")


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def source_digest():
    """SHA-256 over the sources the benchmark builds (stands in for the
    commit when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_process(binary, args, seed, seconds, run_dir, deadline):
    """Run e2ebench once; returns (stdout lines, details). The details line
    is the last line of an untraced process and the one before the result
    in a traced one."""
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"e2ebench exited with code {proc.returncode}")
    try:
        details = json.loads(lines[-2 if args.trace else -1])["details"]
    except (IndexError, KeyError, ValueError):
        sys.stderr.write(proc.stdout)
        fail("e2ebench printed no details line")
    return lines, details


def summarize(samples, quantile):
    """Median, the `quantile` by nearest rank, and the samples beyond it."""
    v = sorted(samples)
    n = len(v)
    if n == 0:
        return 0.0, 0.0, 0
    rank = min(n, max(1, math.ceil(quantile * n)))
    return statistics.median(v), v[rank - 1], n - rank


def pool(samples):
    """The end-to-end metrics from several processes' raw samples: op times
    pooled, bytes and epochs summed, peak memory and set-up time as
    medians."""
    op_ms = [x for d in samples for x in d["op_ms"]]
    quantile = samples[0]["op_ms_tail_quantile"]
    p50, tail, beyond = summarize(op_ms, quantile)
    busy_s = sum(op_ms) / 1e3
    epochs = sum(d["log_epochs"] for d in samples)
    log_bytes = sum(d["log_bytes"] for d in samples)
    modes = {}
    for d in samples:
        for mode, n in d["op_modes"].items():
            modes[mode] = modes.get(mode, 0) + n
    setup_s = [d["setup_s"] for d in samples]

    metrics = {
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail, "ms"),
        "ops_per_s": (len(op_ms) / busy_s if busy_s else 0.0, "1/s"),
        "log_mb_per_epoch": (log_bytes / epochs / 1e6 if epochs else 0.0,
                             "MB"),
        "peak_rss_mb": (statistics.median(d["peak_rss_mb"] for d in samples),
                        "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    details = {
        "workload": samples[0]["workload"],
        "processes": len(samples),
        "attempted": sum(d["attempted"] for d in samples),
        "failed": sum(d["failed"] for d in samples),
        "op_modes": modes,
        "op_samples": len(op_ms),
        "op_ms_tail_quantile": quantile,
        "op_ms_tail_beyond": beyond,
        "op_ms_p50_each": [statistics.median(d["op_ms"]) if d["op_ms"]
                           else 0.0 for d in samples],
        "setup_s_each": setup_s,
    }
    return details, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    run_dir = os.path.join(RUN_DIR, args.workload)
    os.makedirs(run_dir, exist_ok=True)
    load_start = os.getloadavg()
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    if args.trace:
        # One process: it prints its per-layer table and result itself.
        lines, details = run_process(binary, args, args.seed, args.seconds,
                                     run_dir, deadline)
        table = lines[:-2]
        try:
            result = json.loads(lines[-1])
        except ValueError:
            fail("e2ebench printed no result line")
    else:
        samples = [run_process(binary, args, args.seed * PROCESSES + i,
                               args.seconds / PROCESSES, run_dir,
                               deadline)[1]
                   for i in range(PROCESSES)]
        details, metrics = pool(samples)
        table = [f"workload {args.workload}  seed {args.seed}  seconds "
                 f"{args.seconds:g}  trace 0  ({PROCESSES} processes pooled)"]
        table += [f"  {name:<28} {value:14.4f} {unit}"
                  for name, (value, unit) in metrics.items()]
        table.append(f"  op_ms_tail is p"
                     f"{100 * details['op_ms_tail_quantile']:g} of "
                     f"{details['op_samples']} samples, "
                     f"{details['op_ms_tail_beyond']} beyond it")
        attempted, failed = details["attempted"], details["failed"]
        result = {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
    attempted, failed = result["attempted"], result["failed"]
    details["failed_share"] = failed / attempted if attempted else 1.0
    table.append(f"  {'failed_share':<28} {details['failed_share']:14.4f} "
                 f"share ({failed} of {attempted} ops)")

    host = {
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "log_fs": fs_type(run_dir),
        "build_type": BUILD_TYPE,
        "commit": commit(),
        "source_sha256": source_digest(),
        "run_wall_s": round(time.monotonic() - started, 3),
    }
    for line in table:
        print(line)
    print(json.dumps({"details": details}))
    print(json.dumps({"host": host}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
