#!/usr/bin/env python3
"""Siloz benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload fig4-exec --seed 42 --seconds 20 --trace 0

Run from the root of a checkout. The harness (perfbench/src) is built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

--trace 0 runs the workload's entry point in a sequence of fresh processes at
nproc threads. Each process runs one untimed warm-up pass and then timed
passes, every pass of the run on its own inputs derived from the seed;
setup_s is the median over processes of the time from spawn to the first
timed pass, wall_s and cpu_s are medians over every timed pass, and
peak_rss_mib is the median of the processes' peak resident sets.

--trace 1 runs one traced process: the workload once at one thread under the
root span sim.pass_1t_s, then the per-layer probes. It prints the per-layer
metrics and writes the spans to <build dir>/spans/.

Every pass checks its outputs (and, at seed 42, a pinned digest). The last
line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
preceded by one {"manifest": ...} line. The exit code is 0 only when every
check passed; 2 means the benchmark could not run at all.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig4-exec", "fig5-tput", "table3-contain", "fleet-churn")
# Fresh processes per --trace 0 run: enough set-ups for a median, and each
# process long enough to run at least two timed passes after its warm-up.
PROCESSES = {"fig4-exec": 3, "fig5-tput": 3, "table3-contain": 3, "fleet-churn": 2}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small shrinks every workload (for the tests)")
    parser.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                        help="pinned seed-42 digests (JSON)")
    parser.add_argument("--spans-out", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(nproc):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no siloz sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "siloz_perfbench",
                  "-j", str(nproc)])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "siloz_perfbench")


def expected_digest(args):
    if args.seed != 42:
        return None
    try:
        with open(args.digests) as f:
            return json.load(f)[args.size].get(args.workload)
    except (OSError, ValueError, KeyError) as error:
        fail("cannot read digests %s: %s" % (args.digests, error))


def run_harness(binary, flags, timeout):
    """Runs one harness process; returns (parsed JSON line, exit code)."""
    t0 = time.monotonic_ns()
    proc = subprocess.run([binary, "--t0-ns", str(t0)] + flags, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("harness exited %d without a result: %s" % (proc.returncode, " ".join(flags)))
    return json.loads(lines[-1]), proc.returncode


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / q2 if q2 else 0.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def timed(args, binary, nproc, digest):
    processes = PROCESSES[args.workload]
    budget = max(1, args.seconds // processes)
    flags = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
             "--threads", str(nproc), "--mode", "timed", "--budget-s", str(budget)]
    if digest:
        flags += ["--expect-digest", digest]  # checked on pass 0 only
    runs = []
    failed_exit = False
    for process in range(processes):
        # Disjoint pass indices, so no two passes of a run share inputs.
        result, code = run_harness(binary, flags + ["--first-pass", str(1000 * process)],
                                   timeout=150 // processes)
        runs.append(result)
        failed_exit |= code != 0
    passes = [p for r in runs for p in r["passes"]]
    samples = {
        "setup_s": [r["setup_s"] for r in runs],
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mib": [r["peak_rss_kib"] / 1024.0 for r in runs],
    }
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
    metrics = {name: {"value": statistics.median(values), "unit": units[name]}
               for name, values in samples.items()}
    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    detail = {
        "processes": processes,
        "timed_passes": len(passes),
        "samples": {name: len(values) for name, values in samples.items()},
        "spread_iqr_over_median": {name: spread(values) for name, values in samples.items()},
    }
    if failed_exit and not failures:
        failures.append("harness exited 1")
    return metrics, attempted, failed, failures, runs[0], detail


def traced(args, binary, nproc, digest):
    spans_out = args.spans_out or os.path.join(
        build_dir(), "spans", "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(os.path.abspath(spans_out)), exist_ok=True)
    flags = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
             "--threads", str(nproc), "--mode", "traced", "--spans-out", spans_out]
    if digest:
        flags += ["--expect-digest", digest]
    result, code = run_harness(binary, flags, timeout=170)
    failures = result["failures"] or ([] if code == 0 else ["exit %d" % code])
    failed = result["failed"] or (result["attempted"] if failures else 0)
    detail = {"spans": spans_out}
    return result["metrics"], result["attempted"], failed, failures, result, detail


def main(argv):
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    binary = build(nproc)
    digest = expected_digest(args)
    measure = traced if args.trace else timed
    metrics, attempted, failed, failures, first, detail = measure(args, binary, nproc, digest)
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nproc,
        "threads": first["threads"],
        "cpu_model": cpu_model(),
        "compiler": first["build"]["compiler"],
        "build_type": first["build"]["build_type"],
        "git_commit": git_commit(),
        "model_shape": first["shape"],
        "digest": first["digest"],
        "expected_digest": digest,
        "failures": failures[:20],
    }
    manifest.update(detail)
    print(json.dumps({"manifest": manifest}))
    for name, metric in metrics.items():
        print("%-32s %14.6g %s" % (name, metric["value"], metric["unit"]), file=sys.stderr)
    correct = failed == 0 and not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
