#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into the build directory: $CARGO_TARGET_DIR
when set, else .bench_build. Later runs rebuild incrementally. The binary's
report goes to standard output; the last line is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is the binary's
(1 when an output check failed); 2 means the build or the binary failed and
no result was printed; 3 means the metrics differ from BENCHMARK.json.

An untraced run (--trace 0) starts the binary PROCESSES times in a row, each
for an equal share of --seconds. Each process times several windows and
prints one `window` line per window; run.py pools the windows of all
processes and reports throughput as the rate nine windows in ten reach, CPU
time per query as its p90 over the windows and set-up time as the median
set-up (kRateQuantile in workloads.h says why not the median rate). Peak
RSS is the median over the processes. A traced run is one process.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_replay", "bounded_replay", "sim_resolve", "live_udp")
PROCESSES = 5
# The quantiles of the window rates and of CPU time per query behind
# throughput_qps and cpu_ns_per_query (kRateQuantile, kCostQuantile).
RATE_QUANTILE = 0.10
COST_QUANTILE = 0.90
TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write("run.py: %s failed (exit %d)\n" % (cmd[0], proc.returncode))
    return proc.returncode == 0


def build(out):
    os.makedirs(out, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring an already configured tree is quick, and a tree whose
        # first configure failed gets another try.
        if not run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]):
            return None
        jobs = str(min(4, os.cpu_count() or 1))
        if not run_quiet(["cmake", "--build", out, "-j", jobs,
                          "--target", "perfbench"]):
            return None
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec.get(key, [])}


def quantile(values, q):
    """Linear-interpolated quantile, as Samples::quantile in harness.cpp."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def merge(results, windows):
    """One result from the processes' results: every check must pass and
    counts add up. The window metrics are taken over the windows of all
    processes pooled, with the statistics the binary applies to its own
    (see kRateQuantile in workloads.h); any other metric is the median over
    the processes (an odd count, so one measured value)."""
    pooled = {
        "setup_s": quantile([w[2] for w in windows if w[2] >= 0], 0.5),
        "throughput_qps": quantile([w[0] for w in windows], RATE_QUANTILE),
        "cpu_ns_per_query": quantile([w[1] for w in windows], COST_QUANTILE),
    }
    metrics = {}
    for name, m in results[0]["metrics"].items():
        if name in pooled:
            value = pooled[name]
        else:
            value = statistics.median_low([r["metrics"][name]["value"] for r in results])
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                        help="corrupt one checked output (self-test)")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    processes = 1 if args.trace else PROCESSES
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % (args.seconds / processes), "--trace=%d" % args.trace,
           "--corrupt=%d" % args.corrupt,
           "--trace-dir=" + os.path.join(out, "traces")]
    deadline = time.monotonic() + TIMEOUT_S
    results, windows, code = [], [], 0
    for i in range(processes):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.stderr.write("run.py: the benchmark did not finish within %d s\n" % TIMEOUT_S)
            return 2
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            results.append(json.loads(lines[-1]))
        except ValueError:
            sys.stdout.write(proc.stdout)
            sys.stderr.write("run.py: the benchmark printed no result (exit %d)\n" %
                             proc.returncode)
            return proc.returncode or 2
        if processes > 1:
            print("process %d of %d:" % (i + 1, processes))
        report = [line for line in lines[:-1] if not line.startswith("window ")]
        windows += [tuple(float(x) for x in line.split()[1:])
                    for line in lines[:-1] if line.startswith("window ")]
        sys.stdout.write("\n".join(report) + "\n")
        code = max(code, proc.returncode)
    result = merge(results, windows) if processes > 1 else results[0]
    if processes > 1:
        print("end-to-end metrics over the %d windows of %d processes:" %
              (len(windows), processes))
        for name, m in result["metrics"].items():
            print("  %-44s %14.6g %-6s" % (name, m["value"], m["unit"]))

    want = expected_metrics(args.trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
            sys.stderr.write("run.py: metrics differ from BENCHMARK.json: missing %s, "
                             "unlisted %s, unit mismatch %s\n" % (missing, extra, units))
            return 3
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
