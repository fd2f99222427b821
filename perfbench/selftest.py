#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run it from the repository root. It checks that:
  * a tiny untraced run of every workload exits 0, passes its checks, and
    prints every end-to-end metric of BENCHMARK.json by name with its unit;
  * a tiny traced run prints every per-layer metric by name with its unit;
  * a deliberately corrupted output (a flipped response byte, a wrong
    sampled digest, a client answer turned into SERVFAIL) is caught: the run
    exits non-zero and reports correct=false.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# live_udp is runnable but not part of BENCHMARK.json (see README.md); it is
# still tested here.
WORKLOADS = ("stream_replay", "bounded_replay", "sim_resolve", "live_udp")


def run(workload, trace=0, corrupt=0, seconds=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
           "--corrupt", str(corrupt)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout


def printed(report, name, unit):
    """The human report lists `name` with `unit` on one line."""
    for line in report.split("\n"):
        fields = line.split()
        if len(fields) >= 3 and fields[0] == name and fields[2] == unit:
            return True
    return False


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        code, result, report = run(workload)
        expect(code == 0 and result is not None and result["correct"],
               "%s: tiny run passes its checks" % workload)
        for m in spec["end_to_end"]:
            got = (result or {}).get("metrics", {}).get(m["name"])
            expect(got is not None and got["unit"] == m["unit"] and
                   printed(report, m["name"], m["unit"]),
                   "%s: prints %s [%s]" % (workload, m["name"], m["unit"]))

    code, result, report = run("stream_replay", trace=1)
    expect(code == 0 and result is not None and result["correct"],
           "traced run passes its checks")
    for m in spec["per_layer"]:
        got = (result or {}).get("metrics", {}).get(m["name"])
        expect(got is not None and got["unit"] == m["unit"] and
               printed(report, m["name"], m["unit"]),
               "traced run prints %s [%s]" % (m["name"], m["unit"]))

    for workload in WORKLOADS:
        code, result, _ = run(workload, corrupt=1)
        expect(code != 0 and result is not None and not result["correct"] and
               result["failed"] >= 1,
               "%s: corrupted output is caught" % workload)

    print("selftest: %s" % ("PASS" if not failures else "%d FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
