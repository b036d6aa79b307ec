#!/usr/bin/env python3
"""Self-test of the benchmark's checks, at smoke size (seconds per workload).

    python3 perfbench/selftest.py

1. Every workload runs at smoke size, untraced and traced, and must report
   correct=true with exactly the metric keys BENCHMARK.json lists.
2. The same run with --flip-one negates one output element before the
   reference check; it must report correct=false and exit non-zero.
Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    # serve_open is not in BENCHMARK.json (see README) but is still run here.
    for wl in ["long_doc", "serve_open", "bulk_encode"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, log = run(wl, trace)
            want = {m["name"] for m in spec[key]}
            if code != 0 or res is None or not res["correct"]:
                failures.append("%s trace=%d: not correct (exit %d)\n%s" % (wl, trace, code, log[-2000:]))
            elif set(res["metrics"]) != want:
                failures.append("%s trace=%d: metric keys %s" % (wl, trace, sorted(set(res["metrics"]) ^ want)))
            else:
                print("ok   %s trace=%d attempted=%d failed=%d" % (wl, trace, res["attempted"], res["failed"]))
        code, res, log = run(wl, 0, "--flip-one")
        if code == 0 or res is None or res["correct"]:
            failures.append("%s: a flipped output element passed the reference check\n%s" % (wl, log[-2000:]))
        else:
            print("ok   %s --flip-one is caught" % wl)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
