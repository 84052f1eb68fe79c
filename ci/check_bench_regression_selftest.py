#!/usr/bin/env python3
"""Self-tests for ci/check_bench_regression.py on synthetic reports.

Each case writes a one-kernel baseline and current report to a temporary
directory, runs the checker on them, and asserts its exit status: pinned
simulation counters fail on any change in either direction, while the
measured allocs_per_op counter passes jitter inside its slack.

Plain-assert runner, registered with ctest as `bench_gate_selftest`.

Usage: python3 ci/check_bench_regression_selftest.py
"""

import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")

BASE_COUNTERS = {"depth_mean": 554.25, "fidelity_mean": 0.8125,
                 "allocs_per_op": 0.0}

failures = []
checks = 0


def report(counters):
    return {"report": "selftest", "schema_version": 1,
            "kernels": [{"name": "cell", "ns_per_op": 100.0,
                         "items_per_s": 0, "iterations": 1, "label": "",
                         "counters": counters}]}


def gate_passes(current_counters):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, counters in (("current", current_counters),
                               ("baseline", BASE_COUNTERS)):
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as f:
                json.dump(report(counters), f)
            paths.append(path)
        proc = subprocess.run([sys.executable, CHECKER, *paths],
                              capture_output=True, text=True)
    return proc.returncode == 0


def expect(passes, overrides, message):
    global checks
    checks += 1
    if gate_passes({**BASE_COUNTERS, **overrides}) != passes:
        failures.append(message)


expect(True, {}, "an identical report must pass")
expect(False, {"depth_mean": 277.0}, "a lowered depth must fail")
expect(False, {"depth_mean": 1500.0}, "a raised depth must fail")
expect(False, {"fidelity_mean": 0.9}, "a raised fidelity must fail")
expect(False, {"fidelity_mean": 0.5}, "a lowered fidelity must fail")
expect(True, {"allocs_per_op": 0.004},
       "allocs_per_op jitter inside the slack must pass")
expect(False, {"allocs_per_op": 1.0},
       "an allocation back on the hot path must fail")

if failures:
    for f in failures:
        print(f"FAIL: {f}")
    print(f"bench_gate_selftest: {len(failures)}/{checks} checks failed")
    sys.exit(1)
print(f"bench_gate_selftest: OK — {checks} checks passed")
