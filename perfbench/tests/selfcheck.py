#!/usr/bin/env python3
"""Quick self-check of the benchmark: a tiny-size pass over every workload.

    python3 perfbench/tests/selfcheck.py [--lib build/libdqcsim.a]

Run from the repository root after the root build (cmake -B build -S . &&
cmake --build build). It builds the benchmark into .bench_build/selfcheck
against the library that build produced, runs every workload of
BENCHMARK.json for a fraction of a second with --trace 0 and --trace 1,
prints every metric by name with its unit, and fails unless each run
reports exactly the metrics BENCHMARK.json names, with their units, and
fail_frac = failed / attempted = 0.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BUILD = os.path.join(ROOT, ".bench_build", "selfcheck")
SECONDS = "0.3"


def build(lib):
    subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                    BUILD, "-DCMAKE_BUILD_TYPE=Release",
                    f"-DPERFBENCH_DQCSIM_LIB={lib}"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=subprocess.DEVNULL)


def run(workload, trace):
    out = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed",
         "1", "--seconds", SECONDS, "--trace", str(trace), "--out-dir",
         os.path.join(ROOT, ".bench_out")],
        check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lib", default=os.path.join(ROOT, "build",
                                                  "libdqcsim.a"))
    args = ap.parse_args()
    if not os.path.isfile(args.lib):
        sys.exit(f"selfcheck: {args.lib} not found; run the root build first")
    build(os.path.abspath(args.lib))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run(w["name"], trace)
            fail_frac = res["failed"] / res["attempted"]
            print(f"{w['name']} trace={trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} fail_frac={fail_frac:g}")
            for name, m in res["metrics"].items():
                print(f"  {name:36s} {m['value']:16.6g} {m['unit']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{w['name']} trace={trace}: metrics/units "
                                f"differ from BENCHMARK.json")
            if not res["correct"] or fail_frac != 0:
                problems.append(f"{w['name']} trace={trace}: fail_frac "
                                f"{fail_frac:g}")
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
