#!/usr/bin/env python3
"""Check ci/bench_trajectory.jsonl against BENCHMARK.json.

The trajectory records, one JSON object per line and one line per change
that reports end-to-end numbers, the medians of the benchmark's end-to-end
metrics at the change's parent commit and at the change, on every
workload:

    {"parent": "<parent commit>", "change": "<one-line title>",
     "host": "<machine the medians were taken on>",
     "seconds": <perfbench --seconds>, "runs": <runs per side>,
     "workloads": {"<workload>": {"parent": {"<metric>": <median>, ...},
                                  "change": {"<metric>": <median>, ...}},
                   ...}}

Every line must name exactly the workloads of BENCHMARK.json and, on each
side, exactly its end-to-end metrics, with finite numeric values.

Usage:
    check_bench_trajectory.py [--trajectory FILE] [--benchmark FILE]
    check_bench_trajectory.py --selftest
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_line(entry, workloads, metrics):
    """Problems with one parsed trajectory line (empty when it is valid)."""
    if not isinstance(entry, dict):
        return ["not a JSON object"]
    problems = []
    for key in ("parent", "change", "host"):
        if not isinstance(entry.get(key), str) or not entry[key]:
            problems.append(f"'{key}' is not a non-empty string")
    seconds = entry.get("seconds")
    if isinstance(seconds, bool) or not isinstance(seconds, (int, float)) \
            or not seconds > 0:
        problems.append("'seconds' is not a positive number")
    runs = entry.get("runs")
    if isinstance(runs, bool) or not isinstance(runs, int) or runs < 1:
        problems.append("'runs' is not a positive integer")
    got = entry.get("workloads")
    if not isinstance(got, dict):
        return problems + ["'workloads' is not an object"]
    if set(got) != set(workloads):
        problems.append(f"workloads {sorted(got)} != {sorted(workloads)}")
    for name in sorted(set(got) & set(workloads)):
        sides = got[name]
        if not isinstance(sides, dict) or set(sides) != {"parent", "change"}:
            problems.append(f"{name}: sides are not exactly parent, change")
            continue
        for side in ("parent", "change"):
            values = sides[side]
            if not isinstance(values, dict) or set(values) != set(metrics):
                problems.append(f"{name}/{side}: metrics differ from "
                                f"BENCHMARK.json end_to_end")
                continue
            for metric, value in values.items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    problems.append(f"{name}/{side}/{metric}: not a finite "
                                    f"number")
    return problems


def check_file(path, workloads, metrics):
    problems = []
    lines = 0
    with open(path) as f:
        for number, text in enumerate(f, 1):
            if not text.strip():
                problems.append(f"{path}:{number}: empty line")
                continue
            lines += 1
            try:
                entry = json.loads(text)
            except json.JSONDecodeError as e:
                problems.append(f"{path}:{number}: {e}")
                continue
            problems += [f"{path}:{number}: {p}"
                         for p in check_line(entry, workloads, metrics)]
    if lines == 0:
        problems.append(f"{path}: no entries")
    return problems


def selftest():
    workloads = ["w1", "w2"]
    metrics = ["a", "b"]
    side = {"a": 1.0, "b": 2}
    good = {"parent": "abc1234", "change": "t", "host": "h", "seconds": 20,
            "runs": 3, "workloads": {w: {"parent": dict(side),
                                         "change": dict(side)}
                                     for w in workloads}}
    assert check_line(good, workloads, metrics) == []
    bad = []
    for mutate in (
            lambda e: e.pop("parent"),
            lambda e: e.update(runs=0),
            lambda e: e.update(seconds="20"),
            lambda e: e["workloads"].pop("w2"),
            lambda e: e["workloads"].update(w3=e["workloads"]["w1"]),
            lambda e: e["workloads"]["w1"].pop("change"),
            lambda e: e["workloads"]["w1"]["parent"].pop("b"),
            lambda e: e["workloads"]["w1"]["change"].update(c=1.0),
            lambda e: e["workloads"]["w2"]["change"].update(a=float("nan")),
            lambda e: e["workloads"]["w2"]["parent"].update(b=True)):
        entry = json.loads(json.dumps(good))
        mutate(entry)
        bad.append(check_line(entry, workloads, metrics))
    assert all(bad), bad
    print("check_bench_trajectory selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trajectory",
                    default=os.path.join(ROOT, "ci", "bench_trajectory.jsonl"))
    ap.add_argument("--benchmark",
                    default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
        return
    with open(args.benchmark) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    problems = check_file(args.trajectory, workloads, metrics)
    for p in problems:
        print(f"FAIL {p}")
    print("check_bench_trajectory:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
