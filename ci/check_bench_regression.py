#!/usr/bin/env python3
"""Gate CI on benchmark regressions.

Compares a freshly produced BENCH_*.json report (see bench/bench_report.hpp
for the schema) against the committed baseline. A kernel regresses when its
ns_per_op exceeds baseline * threshold. Only kernels present in the baseline
are tracked, so adding new benchmarks never breaks the gate; a tracked
kernel that disappears from the current report fails it (a silently dropped
benchmark is itself a regression).

Named counters recorded in the baseline are gated too, by counter name:

- allocs_per_op (the steady-state DES/RunContext benches) is measured and
  fails only when it exceeds baseline * threshold + 0.01 (the absolute
  slack lets a zero baseline tolerate measurement jitter but not a real
  allocation sneaking back into the hot path);
- every other counter is a seeded simulation statistic (depth_mean,
  fidelity_mean, ...) and is pinned: it fails on any change beyond a
  relative 1e-12, in either direction.

Usage:
    check_bench_regression.py CURRENT.json [MORE.json ...] BASELINE.json
                              [--threshold 1.25]

Multiple current reports are merged before comparison, so one baseline file
can gate perf_micro micro-kernels and the smoke-run sweep sections of other
benches together. A baseline kernel may carry a "gate_threshold" field to
widen (or tighten) its own gate relative to --threshold.

Refreshing the baseline: download the bench-reports artifact from a trusted
run on main and commit it as ci/bench_baseline.json (see README).
"""

import argparse
import json
import math
import sys

# Counters that measure the host rather than the simulation; all others
# must reproduce the baseline exactly.
MEASURED_COUNTERS = {"allocs_per_op"}
PINNED_REL_TOL = 1e-12


def load_kernels(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        sys.exit(f"{path}: unsupported schema_version "
                 f"{doc.get('schema_version') if isinstance(doc, dict) else doc!r}")
    kernels = doc.get("kernels")
    if not isinstance(kernels, list):
        sys.exit(f"{path}: 'kernels' is not a list")
    out = {}
    for i, k in enumerate(kernels):
        if not isinstance(k, dict) or not isinstance(k.get("name"), str):
            sys.exit(f"{path}: kernels[{i}] has no usable 'name' field")
        out[k["name"]] = k
    return out


def as_number(value):
    """`value` as a float, or None for null / missing / non-numeric fields.

    A partially written or truncated report may carry nulls where numbers
    belong; those must become named failures, never tracebacks.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current",
        nargs="+",
        help="one or more BENCH_*.json reports; kernels are merged",
    )
    parser.add_argument("baseline")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when current ns_per_op > baseline * threshold; a kernel"
        " may widen its own gate with a gate_threshold baseline field"
        " (wall-clock sweep sections are noisier than micro-kernels)",
    )
    args = parser.parse_args()

    current = {}
    for path in args.current:
        current.update(load_kernels(path))
    baseline = load_kernels(args.baseline)

    failures = []
    rows = []
    for name, base in sorted(baseline.items()):
        base_ns = as_number(base.get("ns_per_op"))
        threshold = args.threshold
        if "gate_threshold" in base:
            threshold = as_number(base.get("gate_threshold"))
            if threshold is None or threshold <= 0.0:
                failures.append(
                    f"{name}: gate_threshold is not a positive number in baseline"
                )
                rows.append((name, base_ns, None, None, "BAD BASELINE"))
                continue
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: tracked kernel missing from current report")
            rows.append((name, base_ns, None, None, "MISSING"))
            continue
        cur_ns = as_number(cur.get("ns_per_op"))
        if cur_ns is None:
            failures.append(
                f"{name}: ns_per_op missing or null in current report"
            )
            rows.append((name, base_ns, None, None, "BAD CURRENT"))
            continue
        if base_ns is None:
            failures.append(
                f"{name}: ns_per_op missing or null in baseline"
            )
            rows.append((name, None, cur_ns, None, "BAD BASELINE"))
            continue
        if base_ns <= 0.0:
            ratio = None
            verdict = "SKIP (no baseline time)"
        else:
            ratio = cur_ns / base_ns
            verdict = "ok"
            if ratio > threshold:
                verdict = f"REGRESSION (> {threshold:.2f}x)"
                failures.append(
                    f"{name}: {base_ns:.1f} -> {cur_ns:.1f} ns/op ({ratio:.2f}x)"
                )
        base_counters = base.get("counters")
        if base_counters is None:
            base_counters = {}
        if not isinstance(base_counters, dict):
            failures.append(f"{name}: counters is not an object in baseline")
            rows.append((name, base_ns, cur_ns, ratio, "BAD BASELINE"))
            continue
        cur_counters = cur.get("counters")
        if not isinstance(cur_counters, dict):
            cur_counters = {}
        for counter, base_raw in base_counters.items():
            base_val = as_number(base_raw)
            if base_val is None:
                failures.append(
                    f"{name}: counter {counter} missing or null in baseline"
                )
                verdict = "BAD BASELINE"
                continue
            cur_val = as_number(cur_counters.get(counter))
            if cur_val is None:
                failures.append(
                    f"{name}: counter {counter} missing or null in current report"
                )
                verdict = "COUNTER MISSING"
                continue
            if counter in MEASURED_COUNTERS:
                limit = base_val * threshold + 0.01
                if cur_val > limit:
                    failures.append(
                        f"{name}: counter {counter} {base_val:.3g} ->"
                        f" {cur_val:.3g} (limit {limit:.3g})"
                    )
                    verdict = f"COUNTER REGRESSION ({counter})"
            elif not math.isclose(cur_val, base_val, rel_tol=PINNED_REL_TOL,
                                  abs_tol=0.0):
                failures.append(
                    f"{name}: pinned counter {counter} changed"
                    f" {base_val!r} -> {cur_val!r}"
                )
                verdict = f"COUNTER CHANGED ({counter})"
        rows.append((name, base_ns, cur_ns, ratio, verdict))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'kernel':<{width}}  {'baseline':>12}  {'current':>12}  {'ratio':>6}  verdict")
    for name, base_ns, cur_ns, ratio, verdict in rows:
        base_s = f"{base_ns:12.1f}" if base_ns is not None else f"{'-':>12}"
        cur_s = f"{cur_ns:12.1f}" if cur_ns is not None else f"{'-':>12}"
        ratio_s = f"{ratio:6.2f}" if ratio is not None else f"{'-':>6}"
        print(f"{name:<{width}}  {base_s}  {cur_s}  {ratio_s}  {verdict}")

    untracked = sorted(set(current) - set(baseline))
    if untracked:
        print(f"\nuntracked kernels (not gated): {', '.join(untracked)}")

    if failures:
        print(f"\n{len(failures)} benchmark regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nall {sum(1 for r in rows if r[4] == 'ok')} tracked kernels within "
          f"{args.threshold:.2f}x of baseline")


if __name__ == "__main__":
    main()
