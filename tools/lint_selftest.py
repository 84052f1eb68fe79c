#!/usr/bin/env python3
"""Self-tests for tools/dqcsim_lint.py, driven by the fixture snippets under
tools/lint_fixtures/. One directory per rule, three snippets each: one that
must violate the rule, one that must be clean (including banned tokens hidden
in comments/strings, which exercises the scrubber), and one whose violation
is suppressed with a justified DQCSIM_LINT_ALLOW. The suppression/ directory
covers the meta rules (bad-suppression, stale-suppression).

Plain-assert runner, registered with ctest as `lint_selftest` — no pytest
dependency, mirroring ci/check_links.py and ci/check_bench_regression.py.

Usage: python3 tools/lint_selftest.py [--verbose]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import dqcsim_lint  # noqa: E402

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(TOOLS_DIR, "lint_fixtures")

failures = []
checks = 0


def run_fixture(rule, name):
    path = os.path.join(FIXTURES, rule, name)
    assert os.path.isfile(path), f"missing fixture {path}"
    findings = dqcsim_lint.lint_file(
        path, os.path.relpath(path, os.path.dirname(TOOLS_DIR)),
        force_rules={rule} if rule != "suppression" else set())
    return findings


def expect(cond, message):
    global checks
    checks += 1
    if not cond:
        failures.append(message)


def rule_ids(findings, suppressed=False):
    return sorted({f.rule for f in findings if f.suppressed == suppressed})


# ---- per-rule fixtures ----------------------------------------------------

RULE_DIRS = ["no-nondet-rand", "no-wall-clock", "no-unordered",
             "no-raw-libm", "hot-alloc", "pragma-once", "include-order"]

VIOLATE_NAMES = {"pragma-once": "violate.hpp"}
CLEAN_NAMES = {"pragma-once": "clean.hpp"}
SUPPRESSED_NAMES = {"pragma-once": "suppressed.hpp"}

# Minimum number of distinct violation lines each violate fixture must hit
# (every banned construct in the snippet must be caught, not just the first).
MIN_VIOLATIONS = {
    "no-nondet-rand": 4,   # random_device, mt19937, srand, rand
    "no-wall-clock": 3,    # steady_clock, high_resolution_clock, time()
    "no-unordered": 2,     # unordered_map, unordered_set
    "no-raw-libm": 4,      # pow, exp, log, unqualified log1p
    "hot-alloc": 3,        # make_unique, new, unreserved push_back
    "pragma-once": 1,
    "include-order": 2,    # unsorted block + mixed-style block
}

for rule in RULE_DIRS:
    findings = run_fixture(rule, VIOLATE_NAMES.get(rule, "violate.cpp"))
    visible = [f for f in findings if not f.suppressed]
    expect(rule_ids(findings) == [rule],
           f"{rule}/violate: expected only [{rule}] findings, "
           f"got {rule_ids(findings)}")
    expect(len(visible) >= MIN_VIOLATIONS[rule],
           f"{rule}/violate: expected >= {MIN_VIOLATIONS[rule]} findings, "
           f"got {len(visible)}: {[str(f) for f in visible]}")

    findings = run_fixture(rule, CLEAN_NAMES.get(rule, "clean.cpp"))
    expect(findings == [],
           f"{rule}/clean: expected no findings, "
           f"got {[str(f) for f in findings]}")

    findings = run_fixture(rule, SUPPRESSED_NAMES.get(rule,
                                                      "suppressed.cpp"))
    visible = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    expect(visible == [],
           f"{rule}/suppressed: expected every finding suppressed (and no "
           f"stale-suppression), got {[str(f) for f in visible]}")
    expect(len(suppressed) >= 1,
           f"{rule}/suppressed: the ALLOW should have matched a finding")

# ---- suppression meta rules ----------------------------------------------

findings = run_fixture("suppression", "bad_missing_justification.cpp")
expect("bad-suppression" in rule_ids(findings),
       "missing-justification ALLOW must yield bad-suppression, got "
       f"{rule_ids(findings)}")

findings = run_fixture("suppression", "bad_unknown_rule.cpp")
expect("bad-suppression" in rule_ids(findings),
       "unknown-rule ALLOW must yield bad-suppression, got "
       f"{rule_ids(findings)}")

path = os.path.join(FIXTURES, "suppression", "stale.cpp")
findings = dqcsim_lint.lint_file(
    path, os.path.relpath(path, os.path.dirname(TOOLS_DIR)),
    force_rules={"no-unordered"})
expect(rule_ids(findings) == ["stale-suppression"],
       f"stale ALLOW must yield stale-suppression, got {rule_ids(findings)}")

# ---- CLI behavior ---------------------------------------------------------

rc = dqcsim_lint.main(["--force-rules", "no-unordered", "--quiet",
                       os.path.join(FIXTURES, "no-unordered", "clean.cpp")])
expect(rc == 0, f"CLI on a clean fixture must exit 0, got {rc}")

import contextlib  # noqa: E402
import io  # noqa: E402

buf = io.StringIO()
with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
    rc = dqcsim_lint.main(
        ["--force-rules", "no-unordered",
         os.path.join(FIXTURES, "no-unordered", "violate.cpp")])
expect(rc == 1, f"CLI on a violating fixture must exit 1, got {rc}")
expect("no-unordered" in buf.getvalue(),
       "CLI output must name the violated rule")

rc = dqcsim_lint.main(["--list-rules"]) if "--verbose" in sys.argv else 0
expect(rc == 0, "--list-rules must exit 0")

# ---- scrubber unit checks -------------------------------------------------

scrub = dqcsim_lint.scrub_token_mode
expect("rand" not in scrub("int x; // rand()\n"),
       "line comments must be scrubbed")
expect("rand" not in scrub("/* rand() \n spans lines */ int x;\n"),
       "block comments must be scrubbed")
expect("rand" not in scrub('const char* s = "rand()";\n'),
       "string literals must be scrubbed")
expect("rand" not in scrub('auto s = R"(rand())";\n'),
       "raw string literals must be scrubbed")
expect("keep_me" in scrub('f("x"); keep_me(1);\n'),
       "code outside literals must survive the scrub")
expect(scrub("a\nb\nc").count("\n") == 2,
       "the scrub must preserve line structure")

if failures:
    for f in failures:
        print(f"FAIL: {f}")
    print(f"lint_selftest: {len(failures)}/{checks} checks failed")
    sys.exit(1)
print(f"lint_selftest: OK — {checks} checks passed")
