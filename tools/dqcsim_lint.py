#!/usr/bin/env python3
"""dqcsim-lint — mechanical enforcement of the project's determinism and
hot-path invariants (docs/ARCHITECTURE.md "Determinism rules").

The simulator's correctness contract is bit-identical results at any thread
count, plus zero steady-state allocations per trial. Those invariants used to
live only in prose and runtime tests; this checker turns them into CI-gated
properties of the source text itself.

Rules (see --list-rules for the one-line summaries):

  no-nondet-rand   rand()/srand()/std::random_device/std::mt19937/... anywhere
                   in src/, bench/, tests/. All randomness must flow through
                   dqcsim::Rng (xoshiro256** seeded via splitmix64) so a run
                   is reproducible from one 64-bit seed.
  no-wall-clock    system_clock/steady_clock/high_resolution_clock/time()/
                   clock()/gettimeofday/clock_gettime in src/. Wall time read
                   inside the engine is a nondeterminism source; simulation
                   time is des::SimTime. (Profiling code suppresses this with
                   a justification — see obs/scope.hpp.)
  no-unordered     std::unordered_{map,set,multimap,multiset} in the
                   result-affecting subsystems (runtime, ent, net, scenario,
                   des). Hash-container iteration order varies with
                   libstdc++ version and insertion history; ordered containers
                   or index-keyed vectors keep every traversal deterministic.
  no-raw-libm      std::pow/exp/log (and the exp2/expm1/log2/log10/log1p
                   variants, qualified or not) in engine subsystems outside
                   the blessed wrappers (src/noise/, src/common/rng,
                   src/common/stats). Transcendental results differ in the
                   last ulp across libm implementations; result-affecting math
                   goes through the wrappers (or exact operations such as
                   std::ldexp / iterated multiply) so results are bit-stable
                   across glibc/musl/llvm-libc.
  hot-alloc        new / make_unique / make_shared / malloc-family, and
                   push_back/emplace_back without a reserve() in the same
                   body, inside functions annotated `// DQCSIM_HOT`. These
                   functions sit on the zero-allocs-per-trial path measured by
                   perf_micro's operator-new counter.
  pragma-once      every header starts with `#pragma once` (before any other
                   preprocessor directive or code).
  include-order    within each contiguous `#include` block: entries sorted
                   and styles not mixed (<...> vs "..."); blocks are separated
                   by blank lines, Google-style (own header first, then
                   system, then project headers).

Suppressions are explicit and justified, never silent:

  // DQCSIM_LINT_ALLOW(rule-id): why this exception is sound
  // DQCSIM_LINT_ALLOW_FILE(rule-id): file-wide, for e.g. a profiling header

A line-level ALLOW covers its own line and the next code line (intervening
comment lines are skipped, so justifications may wrap). An ALLOW with an
unknown rule id or an empty justification is itself a finding
(bad-suppression), and an ALLOW that suppresses nothing is a finding
(stale-suppression) so the exception list cannot rot.

Scrubbing: a built-in lexer blanks comments and string/char literals with
exact line fidelity before the rules run, so the linter needs nothing beyond
plain python3 and its findings never depend on the environment.

Usage:
  python3 tools/dqcsim_lint.py src bench tests          # lint the tree
  python3 tools/dqcsim_lint.py --list-rules
  python3 tools/dqcsim_lint.py --force-rules no-raw-libm file.cpp   # fixtures

Exit status: 0 when every finding is suppressed-with-justification, 1
otherwise, 2 on usage errors.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Rule scoping
# --------------------------------------------------------------------------

# Subsystems whose code affects simulation *results* (stats, fidelities,
# event order). Iteration-order and libm discipline are enforced here.
RESULT_SUBSYSTEMS = {"runtime", "ent", "net", "scenario", "des"}

# Superset: everything that feeds the engine (circuit generation, scheduling,
# partitioning) — raw libm here leaks into results through gate angles,
# segment choices, and placements.
ENGINE_SUBSYSTEMS = RESULT_SUBSYSTEMS | {"sched", "gen", "circuit",
                                         "partition"}

# Blessed wrapper files for no-raw-libm: the noise layer owns the Werner /
# fidelity-ledger math, and common/rng + common/stats own the sampling and
# aggregation transcendentals. Everything result-affecting funnels through
# these so a libm swap changes at most these files' review surface.
BLESSED_LIBM_PREFIXES = (
    os.path.join("src", "noise") + os.sep,
    os.path.join("src", "common", "rng"),
    os.path.join("src", "common", "stats"),
)

HEADER_EXTS = (".hpp", ".h", ".hh", ".hxx")
SOURCE_EXTS = (".cpp", ".cc", ".cxx") + HEADER_EXTS


def _top_dir(relpath):
    parts = relpath.split(os.sep)
    return parts[0] if parts else ""


def _subsystem(relpath):
    parts = relpath.split(os.sep)
    if len(parts) >= 2 and parts[0] == "src":
        return parts[1]
    return ""


def scope_nondet_rand(relpath):
    return _top_dir(relpath) in ("src", "bench", "tests")


def scope_wall_clock(relpath):
    return _top_dir(relpath) == "src"


def scope_unordered(relpath):
    return _subsystem(relpath) in RESULT_SUBSYSTEMS


def scope_raw_libm(relpath):
    if _subsystem(relpath) not in ENGINE_SUBSYSTEMS:
        return False
    return not relpath.startswith(BLESSED_LIBM_PREFIXES)


def scope_everywhere(relpath):  # hot-alloc: wherever the annotation appears
    return _top_dir(relpath) in ("src", "bench", "tests")


def scope_headers(relpath):
    return (_top_dir(relpath) in ("src", "bench", "tests")
            and relpath.endswith(HEADER_EXTS))


def scope_hygiene(relpath):
    return _top_dir(relpath) in ("src", "bench", "tests")


# --------------------------------------------------------------------------
# Pattern rules (run over scrubbed lines)
# --------------------------------------------------------------------------

NONDET_RAND_RE = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?(?:rand|srand|random_shuffle)\s*\("
    r"|\brandom_device\b"
    r"|\bmt19937(?:_64)?\b|\bdefault_random_engine\b|\bminstd_rand0?\b"
    r"|\branlux(?:24|48)(?:_base)?\b|\bknuth_b\b")

WALL_CLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"
    r"|(?<![\w:.])(?:std\s*::\s*)?"
    r"(?:time|clock|gettimeofday|clock_gettime|timespec_get)\s*\("
    r"|\b__rdtscp?\b")

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")

RAW_LIBM_RE = re.compile(
    r"(?<![\w.:])(?:std\s*::\s*)?"
    r"(?:pow|exp|exp2|expm1|log|log2|log10|log1p)[fl]?\s*\(")

HOT_ALLOC_RE = re.compile(
    r"(?<![\w:])new\b(?!\s*\()"          # new T / new T[] (not a var "new(")
    r"|(?<![\w:])new\s*\("               # placement/nothrow new
    r"|\bmake_unique\b|\bmake_shared\b"
    r"|(?<![\w:])(?:malloc|calloc|realloc|strdup)\s*\(")

HOT_PUSH_RE = re.compile(r"\b(push_back|emplace_back)\s*\(")
HOT_RESERVE_RE = re.compile(r"\breserve\s*\(")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(<[^>]+>|"[^"]+")')
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")

ALLOW_RE = re.compile(
    r"//\s*DQCSIM_LINT_ALLOW(_FILE)?\(([^)]*)\)\s*(?::\s*(.*))?$")
HOT_MARK_RE = re.compile(r"//\s*DQCSIM_HOT\b")


class Finding:
    __slots__ = ("path", "line", "rule", "message", "suppressed")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.suppressed = False

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _line_findings(path, lines, regex, rule, message):
    out = []
    for i, text in enumerate(lines, start=1):
        m = regex.search(text)
        if m:
            out.append(Finding(path, i, rule,
                               f"{message}: `{m.group(0).strip()}`"))
    return out


def check_nondet_rand(path, lines, _raw):
    return _line_findings(
        path, lines, NONDET_RAND_RE, "no-nondet-rand",
        "nondeterminism source; draw from dqcsim::Rng instead")


def check_wall_clock(path, lines, _raw):
    return _line_findings(
        path, lines, WALL_CLOCK_RE, "no-wall-clock",
        "wall-clock read in engine code; use des::SimTime")


def check_unordered(path, lines, _raw):
    # Include directives are exempt: the hazard is hash-order *usage*, and
    # flagging `#include <unordered_map>` would double-report every hit.
    out = []
    for i, text in enumerate(lines, start=1):
        if INCLUDE_RE.match(text):
            continue
        m = UNORDERED_RE.search(text)
        if m:
            out.append(Finding(
                path, i, "no-unordered",
                "hash container in a result-affecting subsystem "
                "(iteration order is libstdc++-dependent): "
                f"`{m.group(0)}`"))
    return out


def check_raw_libm(path, lines, _raw):
    return _line_findings(
        path, lines, RAW_LIBM_RE, "no-raw-libm",
        "raw libm transcendental outside the blessed wrappers "
        "(last-ulp results differ across libm implementations)")


def _body_extent(lines, start):
    """(first_line, last_line) of the brace-matched body opening at or after
    `start` (1-based), or None when no `{` is found within a few lines."""
    depth = 0
    opened = False
    for i in range(start - 1, min(len(lines), start + 9)):
        if "{" in lines[i]:
            first = i + 1
            break
    else:
        return None
    for i in range(first - 1, len(lines)):
        for ch in lines[i]:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
                if opened and depth == 0:
                    return (first, i + 1)
    return (first, len(lines))


def check_hot_alloc(path, lines, raw_lines):
    out = []
    for i, text in enumerate(raw_lines, start=1):
        if not HOT_MARK_RE.search(text):
            continue
        extent = _body_extent(lines, i + 1)
        if extent is None:
            out.append(Finding(path, i, "hot-alloc",
                               "DQCSIM_HOT annotation with no function "
                               "body in the following lines"))
            continue
        first, last = extent
        body = lines[first - 1:last]
        reserved = any(HOT_RESERVE_RE.search(l) for l in body)
        for j, btext in enumerate(body, start=first):
            m = HOT_ALLOC_RE.search(btext)
            if m:
                out.append(Finding(
                    path, j, "hot-alloc",
                    "heap allocation inside a DQCSIM_HOT function: "
                    f"`{m.group(0).strip()}`"))
            m = HOT_PUSH_RE.search(btext)
            if m and not reserved:
                out.append(Finding(
                    path, j, "hot-alloc",
                    f"`{m.group(1)}` without a reserve() in a DQCSIM_HOT "
                    "function body (may reallocate in the steady state)"))
    return out


def check_pragma_once(path, lines, raw_lines):
    # Operates on raw lines: the scrubber blanks string-literal contents,
    # which would erase quote-include names. A leading comment block is
    # skipped via the scrubbed view so `/* ... */` banners don't count as
    # code before the pragma.
    for i, (text, scrubbed) in enumerate(zip(raw_lines, lines), start=1):
        if not scrubbed.strip():
            continue
        if PRAGMA_ONCE_RE.match(text):
            return []
        return [Finding(path, i, "pragma-once",
                        "header must start with `#pragma once` "
                        "(before any code or other directive)")]
    return [Finding(path, 1, "pragma-once",
                    "empty header without `#pragma once`")]


def check_include_order(path, lines, raw_lines):
    # Raw lines carry the include names (the scrubber blanks string
    # contents); the scrubbed view gates which lines are live code so a
    # commented-out include can't split or pollute a block.
    out = []
    block = []  # (line_no, include_text e.g. `<vector>` or `"a.hpp"`)

    def flush():
        if len(block) >= 2:
            styles = {inc[0] for _, inc in block}
            if len(styles) > 1:
                out.append(Finding(
                    path, block[0][0], "include-order",
                    "mixed <...> and \"...\" includes in one block; "
                    "separate system and project headers with a blank line"))
            else:
                # Anchor at the first include that sorts before its
                # predecessor — the line a suppression naturally sits above.
                names = [inc[1:-1] for _, inc in block]
                for k in range(1, len(names)):
                    if names[k] < names[k - 1]:
                        out.append(Finding(
                            path, block[k][0], "include-order",
                            f"includes not sorted: `{names[k]}` belongs "
                            f"before `{names[k - 1]}`"))
                        break
        del block[:]

    for i, (text, scrubbed) in enumerate(zip(raw_lines, lines), start=1):
        m = INCLUDE_RE.match(text) if scrubbed.strip() else None
        if m:
            block.append((i, m.group(1)))
        elif not text.strip():
            flush()  # a blank line separates blocks
        elif scrubbed.strip() and block:
            flush()  # macros/code end a block; comment-only lines don't
    flush()
    return out


RULES = [
    ("no-nondet-rand", scope_nondet_rand, check_nondet_rand,
     "ban rand()/srand()/std::random_device/<random> engines"),
    ("no-wall-clock", scope_wall_clock, check_wall_clock,
     "ban wall-clock reads (system/steady/high_resolution_clock, time())"),
    ("no-unordered", scope_unordered, check_unordered,
     "ban std::unordered_{map,set} in result-affecting subsystems"),
    ("no-raw-libm", scope_raw_libm, check_raw_libm,
     "ban raw std::pow/exp/log outside the blessed math wrappers"),
    ("hot-alloc", scope_everywhere, check_hot_alloc,
     "ban heap allocation inside `// DQCSIM_HOT` functions"),
    ("pragma-once", scope_headers, check_pragma_once,
     "headers must start with #pragma once"),
    ("include-order", scope_hygiene, check_include_order,
     "includes sorted per block, system/project styles not mixed"),
]

RULE_IDS = {r[0] for r in RULES}
META_RULES = ("bad-suppression", "stale-suppression")


# --------------------------------------------------------------------------
# Scrubbing: blank comments and literals, preserving line structure
# --------------------------------------------------------------------------

def scrub_token_mode(text):
    """Replace comment and string/char literal contents with spaces.

    Handles //, /* */, "..." (with escapes), '...', and raw strings
    R"delim(...)delim". Line count and column positions are preserved so
    findings point at real locations.
    """
    out = []
    i = 0
    n = len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string R"delim( ... )delim"? Look back for the R
                # prefix (possibly u8R / uR / UR / LR) ending right here.
                is_raw = False
                if i >= 1 and text[i - 1] == "R":
                    j = i - 2
                    while j >= 0 and text[j] in "uUL8":
                        j -= 1
                    prefix_ok = j < 0 or not (text[j].isalnum()
                                              or text[j] == "_")
                else:
                    prefix_ok = False
                if prefix_ok:
                    m2 = re.match(r'"([^()\\ \n]{0,16})\(', text[i:i + 20])
                    if m2:
                        raw_delim = m2.group(1)
                        is_raw = True
                if is_raw:
                    state = RAW
                else:
                    state = STRING
                out.append('"')
                i += 1
            elif c == "'":
                state = CHAR
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            elif c == "\\" and nxt == "\n":  # line-continued comment
                out.append(" \n")
                i += 1
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = NORMAL
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == CHAR:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = NORMAL
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # RAW
            end = ')' + raw_delim + '"'
            if text.startswith(end, i):
                out.append(" " * (len(end) - 1) + '"')
                i += len(end)
                state = NORMAL
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------

class Suppression:
    __slots__ = ("line", "rules", "file_wide", "justified", "used")

    def __init__(self, line, rules, file_wide, justified):
        self.line = line
        self.rules = rules
        self.file_wide = file_wide
        self.justified = justified
        self.used = False


def collect_suppressions(path, raw_lines):
    sups, meta = [], []
    for i, text in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(text)
        if not m:
            continue
        file_wide = m.group(1) is not None
        rules = [r.strip() for r in m.group(2).split(",") if r.strip()]
        justification = (m.group(3) or "").strip()
        unknown = [r for r in rules if r not in RULE_IDS]
        if unknown or not rules:
            meta.append(Finding(
                path, i, "bad-suppression",
                f"unknown rule id(s) {unknown or ['<empty>']} in "
                "DQCSIM_LINT_ALLOW (see --list-rules)"))
            continue
        if not justification:
            meta.append(Finding(
                path, i, "bad-suppression",
                "DQCSIM_LINT_ALLOW without a justification — write "
                "`// DQCSIM_LINT_ALLOW(rule): why this is sound`"))
        sups.append(Suppression(i, rules, file_wide, bool(justification)))
    return sups, meta


def apply_suppressions(findings, sups, scrubbed_lines):
    # A line-level ALLOW covers its own line and the next *code* line, so a
    # multi-line justification comment between the ALLOW and the code it
    # excuses does not break the association.
    def next_code_line(after):
        for ln in range(after + 1, len(scrubbed_lines) + 1):
            if scrubbed_lines[ln - 1].strip():
                return ln
        return after

    for f in findings:
        for s in sups:
            if f.rule not in s.rules or not s.justified:
                continue
            if s.file_wide or f.line == s.line or \
                    f.line == next_code_line(s.line):
                f.suppressed = True
                s.used = True
                break


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def lint_file(path, relpath, force_rules=None):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        return [Finding(relpath, 0, "io-error", str(exc))]

    raw_lines = text.split("\n")
    lines = scrub_token_mode(text).split("\n")

    findings = []
    for rule_id, scope, check, _ in RULES:
        if force_rules is not None:
            if rule_id not in force_rules:
                continue
        elif not scope(relpath):
            continue
        findings.extend(check(relpath, lines, raw_lines))

    sups, meta = collect_suppressions(relpath, raw_lines)
    apply_suppressions(findings, sups, lines)
    for s in sups:
        if s.justified and not s.used:
            meta.append(Finding(
                relpath, s.line, "stale-suppression",
                f"DQCSIM_LINT_ALLOW({', '.join(s.rules)}) suppresses "
                "nothing — remove it or fix the rule id"))
    return findings + meta


def collect_files(targets, root):
    files = []
    for t in targets:
        full = t if os.path.isabs(t) else os.path.join(root, t)
        if os.path.isfile(full):
            files.append(full)
        elif os.path.isdir(full):
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"dqcsim-lint: no such file or directory: {t}",
                  file=sys.stderr)
            return None
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dqcsim-lint",
        description="Project-specific determinism & hot-path linter.")
    parser.add_argument("targets", nargs="*", default=[],
                        help="files or directories (relative to --root)")
    parser.add_argument("--root", default=None,
                        help="repo root for scope decisions (default: the "
                             "directory containing this script's parent)")
    parser.add_argument("--force-rules", default=None, metavar="IDS",
                        help="comma-separated rule ids to apply to every "
                             "input file regardless of path scoping "
                             "(fixture/self-test mode)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the OK summary line")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, _, _, summary in RULES:
            print(f"{rule_id:16} {summary}")
        print(f"{'bad-suppression':16} ALLOW with unknown rule or missing "
              "justification")
        print(f"{'stale-suppression':16} ALLOW that no longer suppresses "
              "anything")
        return 0

    if not args.targets:
        parser.error("no targets; try: tools/dqcsim_lint.py src bench tests")

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    force = None
    if args.force_rules is not None:
        force = {r.strip() for r in args.force_rules.split(",") if r.strip()}
        unknown = force - RULE_IDS
        if unknown:
            parser.error(f"unknown rule ids: {sorted(unknown)}")

    files = collect_files(args.targets, root)
    if files is None:
        return 2

    all_findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        all_findings.extend(lint_file(path, rel, force))

    visible = [f for f in all_findings if not f.suppressed]
    for f in visible:
        print(f)
    suppressed = sum(1 for f in all_findings if f.suppressed)
    if visible:
        print(f"dqcsim-lint: {len(visible)} finding(s) in {len(files)} "
              f"file(s) ({suppressed} suppressed with justification)",
              file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"dqcsim-lint: OK — {len(files)} file(s), 0 findings "
              f"({suppressed} suppressed with justification)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
