#!/usr/bin/env python3
"""dpjl_lint.py — DP-invariant and resource-discipline linter for dpjl.

The paper's privacy guarantee is a software property as much as a proof:
every bit of randomness must flow through the seeded ``src/random/`` stack
(deterministic replay, the ``BatchItemNoiseSeed`` contract), failures must
surface as checked ``Status``/``Result`` values, and every mutex must be a
Clang-annotated wrapper so ``-Wthread-safety`` can prove the lock protocol.
This linter rejects the source-level patterns that silently break those
invariants.

Rules
-----
raw-entropy            ``std::random_device`` / ``rand(`` / ``srand(`` /
                       ``drand48`` anywhere outside ``src/random/``.
                       Unseeded entropy makes noise non-replayable and
                       untestable.
raw-time-in-noise-path ``::now()`` inside noise-path code (``src/dp/``,
                       ``src/jl/``, ``src/random/``, and the core
                       sketcher files). Wall-clock state is a covert
                       entropy source; schedulers and deadline code
                       elsewhere may use it freely.
naked-new              ``new`` outside a smart-pointer adoption
                       (``std::unique_ptr<T>(new T(...))`` — the
                       private-constructor factory idiom — or
                       ``make_unique``/``make_shared`` lines).
naked-delete           any ``delete`` expression (``= delete`` declarations
                       are fine).
catch-all              ``catch (...)`` — swallows the error type and, with
                       it, the Status discipline.
bare-mutex             ``std::mutex`` / ``std::shared_mutex`` /
                       ``std::condition_variable`` / std lock RAII types,
                       or raw ``pthread_mutex_*`` / ``pthread_rwlock_*`` /
                       ``pthread_cond_*`` (and their ``*attr_*``) use,
                       outside ``src/common/annotated_mutex.h``. Bare
                       primitives are invisible to ``-Wthread-safety``.
discarded-status       a ``(void)`` cast with no adjacent comment. The
                       only sanctioned silent drop is a commented one
                       (prefer ``LogIfError``).
entries-scan-in-query  a range-for over a segment's canonical
                       ``sketches`` store in ``src/core/``. Query code
                       must scan the blocked sketch arena (eight
                       candidates per kernel pass); per-sketch iteration
                       silently reverts the scan engine. Member *calls*
                       like ``sketches()`` on other types do not fire.

Suppression: append ``// dpjl-lint: allow(<rule>)`` to the offending line
or the line directly above it.

Usage:
  tools/dpjl_lint.py [--root DIR] [--compile-commands FILE] [PATH...]

With no PATH arguments lints ``src/`` under the root. ``--compile-commands``
adds every translation unit listed in a CMake ``compile_commands.json``
(deduplicated), so the lint set tracks the build graph exactly. Output is
``file:line: rule: message`` per finding; exit status 1 if anything fired.
"""

import argparse
import json
import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

SUPPRESS_RE = re.compile(r"//\s*dpjl-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# (rule, compiled regex, message). Patterns run against the line with
# comments and string literals stripped, so prose can mention std::mutex.
LINE_RULES = [
    (
        "raw-entropy",
        re.compile(r"std::random_device|\b(?:s?rand|drand48|random)\s*\(\s*\)"),
        "raw entropy source; all randomness must flow through src/random/",
    ),
    (
        "catch-all",
        re.compile(r"catch\s*\(\s*\.\.\.\s*\)"),
        "catch-all swallows the error type; catch a concrete exception or "
        "return a Status",
    ),
    (
        "naked-delete",
        re.compile(r"(?<![=\w])\bdelete\b(?!\s*;?\s*$)(?!d\b)"),
        "manual delete; own memory with std::unique_ptr",
    ),
    (
        "bare-mutex",
        re.compile(
            r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
            r"condition_variable(?:_any)?|lock_guard|scoped_lock|"
            r"unique_lock|shared_lock)\b"
            r"|\bpthread_(?:mutex|rwlock|cond)(?:attr)?_"
        ),
        "bare synchronization primitive; use the annotated wrappers "
        "from src/common/annotated_mutex.h",
    ),
]

NEW_RE = re.compile(r"(?<!\w)new\b(?!\w)")
NEW_ADOPTED_RE = re.compile(
    r"(?:unique_ptr|shared_ptr)\s*<[^;]*>\s*\w*\s*[({][^;]*\bnew\b"
    r"|\.reset\s*\(\s*new\b"
)
PLACEMENT_NEW_RE = re.compile(r"new\s*\(")
VOID_CAST_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_:(]")
NOW_RE = re.compile(r"::now\s*\(\s*\)")
ENTRIES_SCAN_RE = re.compile(
    r"for\s*\([^;)]*:\s*[^)]*(?:\.|->)\s*sketches\b(?!\s*\()"
)
COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
CHAR_RE = re.compile(r"'(?:[^'\\]|\\.)*'")

# Directories / file stems whose code computes or seeds noise. ::now() here
# is an invariant violation; elsewhere (schedulers, deadlines, stats) it is
# ordinary engineering.
NOISE_PATH_DIRS = ("src/dp/", "src/jl/", "src/random/")
NOISE_PATH_STEMS = ("sketcher", "noise")

# The wrapper header legitimately spells out the std primitives it wraps.
BARE_MUTEX_EXEMPT = "src/common/annotated_mutex.h"


def strip_noncode(line: str) -> str:
    """Removes string/char literals and // comments so prose never fires."""
    line = STRING_RE.sub('""', line)
    line = CHAR_RE.sub("''", line)
    return COMMENT_RE.sub("", line)


def in_noise_path(rel: str) -> bool:
    if any(rel.startswith(d) for d in NOISE_PATH_DIRS):
        return True
    stem = Path(rel).stem
    return rel.startswith("src/core/") and any(
        stem.startswith(s) for s in NOISE_PATH_STEMS
    )


def suppressed(rule: str, raw_lines, index: int) -> bool:
    """True if line `index` (0-based) or the line above allows `rule`."""
    for look in (index, index - 1):
        if look < 0:
            continue
        match = SUPPRESS_RE.search(raw_lines[look])
        if match and rule in [r.strip() for r in match.group(1).split(",")]:
            return True
    return False


def has_adjacent_comment(raw_lines, index: int) -> bool:
    """A comment on the same line or on the non-blank line above."""
    if "//" in raw_lines[index] or "*/" in raw_lines[index]:
        return True
    look = index - 1
    while look >= 0 and not raw_lines[look].strip():
        look -= 1
    if look < 0:
        return False
    above = raw_lines[look].strip()
    return above.startswith("//") or above.endswith("*/") or above.startswith("*")


def lint_file(path: Path, rel: str):
    findings = []
    try:
        raw_lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError as err:
        return [(rel, 0, "io-error", str(err))]

    in_block_comment = False
    prev_code = ""
    for index, raw in enumerate(raw_lines):
        line = raw
        # Cheap block-comment tracking: good enough for this codebase's
        # /// and /* ... */ styles.
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2 :]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                line = line[:start]
            else:
                line = line[:start] + line[end + 2 :]
        code = strip_noncode(line)
        if not code.strip():
            continue
        lineno = index + 1

        for rule, pattern, message in LINE_RULES:
            if rule == "bare-mutex" and rel == BARE_MUTEX_EXEMPT:
                continue
            if rule == "raw-entropy" and rel.startswith("src/random/"):
                continue
            if rule == "naked-delete" and re.search(r"=\s*delete\b", code):
                continue
            if pattern.search(code) and not suppressed(rule, raw_lines, index):
                findings.append((rel, lineno, rule, message))

        # Adoption may wrap across a line break
        # (`std::unique_ptr<T>(\n    new T(...))`), so the idiom check runs
        # over the previous line joined with this one.
        joined = (prev_code + " " + code) if prev_code else code
        if (
            NEW_RE.search(code)
            and not NEW_ADOPTED_RE.search(joined)
            and not PLACEMENT_NEW_RE.search(code)
            and not suppressed("naked-new", raw_lines, index)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "naked-new",
                    "naked new; adopt into a smart pointer on the same line "
                    "(std::unique_ptr<T>(new T(...)))",
                )
            )

        if (
            in_noise_path(rel)
            and NOW_RE.search(code)
            and not suppressed("raw-time-in-noise-path", raw_lines, index)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "raw-time-in-noise-path",
                    "wall-clock read in noise-path code; derive all noise "
                    "state from explicit seeds",
                )
            )

        if (
            rel.startswith("src/core/")
            and ENTRIES_SCAN_RE.search(code)
            and not suppressed("entries-scan-in-query", raw_lines, index)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "entries-scan-in-query",
                    "range-for over stored sketches in core query code; scan "
                    "the sketch arena so the blocked kernels see the "
                    "candidates",
                )
            )

        if (
            VOID_CAST_RE.search(code)
            and not has_adjacent_comment(raw_lines, index)
            and not suppressed("discarded-status", raw_lines, index)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "discarded-status",
                    "uncommented (void) drop; explain the drop in a comment "
                    "or use LogIfError",
                )
            )

        prev_code = code
    return findings


def collect_files(root: Path, paths, compile_commands):
    files = {}
    explicit = [root / p for p in paths] if paths else [root / "src"]
    for base in explicit:
        if base.is_file():
            files[base.resolve()] = None
        elif base.is_dir():
            for child in sorted(base.rglob("*")):
                if child.suffix in SOURCE_SUFFIXES and child.is_file():
                    files[child.resolve()] = None
    if compile_commands:
        try:
            entries = json.loads(Path(compile_commands).read_text())
        except (OSError, ValueError) as err:
            print(f"dpjl_lint: cannot read {compile_commands}: {err}", file=sys.stderr)
            return None
        bases = [b.resolve() for b in explicit]
        for entry in entries:
            candidate = Path(entry["directory"], entry["file"]).resolve()
            # Only lint TUs inside the requested scope: FetchContent
            # third-party code (gtest, benchmark) is not ours to police,
            # and tests/bench legitimately use bare primitives (their lint
            # coverage is the fixture suite).
            if not any(
                base == candidate or base in candidate.parents for base in bases
            ):
                continue
            if candidate.suffix in SOURCE_SUFFIXES and candidate.is_file():
                files[candidate] = None
    return sorted(files)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files or directories (default: src/)")
    parser.add_argument("--root", default=None, help="repo root (default: parent of this script's dir)")
    parser.add_argument(
        "--compile-commands",
        default=None,
        help="compile_commands.json whose in-repo TUs join the lint set",
    )
    args = parser.parse_args(argv)

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    files = collect_files(root, args.paths, args.compile_commands)
    if files is None:
        return 2

    all_findings = []
    for path in files:
        try:
            rel = str(path.relative_to(root.resolve()))
        except ValueError:
            rel = str(path)
        all_findings.extend(lint_file(path, rel))

    for rel, lineno, rule, message in all_findings:
        print(f"{rel}:{lineno}: {rule}: {message}")
    if all_findings:
        print(f"dpjl_lint: {len(all_findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
