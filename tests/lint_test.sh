#!/usr/bin/env bash
# Tests for tools/dpjl_lint.py: every rule fires on its known-bad fixture,
# suppression comments silence findings, and the real tree is clean.
#
# Usage: lint_test.sh <repo_root>
set -u

root="${1:?usage: lint_test.sh <repo_root>}"
lint="$root/tools/dpjl_lint.py"
fixtures="$root/tests/lint_fixtures"
python="${PYTHON:-python3}"

failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# expect_rule <rule> <fixture...>: the lint of the fixtures must exit 1 and
# report <rule> at least once.
expect_rule() {
  local rule="$1"
  shift
  local out
  out="$("$python" "$lint" --root "$root" "$@" 2>/dev/null)"
  local status=$?
  if [ "$status" -ne 1 ]; then
    fail "$rule: expected exit 1 on $*, got $status"
    return
  fi
  if ! printf '%s\n' "$out" | grep -q ": $rule: "; then
    fail "$rule: rule did not fire on $*; output was: $out"
  fi
}

expect_rule raw-entropy "$fixtures/bad_raw_entropy.cc"
expect_rule bare-mutex "$fixtures/bad_bare_mutex.h"
# One finding per offending line: the std::lock_guard, the std::mutex
# member and the raw pthread rwlock member.
count="$("$python" "$lint" --root "$root" "$fixtures/bad_bare_mutex.h" \
  2>/dev/null | grep -c ": bare-mutex: ")"
if [ "$count" -ne 3 ]; then
  fail "bare-mutex: expected 3 findings in bad_bare_mutex.h, got $count"
fi
expect_rule discarded-status "$fixtures/bad_dropped_status.cc"
expect_rule naked-new "$fixtures/bad_misc.cc"
expect_rule naked-delete "$fixtures/bad_misc.cc"
expect_rule catch-all "$fixtures/bad_misc.cc"

# raw-time-in-noise-path is path-sensitive: stage the fixture at a
# src/jl/ path under a scratch root so the noise-path scoping itself is
# under test.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
mkdir -p "$scratch/src/jl" "$scratch/src/common"
cp "$fixtures/bad_raw_time.cc" "$scratch/src/jl/noise_clock.cc"
expect_rule raw-time-in-noise-path --root "$scratch" src

# The same file outside a noise path must NOT fire the time rule.
cp "$fixtures/bad_raw_time.cc" "$scratch/src/common/scheduler_clock.cc"
out="$("$python" "$lint" --root "$scratch" src/common 2>/dev/null)"
if [ $? -ne 0 ]; then
  fail "raw-time-in-noise-path fired outside a noise path: $out"
fi

# entries-scan-in-query is also path-sensitive: a range-for over a
# segment's sketches must fire inside src/core/ (the fixture's suppressed
# loop and accessor call stay silent — exactly one finding) and not
# elsewhere.
mkdir -p "$scratch/src/core"
cp "$fixtures/bad_entries_scan.cc" "$scratch/src/core/scan.cc"
expect_rule entries-scan-in-query --root "$scratch" src/core
count="$("$python" "$lint" --root "$scratch" src/core 2>/dev/null \
  | grep -c ": entries-scan-in-query: ")"
if [ "$count" -ne 1 ]; then
  fail "entries-scan-in-query suppression: expected 1 finding, got $count"
fi
cp "$fixtures/bad_entries_scan.cc" "$scratch/src/common/scan.cc"
rm "$scratch/src/common/scheduler_clock.cc"
out="$("$python" "$lint" --root "$scratch" src/common 2>/dev/null)"
if [ $? -ne 0 ]; then
  fail "entries-scan-in-query fired outside src/core/: $out"
fi

# Suppression comments must silence every rule they name.
if ! "$python" "$lint" --root "$root" "$fixtures/good_suppressed.cc" > /dev/null 2>&1; then
  fail "suppressed fixture still reported findings"
fi

# The real tree must be clean: src/ plus the tool and the linted shell of
# the repo's own tooling.
if ! "$python" "$lint" --root "$root" src tools/dpjl_tool.cc > /dev/null; then
  fail "lint over src/ + tools/dpjl_tool.cc is not clean"
fi

if [ "$failures" -ne 0 ]; then
  echo "lint_test: $failures failure(s)" >&2
  exit 1
fi
echo "lint_test: all checks passed"
