#!/usr/bin/env bash
# Tests for tools/check_doc_paths.py on a staged repository: a cited path
# that is gone is reported and fails the check; existing paths (also with a
# :LINE or :FIRST-LAST suffix), placeholder tokens and paths outside the
# checked directories pass; fenced code blocks are scanned like inline spans.
#
# Usage: check_doc_paths_test.sh <repo_root>
set -u

root="${1:?usage: check_doc_paths_test.sh <repo_root>}"
check="$root/tools/check_doc_paths.py"
python="${PYTHON:-python3}"

failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
mkdir -p "$scratch/src/common" "$scratch/bench" "$scratch/.claude/skills/verify"
touch "$scratch/src/common/timer.h" "$scratch/bench/bench_e1.cc"

# A clean staged tree: every cited path exists, and the tokens that must be
# skipped would be missing if they were checked.
cat > "$scratch/README.md" <<'EOF'
See `src/common/timer.h:12-30` and `src/common/timer.h:7`.
Placeholders: `bench/bench_{e1,e2}.cc`, `src/*/gone.h`, `$BUILD/tools/x`.
Outside the checked directories: `docs/gone.md`, `build/release/gone`.
```sh
build/release/bench/bench_e1 --input bench/bench_e1.cc
```
EOF
cat > "$scratch/.claude/skills/verify/SKILL.md" <<'EOF'
Run `bench/bench_e1.cc` ("src/common/timer.h").
EOF

out="$("$python" "$check" --root "$scratch" 2>&1)"
status=$?
if [ "$status" -ne 0 ]; then
  fail "clean staged tree: expected exit 0, got $status; output was: $out"
fi

# Missing paths, one inline in each doc and one in a fenced block, are each
# reported against the doc that cites them.
cat >> "$scratch/README.md" <<'EOF'
Gone: `tools/bench_compare.py`.
```sh
build/release/bench/bench_e15_query_scan < bench/bench_e15_query_scan.cc
```
EOF
cat >> "$scratch/.claude/skills/verify/SKILL.md" <<'EOF'
Also `tests/gone_test.cc:40`.
EOF

out="$("$python" "$check" --root "$scratch" 2>/dev/null)"
status=$?
if [ "$status" -ne 1 ]; then
  fail "missing paths: expected exit 1, got $status; output was: $out"
fi
expected="README.md: cites missing path bench/bench_e15_query_scan.cc
README.md: cites missing path tools/bench_compare.py
.claude/skills/verify/SKILL.md: cites missing path tests/gone_test.cc"
if [ "$out" != "$expected" ]; then
  fail "missing paths: expected
$expected
got
$out"
fi

# The real tree is clean.
out="$("$python" "$check" --root "$root" 2>&1)"
if [ $? -ne 0 ]; then
  fail "real tree cites missing paths: $out"
fi

if [ "$failures" -ne 0 ]; then
  echo "check_doc_paths_test: $failures failure(s)" >&2
  exit 1
fi
echo "check_doc_paths_test: ok"
