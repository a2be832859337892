#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload query_scan|ingest_mix|routed \
        --seed N --seconds S --trace 0|1 [--quick]

Configures and builds `perfbench/` (which compiles the dpjl libraries from
the repository root) in Release mode under `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs one workload. The program's standard output is
passed through; its last line is the result JSON. Build output goes to
standard error. Spans of traced runs and the full result of every run are
written to `<build dir>/perfbench/results/`.

Exit status: the program's own (0 unless an output check failed), 2 when
the sources or the build are missing or broken, 3 on a timeout.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("query_scan", "ingest_mix", "routed")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    configured = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return configured if configured.is_absolute() else ROOT / configured


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no dpjl sources next to {HERE.name}/ (expected {ROOT}/CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--parallel", jobs])
    # The compiler's temporary files stay inside the checkout too.
    temp_dir = out / "tmp"
    temp_dir.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(temp_dir))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_id():
    """Git commit when run from a clone, else a digest of the sources."""
    try:
        # The ceiling keeps git from searching directories above the checkout.
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: the mode perfbench/test_perfbench.py runs")
    args = parser.parse_args()

    out = build_root() / "perfbench"
    build(out)
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    results = out / "results"
    results.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", str(results), "--commit", source_id()]
    if args.quick:
        command.append("--quick")
    sys.stdout.flush()
    try:
        completed = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s", code=3)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
