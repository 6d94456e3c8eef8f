#!/usr/bin/env python3
"""Build the SVA-timing benchmark from source and run one workload.

    python3 perfbench/run.py --workload table2_cli --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --record      # rewrite perfbench/reference.tsv

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; each run works in a fresh directory below it, which is
removed afterwards.  The last line of stdout is the result object; the line
before it carries provenance (host, compiler, build, revision, thread
counts) and each metric's sample count.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table2_cli", "ssta_sweep", "eco_closure", "daemon_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configure once, then build incrementally; logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no SVA-timing sources at {ROOT / 'src'}")
    build_dir = build_root / "cmake"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "sva-timing"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench", build_dir / "sva" / "cli" / "sva-timing"


def revision():
    """Git commit when there is one, plus a digest of the sources built."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return f"git:{commit} sources:{digest.hexdigest()[:16]}"


def child_env():
    # Hermetic: no user cache directory, no armed failpoints.
    env = dict(os.environ)
    env.pop("SVA_CACHE_DIR", None)
    env.pop("SVA_FAILPOINTS", None)
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/reference.tsv from direct runs")
    args = parser.parse_args()
    if not args.record and (args.workload is None or args.seed is None
                            or args.seconds is None or args.seconds <= 0):
        parser.error("--workload, --seed and --seconds > 0 are required")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary, cli = build(build_root)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=build_root))
    try:
        if args.record:
            cmd = [str(binary), "--record", str(HERE / "reference.tsv")]
        else:
            cmd = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--reference", str(HERE / "reference.tsv"),
                   "--cli", str(cli), "--commit", revision()]
            if args.trace:
                traces = build_root / "traces"
                traces.mkdir(exist_ok=True)
                cmd += ["--trace-file",
                        str(traces / f"{args.workload}-seed{args.seed}.json")]
        try:
            proc = subprocess.run(cmd, cwd=run_dir, env=child_env(),
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"no result within {RUN_TIMEOUT_S} s")
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        return proc.returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
