#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload verify|optimize|scale|fault \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` driver (and the
`lis` library it links) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs it. The driver's last stdout line is the
result JSON; build output and diagnostics go to stderr. Exits non-zero,
printing no result, when the sources or the build are missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no repository sources next to " + HERE)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(build, "perfbench")
    out = os.path.join(build, "out")
    result = subprocess.run([exe] + args + ["--out-dir", out], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
