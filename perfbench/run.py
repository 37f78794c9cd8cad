#!/usr/bin/env python3
"""End-to-end proving benchmark: build, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tc14-closed --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds the library, the `batchzk` CLI and
the benchmark driver (perfbench/CMakeLists.txt) in Release mode under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when set); later
runs only re-check the build. Build output goes to stderr, so the last
line of stdout is the driver's JSON result. See perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ tree next to perfbench/; run from the "
                 "root of a full checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="tc14-closed, hdg14-closed or mixed10-closed")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, base, "perfbench")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--batchzk", os.path.join(build_dir, "tools", "batchzk"),
           "--out-dir", out_dir]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
