#!/usr/bin/env python3
"""Build gpuperf and gpubench from source, then run one workload.

    python3 gpubench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gpuperf checkout. The build goes to .bench_build/
(kept between runs, so only the first run compiles). The last line of
standard output is the benchmark's JSON result; build output goes to
standard error. Extra flags (--tiny, --trace-out FILE) pass through.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "gpubench", "gpuperf-worker"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return cmake_dir


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "api"))):
        print("gpubench: no gpuperf source tree around " + HERE,
              file=sys.stderr)
        return 2
    cmake_dir = build()
    if cmake_dir is None:
        print("gpubench: build failed", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = os.path.join(".bench_build", "run-%d" % os.getpid())
    cmd = [os.path.join(cmake_dir, "gpubench"),
           "--worker-bin", os.path.join(cmake_dir, "gpuperf", "gpuperf-worker"),
           "--work-dir", work] + argv
    if "--trace-out" not in argv:
        cmd += ["--trace-out", os.path.join(".bench_build", "trace.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
