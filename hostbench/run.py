#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

Run from the root of a checkout:

    python3 hostbench/run.py --workload cold_large --seed 0 --seconds 20 --trace 0

Every run first builds the benchmark and the simulator library from
src/ (incrementally after the first time) under
$CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when that is
unset. Build output goes to stderr. The last line of stdout is
the benchmark's JSON result. Every flag goes to the benchmark binary,
which checks them; this script only adds --reference (the workload's
file under reference/) and --work-dir when they are not given. See
README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds after its setup; no workload needs more
# than this, and the whole run must end within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "hostbench")


def child_env():
    """Environment of the build and the run: temporary files (the
    compiler's among them) stay inside the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure and build the benchmark; return the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "hostbench", "-j", jobs]]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S, env=child_env())
        if res.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "hostbench")


def with_defaults(argv):
    """The benchmark's arguments: argv, plus the reference file of the
    workload and a work directory under the build directory unless
    given. The binary checks every flag."""
    args = list(argv)
    if "--reference" not in args and "--workload" in args[:-1]:
        workload = args[args.index("--workload") + 1]
        args += ["--reference",
                 os.path.join(HERE, "reference", workload + ".txt")]
    if "--work-dir" not in args:
        args += ["--work-dir", os.path.join(build_dir(), "work")]
    return args


def main(argv):
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print("hostbench: " + str(err), file=sys.stderr)
        return 1
    try:
        res = subprocess.run([binary] + with_defaults(argv),
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             text=True, env=child_env())
    except subprocess.TimeoutExpired:
        print("hostbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        print("hostbench: benchmark exited with %d" % res.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(res.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
