#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload decide-10k --seed 1 --seconds 15 --trace 0

The first run configures and builds the library and the benchmark into
.bench_build/ (an optimized build; later runs only check it is up to
date). Durable data goes to .bench_data/ and traced-run spans to
.bench_traces/, all under the repository root. The benchmark's own
self-test runs before every measurement. The last line of stdout is the
result object printed by the benchmark binary; see e2ebench/README.md.

    python3 e2ebench/run.py --selftest    # only the self-test
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(ROOT, ".bench_data")
TRACES = os.path.join(ROOT, ".bench_traces")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(command)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to e2ebench/ — run from a full "
             "checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
               "siot_e2e", "siot_e2e_selftest"], BUILD_TIMEOUT_S)


def selftest(verbose):
    result = subprocess.run([os.path.join(BUILD, "siot_e2e_selftest")],
                            cwd=ROOT, capture_output=True, text=True,
                            timeout=RUN_TIMEOUT_S)
    if verbose or result.returncode != 0:
        sys.stdout.write(result.stdout)
    if result.returncode != 0:
        fail("benchmark self-test failed", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if os.environ.get("SIOT_GROUP_COMMIT_WINDOW_US") is not None:
        fail("SIOT_GROUP_COMMIT_WINDOW_US is set; it changes the flush "
             "discipline between the sides of a comparison")

    build()
    selftest(verbose=args.selftest)
    if args.selftest:
        return 0

    command = [os.path.join(BUILD, "siot_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", DATA, "--trace-dir", TRACES]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = output.rstrip("\n").split("\n")
    if child.returncode != 0 and not lines[-1].startswith("{"):
        sys.stdout.write(output)
        fail(f"benchmark exited with status {child.returncode}")
    sys.stdout.write(output)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
