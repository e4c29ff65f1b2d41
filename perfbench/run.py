#!/usr/bin/env python3
"""Build and run the BLOCKWATCH end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first call configures and builds
the bwperf binary (and the libraries it links) into .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is bwperf's JSON result. --selftest also checks
that BENCHMARK.json names exactly the metrics bwperf reports.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bwperf")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 600


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no BLOCKWATCH source tree here (missing %s)" % required)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", "bwperf", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def commit():
    # Stop at the tree's own root: an unpacked source tree is no repository,
    # and the commit of an enclosing one would be wrong.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    reported = {tuple(line.split()) for line in listed if line}
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    if reported != declared:
        print("BENCHMARK.json and bwperf disagree: %s"
              % sorted(reported ^ declared), file=sys.stderr)
        return False
    print("ok   BENCHMARK.json names exactly the metrics bwperf reports")
    return True


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    scratch = os.path.join(BUILD, "scratch")
    args = sys.argv[1:]
    if "--selftest" in args:
        code = subprocess.run([BINARY, "--selftest", "--scratch", scratch],
                              timeout=SELFTEST_TIMEOUT_S).returncode
        sys.exit(code if code != 0 else (0 if check_benchmark_json() else 1))
    command = [BINARY, *args, "--scratch", scratch, "--commit", commit()]
    try:
        sys.exit(subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
