#!/usr/bin/env python3
"""Build and run the end-to-end yardstick benchmark.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload fattree-report --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30 --trace 0

The first call configures and builds the e2ebench binary (Release) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. The binary's last stdout line is the result JSON
{"correct", "attempted", "failed", "metrics"}; this script passes it
through and exits with the binary's code.
"""
import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"e2ebench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir, log_path):
    here = os.path.dirname(os.path.abspath(__file__))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target", "e2ebench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            code = run_group(cmd, BUILD_TIMEOUT_S, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                print(f"e2ebench: build step failed: {' '.join(cmd)}", file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "yardstick", "engine.hpp")):
        print("e2ebench: run from the root of a yardstick source checkout "
              "(src/yardstick/engine.hpp not found)", file=sys.stderr)
        return 2

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "e2ebench")
    os.makedirs(build_dir, exist_ok=True)
    if not build(build_dir, os.path.join(root, "e2ebench-build.log")):
        return 3

    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(root, "e2ebench-work")]
    sys.stdout.flush()
    code = run_group(cmd, RUN_TIMEOUT_S)
    return 4 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
