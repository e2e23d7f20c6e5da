#!/usr/bin/env python3
"""coold request-path benchmark: build from source, then run one workload.

    python3 coold_bench/run.py --workload fleet_small --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures this package's
CMake project (which adds the repository as a subdirectory) into
.bench_build/ and builds coold and the benchmark client; later runs only
re-check the build. Each run forks a fresh coold under
.bench_run/, prints its report, and ends stdout with one JSON result line.
Traces from --trace 1 runs land in .bench_out/.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_small", "large_plan", "tenant_churn")
CLIENT_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src", "svc")
    ):
        log("no coold sources here (CMakeLists.txt, src/svc); run from the repository root")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return False
    command = ["cmake", "--build", build_dir, "--target", "coold_bench_client", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    if not build(root, build_dir):
        return 2
    client = os.path.join(build_dir, "coold_bench_client")
    coold = os.path.join(build_dir, "tools", "coold")
    run_dir = os.path.join(root, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_out")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(out_dir, exist_ok=True)

    command = [
        client, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--coold", coold, "--run-dir", run_dir, "--out", out_dir,
    ]
    # Its own process group, so every coold the client forked goes with it.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"client exceeded {CLIENT_TIMEOUT_S} s")
        code = 2
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    shutil.rmtree(run_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
