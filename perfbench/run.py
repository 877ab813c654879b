#!/usr/bin/env python3
"""Builds and runs the d2pr benchmark driver.

Run from the root of a d2pr checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The driver is built with CMake from perfbench/CMakeLists.txt, which pulls
in the repository's own CMake project, into .bench_build/perfbench. Build
output goes to stderr; the last line of stdout is the driver's JSON
result. Scratch files (shard cut files) live in a per-run directory under
.bench_build that is removed when the run ends.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("paper_sweep", "serve_zipf", "dist_solve")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build(root, build_dir):
    """Configures (once) and builds the driver into `build_dir`."""
    bench_dir = BENCH_DIR
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        raise RuntimeError(f"no d2pr source tree at {root}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
    )


def run_driver(build_dir, scratch_root, workload, seed, seconds, trace, small):
    """Runs one workload; returns (exit code, stdout text)."""
    work_dir = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    cmd = [
        os.path.join(build_dir, "perfbench_driver"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--small", "1" if small else "0",
        "--bin-dir", os.path.join(build_dir, "d2pr"), "--work-dir", work_dir,
    ]
    # Its own process group, so a timeout can stop the driver and any shard
    # process it started; shards also die with the driver (PDEATHSIG).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return 124, ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, out


def self_test(root, build_dir, scratch_root):
    """Small graphs, 1-second runs: every workload, both modes, all checks."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_driver(build_dir, scratch_root, workload, 7, 1, trace, True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            wanted = spec["per_layer" if trace else "end_to_end"]
            names = {m["name"] for m in wanted}
            good = (
                code == 0
                and result.get("correct") is True
                and result.get("failed") == 0
                and result.get("attempted", 0) >= 1
                and set(result.get("metrics", {})) == names
            )
            log(f"self-test {workload} trace={trace}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small serve/dist graphs: checks in seconds, numbers meaningless")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload small, traced and untraced")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    root = os.path.dirname(BENCH_DIR)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    scratch_root = os.path.join(root, ".bench_build", "scratch")
    try:
        build(root, build_dir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 2
    os.makedirs(scratch_root, exist_ok=True)
    if args.self_test:
        return self_test(root, build_dir, scratch_root)
    code, out = run_driver(build_dir, scratch_root, args.workload, args.seed,
                           args.seconds, args.trace, args.small)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
