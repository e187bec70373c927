#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hot_zipf --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the mga library from src/ plus the driver) into
.bench_build/perfbench with CMake, then runs the driver. The driver's last
stdout line is the JSON result; everything else it prints is the readable
report. With --trace 1 the Chrome trace goes to
.bench_build/perfbench_trace_<workload>.json.

Exits non-zero, without a result, when the sources are missing or the build
fails; exits non-zero when the driver reports a correctness violation.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# The driver's own runs end well inside this; a hung run is killed here.
DRIVER_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "serve" / "service.hpp").is_file():
        log(f"mga sources not found under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench_driver", "-j", jobs],
    )
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if result.returncode != 0:
            log(f"build step failed ({result.returncode}): {' '.join(step)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    trace_out = BUILD.parent / f"perfbench_trace_{args.workload}.json"
    command = [str(BUILD / "perfbench_driver"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-out", str(trace_out),
               "--commit", source_id()]
    # A terminated run.py takes the driver with it (the driver also asks the
    # kernel to kill it when its parent dies).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with subprocess.Popen(command, cwd=ROOT) as driver:
        try:
            return driver.wait(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"driver did not finish within {DRIVER_TIMEOUT_S} s; killed")
            return 1
        finally:
            if driver.poll() is None:
                driver.kill()
                driver.wait()


if __name__ == "__main__":
    sys.exit(main())
