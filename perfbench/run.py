#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload serve_echo --seed 1 --seconds 20 --trace 0

Run from the repository root. The build directory is $CARGO_TARGET_DIR when
set, else .bench_build; traced runs write their spans to .bench_out/. The
binary's stdout is passed through unchanged: its last line is the JSON
result. The exit status is the binary's (1 when an answer was wrong), or 1
when the build fails or the binary does not finish in time.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_echo", "serve_redundant", "campaign_nvp")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(message, log=None):
    print(f"perfbench: {message}", file=sys.stderr)
    if log and os.path.exists(log):
        with open(log, encoding="utf-8", errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    sys.exit(1)


def build(source, build_dir):
    """Configure once, then build the binary (a no-op when up to date)."""
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    with open(log, "w", encoding="utf-8") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", source, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.close()
                with open(log, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                # Leave no half-configured tree for the next run to trust.
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("cmake configure failed")
        step = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", BUILD_JOBS]
        if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
            fail("build failed", log)
    return os.path.join(build_dir, "perfbench")


def run_timeout(seconds):
    """Wall time a valid run can need: a serving run measures up to three
    fixed-rate windows of seconds/2 and a ladder of seconds/2, with a 2 s
    drain after each phase, so 3 x seconds + 60 s leaves room to spare."""
    return 3 * seconds + 60


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be within 1..600")

    source = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(source, os.path.abspath(build_dir))

    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    # The benchmark measures the program's defaults: no REDUNDANCY_* knob
    # from the caller's environment reaches it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REDUNDANCY_")}
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", out_dir]
    timeout = run_timeout(args.seconds)
    try:
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {timeout} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"perfbench exited {run.returncode} without a result")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
