#!/usr/bin/env python3
"""End-to-end benchmark of the served SkyNet detector.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (Release, from ../src) into .bench_build at the root of
the checkout, runs the reference checks for the seed in one process, then
the served run in a fresh process, whose last stdout line is the JSON
result.  Build output and diagnostics go to stderr.  See README.md.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ("dacsdc_fp32", "dacsdc_int8", "camera_stream")
# Kernel pool threads.  On the closed loops: the caller plus one worker,
# which with the engine's preprocess, inference and postprocess threads and
# the load generator fits a 4-vCPU host.  The camera's batches of 1 run on
# the inference thread alone: a pool worker would be woken, often on an idle
# vCPU, at every layer, and on a shared host those wake-ups set the latency.
THREADS = {"dacsdc_fp32": "2", "dacsdc_int8": "2", "camera_stream": "1"}
RUN_BUDGET_S = 170  # both processes together, after the build


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no skynet sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "e2ebench"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("e2ebench: build failed: %s" % e)

    env = dict(os.environ)
    env["SKYNET_THREADS"] = THREADS[args.workload]
    # Measure the default datapaths: no SIMD cap, no int8 rollback lever.
    env.pop("SKYNET_SIMD", None)
    env.pop("SKYNET_QENGINE", None)

    tag = "%s-seed%d" % (args.workload, args.seed)
    checks = os.path.join(BUILD, "checks-%s.txt" % tag)
    common = [BINARY, "--workload", args.workload, "--seed", str(args.seed)]
    served = common + ["--checks", checks, "--seconds", str(args.seconds),
                       "--trace", args.trace]
    if args.trace == "1":
        served += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % tag)]
    deadline = time.monotonic() + RUN_BUDGET_S
    for cmd in (common + ["--check-out", checks], served):
        try:
            rc = subprocess.run(cmd, env=env,
                                timeout=max(1.0, deadline - time.monotonic())).returncode
        except subprocess.TimeoutExpired:
            sys.exit("e2ebench: %s timed out" % " ".join(cmd))
        if rc != 0:
            sys.exit(rc)


if __name__ == "__main__":
    main()
