#!/usr/bin/env python3
"""Repository benchmark of mpsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds mpsim_cli, mpsim_serve and the
benchmark's probe from source into .bench_build/, runs one workload
(workloads.py) on inputs made from the seed, checks every output, and
prints a human-readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The workloads and metrics are the ones BENCHMARK.json at the checkout
root lists: with --trace 0 its end-to-end metrics, with --trace 1 its
per-layer ones (metrics.py says what each means).  `python3 perfbench/test_perfbench.py`
tests the benchmark's own logic.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads  # noqa: E402

BUILD = ".bench_build"
TARGETS = ("mpsim_cli", "mpsim_serve", "perfbench_probe")


class Env:
    """What a workload needs: the programs, a scratch directory, the seed,
    the measuring time, whether this is the traced run, and the pins."""

    def __init__(self, binaries, args, pins):
        self.cli, self.serve, self.probe = binaries
        self.work = os.path.join(BUILD, "work")
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.pins = pins


def build():
    """Configures once and builds incrementally; returns the binaries."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("perfbench: the mpsim sources (CMakeLists.txt, src/) are "
                 "not in the current directory; run from a checkout root")
    build_dir = os.path.join(BUILD, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    steps = [["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
              "--target"] + list(TARGETS)]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                sys.exit("perfbench: build failed, see %s" % log.name)
    return (os.path.join(build_dir, "mpsim", "tools", "mpsim_cli"),
            os.path.join(build_dir, "mpsim", "tools", "mpsim_serve"),
            os.path.join(build_dir, "perfbench_probe"))


def main():
    bench = workloads.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(whys))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)

    env = Env(build(), args,
              workloads.load_json(os.path.join(HERE, "checksums.json")))
    workload = workloads.WORKLOADS[args.workload]
    try:
        run_metrics, run = workload.run(env)
    finally:
        shutil.rmtree(env.work, ignore_errors=True)

    # A layer the workload never calls reads 0; every end-to-end metric is
    # measured on every workload.
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": harness.finite(
        run_metrics.get(m["name"], 0.0) if args.trace
        else run_metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    print("workload %s, seed %d: %s" % (args.workload, args.seed,
                                        whys[args.workload]))
    for line in run.notes:
        print("  " + line)
    for name, m in metrics.items():
        print("  %-38s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  fail_share %d/%d" % (run.failed, run.attempted))
    for error in run.errors:
        print("perfbench: " + error, file=sys.stderr)
    print(json.dumps({"correct": not run.errors and run.failed == 0,
                      "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
