#!/usr/bin/env python3
"""Build the pmrace benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout.  The benchmark binary is
built with dune (release profile) into .bench_build/ at the checkout
root; a traced run writes its spans there too.  Standard output is the
benchmark's own; its last line is the JSON result.  Exits non-zero,
without a result, when the checkout lacks the pmrace sources or the
build or run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("pclht-fuzz", "torn-por", "memcached-triage")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    missing = [f for f in ("dune-project", "lib/pmrace/dune", "lib/workloads/dune")
               if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print("run.py: not a pmrace source checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2

    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace), "--out-dir", spans_dir],
        cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
