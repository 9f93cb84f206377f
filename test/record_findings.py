#!/usr/bin/env python3
"""Record the findings output of three seeded fuzz sessions.

Usage: python3 test/record_findings.py PMRACE_CLI OUTDIR

Each session runs once with --report, --trace-out and --json-out (and
--no-metrics), and leaves three files in OUTDIR:

  NAME.report.txt   the CLI's stdout, without the "== ... execs/sec ==" line
  NAME.trace.jsonl  the event trace, without the "t", "wall" and "latency" keys
  NAME.json         the session artifact, without floats and "metrics"

What is left is a pure function of the seed, so the files pin every byte
the finding pipeline (checkers, dedup, validation, grouping, events,
artifact) prints.  test/fixtures/findings holds the recorded copies; CI
re-records into a scratch directory and diffs the two.
"""
import json
import os
import subprocess
import sys
import tempfile

SESSIONS = [
    ("figure1", ["figure1", "--campaigns", "40", "--invariants", "--crash-images", "4"]),
    ("torn-planted", ["torn-planted", "--campaigns", "60", "--crash-images", "4", "--por"]),
    ("memcached-pmem", ["memcached-pmem", "--campaigns", "60", "--crash-images", "16"]),
]


def strip_floats(x):
    if isinstance(x, dict):
        return {k: strip_floats(v) for k, v in x.items()
                if k != "metrics" and not isinstance(v, float)}
    if isinstance(x, list):
        return [strip_floats(v) for v in x if not isinstance(v, float)]
    return x


def record(cli, outdir, name, args):
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run(
            [os.path.abspath(cli), "fuzz", *args, "--no-metrics", "--report",
             "--trace-out", "trace.jsonl", "--json-out", "session.json"],
            cwd=tmp, check=True, capture_output=True, text=True).stdout
        with open(os.path.join(tmp, "trace.jsonl")) as f:
            events = [json.loads(line) for line in f]
        with open(os.path.join(tmp, "session.json")) as f:
            artifact = json.load(f)
    lines = [l for l in out.splitlines(keepends=True) if not l.startswith("== ")]
    with open(os.path.join(outdir, f"{name}.report.txt"), "w") as f:
        f.writelines(lines)
    with open(os.path.join(outdir, f"{name}.trace.jsonl"), "w") as f:
        for ev in events:
            ev = {k: v for k, v in ev.items() if k not in ("t", "wall", "latency")}
            f.write(json.dumps(ev, sort_keys=True) + "\n")
    with open(os.path.join(outdir, f"{name}.json"), "w") as f:
        json.dump(strip_floats(artifact), f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    cli, outdir = sys.argv[1:]
    os.makedirs(outdir, exist_ok=True)
    for name, args in SESSIONS:
        record(cli, outdir, name, args)


if __name__ == "__main__":
    main()
