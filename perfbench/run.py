#!/usr/bin/env python3
"""Build the request-level benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--sf X] [--out DIR] [--results FILE]

Run from the root of the repository.  The harness is built with dune
into _build/; its output is relayed, and its last line is the result
object.  With --results FILE the run is also appended to FILE as one
JSON line (workload, seed, trace, metadata, result) for compare.py.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REQUIRED = ["dune-project", "lib", os.path.join("bench", "workloads.ml"),
            os.path.join("perfbench", "dune")]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def arg(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    results = arg(args, "--results")
    if results is not None:
        i = args.index("--results")
        args = args[:i] + args[i + 2:]
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a source tree of the project (missing %s)" % ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    if os.path.isdir(os.path.join(ROOT, ".git")) and "PERFBENCH_COMMIT" not in env:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            env["PERFBENCH_COMMIT"] = head.stdout.strip()
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/harness.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "harness.exe")
    run = subprocess.run([exe] + args, cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    if results is not None:
        lines = [json.loads(l) for l in run.stdout.splitlines() if l.startswith("{")]
        meta = next(l["metadata"] for l in lines if "metadata" in l)
        record = {"workload": meta["workload"], "seed": meta["seed"],
                  "trace": meta["trace"], "metadata": meta, "result": lines[-1]}
        with open(results, "a") as f:
            f.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
