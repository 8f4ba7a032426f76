#!/usr/bin/env python3
"""Counter determinism self-check.

Runs the traced benchmark twice per workload with the same seed, in fresh
processes with different string-hash seeds, and requires every work counter
(each per-layer metric with unit `count`) to be identical. A later change
may rest a count claim on these counters only while this check passes. It
also requires the traced run to report exactly the per-layer metrics that
BENCHMARK.json lists.

    python3 bench/determinism_check.py --seed 3 [--workload decide-oneshot]

Exits 0 when every counter repeats, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("decide-oneshot", "search-staged", "convert-stages", "cli-mix")


def traced_metrics(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, cwd=os.path.dirname(HERE), env=env,
        text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def counts(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] == "count"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    with open(SPEC) as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    ok = True
    for workload in args.workload or WORKLOADS:
        metrics = traced_metrics(workload, args.seed, 1)
        reported = {name: m["unit"] for name, m in metrics.items()}
        if reported != listed:
            ok = False
            print("%-16s reports other per-layer metrics than "
                  "BENCHMARK.json: %s" % (workload, sorted(
                      set(reported.items()) ^ set(listed.items()))))
        first = counts(metrics)
        second = counts(traced_metrics(workload, args.seed, 2))
        diff = sorted(k for k in first if first[k] != second.get(k))
        ok = ok and not diff and first.keys() == second.keys()
        print("%-16s %d counters, %s" % (
            workload, len(first),
            "identical" if not diff else "DIFFER: %s" % ", ".join(
                "%s %s != %s" % (k, first[k], second.get(k)) for k in diff)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
