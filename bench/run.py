#!/usr/bin/env python3
"""Closed-loop benchmark of the streamgraphs library.

One client, one process, one thread: each query starts only after the
previous one returns. A run repeats the seeded query list of its workload
(one pass) while another whole pass fits in `--seconds`, checks each answer
right after its query and outside its timing, and prints its metrics, the
last line being one JSON object. `attempted` there is the number of queries
in the seeded list and `failed` the number of them whose answer failed its
check in any pass, so both depend on the seed only, not on how many passes
fitted in the run.

    python3 bench/run.py --workload decide-oneshot --seed 1 --seconds 27 \
        --trace 0

--trace 0 reports the end-to-end metrics (no tracing installed), with
times put on one speed scale by the reference loop of reference.py;
--trace 1 runs one traced pass between untraced ones and reports the
per-layer metrics, the per-size medians and the tracing overhead, and
writes the spans to bench/out/. --workload all runs every workload, each in
its own process. Run from the repository root; the library is imported from
src/.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from reference import (NEAREST, REFERENCE_MS, at_reference_speed,
                       scale_pass, time_reference)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 11
# Untimed queries run first for this long, so the first timed pass does not
# pay for a cold processor and interpreter.
WARMUP_S = 1.5

WORKLOAD_NAMES = ("decide-oneshot", "search-staged", "convert-stages",
                  "cli-mix")


def _fail(msg):
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "streamgraphs")):
        _fail("no streamgraphs package under %s" % src)
    sys.path.insert(0, src)
    # the CLI's default fuel must be the documented 1000
    os.environ.pop("WG_FUEL_DEFAULT", None)
    import workloads
    return workloads


def build(workloads, name, seed):
    builders = {"decide-oneshot": workloads.build_decide_oneshot,
                "search-staged": workloads.build_search_staged,
                "convert-stages": workloads.build_convert_stages,
                "cli-mix": workloads.build_cli_mix}
    return builders[name](random.Random(seed))


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Crash:
    """An exception the program should not raise."""

    def __init__(self, exc):
        self.exc = exc


def check(q, answer):
    """None if the answer passes its check, else the reason."""
    if isinstance(answer, Crash):
        return "raised %s: %s" % (type(answer.exc).__name__, answer.exc)
    try:
        return q.check(answer)
    except Exception as exc:  # a malformed answer broke the check
        return "answer failed its check with %s: %s" % (
            type(exc).__name__, exc)


def run_pass(queries, failures, tracer=None, ref_times=None):
    """Run every query once, checking each answer right after its query
    and outside its timing, so no answer outlives the next query.
    Returns the latencies; failures maps the index of each query that
    failed to its reason. With ref_times, the reference loop is timed
    right before each query and once after the last, and its times are
    appended there: query i lies between ref_times[i] and ref_times[i+1]."""
    perf = time.perf_counter
    latencies = []
    for qid, q in enumerate(queries):
        gc.collect()   # every query starts from the same collector state
        if ref_times is not None:
            ref_times.append(time_reference())
        if tracer is not None:
            tracer.begin_query(qid)
        t = perf()
        try:
            answer = q.run()
        except Exception as exc:  # a crash is a failed query, not a stop
            answer = Crash(exc)
        latencies.append(perf() - t)
        if ref_times is not None and qid == len(queries) - 1:
            ref_times.append(time_reference())
        if tracer is not None:
            tracer.end_query()
        reason = check(q, answer)
        answer = None
        if reason is not None:
            failures.setdefault(qid, reason)
    return latencies


def warm_up(queries):
    begin = time.perf_counter()
    for q in queries:
        try:
            q.run()
        except Exception:  # counted when the timed passes meet it
            pass
        if time.perf_counter() - begin >= WARMUP_S:
            break


def time_for_another_pass(begin, seconds, passes):
    """Whether another pass, as long as the mean pass so far, still ends
    within the run's seconds. Runs end on a whole pass, so every run holds
    the same mix of queries."""
    elapsed = time.perf_counter() - begin
    return elapsed + elapsed / passes <= seconds


def lower_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def setup_seconds(workload, seed):
    """Median over fresh processes of the time from process start until the
    query list is built (interpreter start, imports, generation), at the
    reference speed and unscaled."""
    times = []
    scaled = []
    for _ in range(SETUP_PROBES):
        before = [time_reference() for _ in range(NEAREST)]
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:   # no probe outlives the run
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != b"ready":
            _fail("setup probe failed")
        after = [time_reference() for _ in range(NEAREST)]
        scaled.append(at_reference_speed(times[-1], before + after))
    return statistics.median(scaled), statistics.median(times)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def latency_metrics(latencies, suffix=""):
    n = len(latencies)
    return {
        "query_p50_ms" + suffix: (statistics.median(latencies) * 1e3, "ms",
                                  n),
        "query_p90_ms" + suffix: (percentile(latencies, 90) * 1e3, "ms", n),
        "queries_per_s" + suffix: (n / sum(latencies), "1/s", n),
    }


def run_untraced(workloads, args):
    setup, setup_unscaled = setup_seconds(args.workload, args.seed)
    queries = build(workloads, args.workload, args.seed)
    warm_up(queries)
    failures = {}
    begin = time.perf_counter()
    passes = []
    unscaled_passes = []
    refs = []
    while True:
        ref_times = []
        lat = run_pass(queries, failures, ref_times=ref_times)
        passes.append(scale_pass(lat, ref_times))
        unscaled_passes.append(lat)
        refs.extend(ref_times)
        if not time_for_another_pass(begin, args.seconds, len(passes)):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each query's latency is the lower quartile of its passes at the
    # reference speed: scaling takes out slow stretches of the host, and
    # the lower quartile drops what a single pass still catches, such as a
    # burst of contention during one query or a change of speed between a
    # query and its reference loops.
    latencies = [lower_quartile(times) for times in zip(*passes)]
    unscaled = [lower_quartile(times) for times in zip(*unscaled_passes)]
    n = len(latencies)
    metrics = latency_metrics(latencies)
    metrics["setup_s"] = (setup, "s", SETUP_PROBES)
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
    metrics["success_rate"] = ((n - len(failures)) / n, "frac", n)
    info = latency_metrics(unscaled, "_unscaled")
    info["setup_s_unscaled"] = (setup_unscaled, "s", SETUP_PROBES)
    info["reference_slowdown"] = (
        statistics.median(refs) * 1e3 / REFERENCE_MS, "x", len(refs))
    return queries, len(passes), failures, metrics, info


def run_traced(workloads, args):
    import layers
    from tracer import Tracer
    queries = build(workloads, args.workload, args.seed)
    warm_up(queries)
    failures = {}
    untraced_walls = []
    begin = time.perf_counter()

    def one_pass(tracer=None):
        return sum(run_pass(queries, failures, tracer))

    untraced_walls.append(one_pass())
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall = one_pass(tracer)
    finally:
        tracer.uninstall()
    # the traced pass counts as one pass here: it is the longest
    while time_for_another_pass(begin, args.seconds,
                                len(untraced_walls) + 1):
        untraced_walls.append(one_pass())
    metrics = layers.layer_metrics(tracer, queries, workloads.SWEPT)
    metrics["trace_overhead_frac"] = (
        traced_wall / statistics.median(untraced_walls) - 1.0, "frac",
        len(untraced_walls))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
    tracer.write(stem + "-spans.tsv", stem + "-counters.json")
    return queries, len(untraced_walls) + 1, failures, metrics, {}


def run_all(args):
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        if proc.returncode != 0:
            _fail("workload %s exited %d" % (name, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = body
    print(json.dumps(combined, sort_keys=True))


def report(args, queries, passes, failures, metrics, info):
    attempted, failed = len(queries), len(failures)
    print("workload %s  seed %d  trace %d  queries %d  passes %d  "
          "failed %d" % (args.workload, args.seed, args.trace, attempted,
                         passes, failed))
    for name, (value, unit, samples) in metrics.items():
        print("  %-40s %14.6f %-6s samples=%d" % (name, value, unit, samples))
    for name, (value, unit, samples) in info.items():
        print("  (%-38s %14.6f %-6s samples=%d)" % (name, value, unit,
                                                    samples))
    for qid, reason in sorted(failures.items()):
        q = queries[qid]
        print("  FAILED [%s] %s: %s" % (q.cls, q.label, reason))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}},
        sort_keys=True))


def pin_to_one_cpu():
    """Run this process, and the set-up probes it starts, on one CPU: the
    CPUs of a shared host can run at different speeds, and the reference
    loops scale only work that ran on their CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return 0
    workloads = _import_program()
    if args.setup_probe:
        build(workloads, args.workload, args.seed)
        print("ready", flush=True)
        return 0
    pin_to_one_cpu()
    if args.trace:
        result = run_traced(workloads, args)
    else:
        result = run_untraced(workloads, args)
    report(args, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
