"""The reference loop that puts timings on one speed scale.

The machine the benchmark was tuned on is a share of a host whose speed
drifts: for seconds to tens of seconds at a time, all code in the process
runs up to 2x slower, by about the same factor for a 0.2 ms loop as for a
40 ms query (the heaviest queries slow by up to about 10% more). A run that
falls in such a stretch reads slow however many passes it makes. So the benchmark times this fixed pure-Python loop, which
calls nothing from the library, right before and right after every timed
query and every set-up probe, and reports each timing t as

    t * REFERENCE_MS / (median time of the NEAREST loops before it and the
                        NEAREST loops after it)

The median over a few loops drops the jitter of a single 0.2 ms loop; the
loops still lie within a fraction of a second of the timing, well inside a
stretch of one speed.

Reported times are thus milliseconds (or seconds) at the speed at which the
loop takes REFERENCE_MS, its time on the tuning machine's fast state: there
they equal wall-clock time. The unscaled figures are printed beside them.
The loop's inputs are fixed, and no change to the library changes its work.
A change that slows the whole process evenly, as a busy extra thread would,
slows the loop too and cancels out; the unscaled figures show it.
"""

import statistics
import time

# Time of reference_loop() on the tuning machine (2 vCPUs of a shared Intel
# Xeon host, Python 3.11.7) in its fast state.
REFERENCE_MS = 0.17
NEAREST = 4


def reference_loop():
    """Fixed interpreter work of the kind the library does: adjacency sets
    of a small graph, neighbour scans and Cantor-pairing arithmetic."""
    adj = {}
    for i in range(60):
        for j in (i * 7 % 61, i * 13 % 61, (i + 1) % 61):
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
    total = 0
    for v, ns in adj.items():
        for w in ns:
            s = v + w
            total += s * (s + 1) // 2 + w
            if w in adj and v in adj[w]:
                total ^= len(adj[w])
    return total


def time_reference():
    """Seconds one reference loop takes now."""
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


def at_reference_speed(seconds, nearby):
    """A timing, taken amid reference loops that took `nearby` seconds,
    expressed at the reference speed."""
    return seconds * REFERENCE_MS * 1e-3 / statistics.median(nearby)


def scale_pass(latencies, ref_times):
    """Latencies of a pass at the reference speed; latency i was timed
    between ref_times[i] and ref_times[i + 1]."""
    return [at_reference_speed(t, ref_times[max(0, i + 1 - NEAREST):
                                             i + 1 + NEAREST])
            for i, t in enumerate(latencies)]
