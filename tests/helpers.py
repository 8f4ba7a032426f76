"""Shared random instance factories and reference implementations for the
tests.

The brute-force embedding oracle is `streamgraphs.suites._naive_embeddings`
(and its first hit, `_naive_least_embedding`): the shipped `bruteforce`
suite needs it, so the tests import it from there."""

import random

from streamgraphs import graphs as G
from streamgraphs.streams import pair, unpair


def reference_truncate(name, fuel):
    """The finite graph the first `fuel` positions of a Gr or EGr name
    decide, read from position 0 with one plain loop per space."""
    vertices = set()
    edges = []
    if name.space == "Gr":
        for n in range(fuel):
            if name.stream.eval(n) != 1:
                continue
            i, j = unpair(n)
            vertices.add(i)
            vertices.add(j)
            if i != j:
                edges.append((i, j))
        return G.FinGraph(vertices, edges)
    for n in range(fuel):
        v = name.stream.eval(n)
        if v == 0:
            continue
        i, j = unpair(v - 1)
        vertices.add(i)
        vertices.add(j)
        if i != j:
            edges.append((i, j))
    return G.FinGraph(vertices, edges)


class _ReferenceFConvert:
    """The injury construction with every 0 stored: at the end of stage s,
    each still-undecided position pair(i, j) with i, j <= s is set to 0."""

    def __init__(self, stream):
        self.stream = stream
        self.decided = {}
        self.iota = {}
        self.first_emission = {}
        self.injuries = []
        self.edge_events = []
        self.stage = 0

    def _fresh(self):
        used = set(self.iota.values())
        m = self.stage + 1
        while m in used:
            m += 1
        return m

    def _set(self, pos, bit):
        if pos not in self.decided:
            self.decided[pos] = bit

    def _add_vertex(self, u):
        if u in self.iota:
            return
        m = self._fresh()
        self.decided[pair(m, m)] = 1
        self.iota[u] = m
        self.first_emission.setdefault(u, self.stage)

    def run_stage(self):
        s = self.stage
        v = self.stream.eval(s)
        if v != 0:
            u, w = unpair(v - 1)
            if u == w:
                self._add_vertex(u)
            else:
                self._add_vertex(u)
                self._add_vertex(w)
                self.edge_events.append((s, u, w))
                a, b = self.iota[u], self.iota[w]
                p1, p2 = pair(a, b), pair(b, a)
                if self.decided.get(p1) == 0 or self.decided.get(p2) == 0:
                    self._injure(u, w)
                else:
                    self.decided[p1] = 1
                    self.decided[p2] = 1
        for i in range(s + 1):
            for j in range(s + 1):
                self._set(pair(i, j), 0)
        self.stage += 1

    def _injure(self, u, w):
        ku = self.first_emission[u]
        kw = self.first_emission[w]
        victim = w if ku < kw else u
        old = self.iota[victim]
        m = self._fresh()
        self.decided[pair(m, m)] = 1
        self.iota[victim] = m
        self.injuries.append((self.stage, victim, old, m))
        for (_, x, y) in self.edge_events:
            if victim not in (x, y):
                continue
            other = y if x == victim else x
            if other not in self.iota:
                continue
            c = self.iota[other]
            if c == m:
                continue
            self.decided[pair(m, c)] = 1
            self.decided[pair(c, m)] = 1


def reference_f_convert(stream, stages):
    """The machine of `spaces.f_convert` after `stages` stages on an EGr
    stream, in the plain form that stores every decided bit. `decided` maps
    each decided position to its bit; iota, first_emission and injuries
    are as in IotaTrace, and stages_run is `stages`."""
    machine = _ReferenceFConvert(stream)
    while machine.stage < stages:
        machine.run_stage()
    machine.stages_run = machine.stage
    return machine


def reference_dense_egr_name(g, positions):
    """The first `positions` values of the dense EGr name of the infinite
    countable graph g, built by testing each new vertex against every
    earlier one."""
    out = []
    seen = []
    for v in g.iter_vertices():
        out.append(pair(v, v) + 1)
        for w in seen:
            if g.has_edge(v, w):
                out.append(pair(min(v, w), max(v, w)) + 1)
        seen.append(v)
        if len(out) >= positions:
            break
    return out[:positions]


def reference_random_schedule(fin, seed, stutter):
    """The random EGr schedule of `spaces._random_schedule`, rebuilding the
    list of ready edges from every pending edge at each emission."""
    rng = random.Random(seed)
    pending_edges = sorted(fin.edges)
    pending_vertices = sorted(fin.vertices)
    emitted_v = set()
    out = []
    history = []

    def emit(code):
        out.append(code + 1)
        history.append(code)

    while pending_vertices or pending_edges:
        if rng.random() < stutter and history:
            out.append(0 if rng.random() < 0.5 else rng.choice(history) + 1)
            continue
        ready = [("e", e) for e in pending_edges
                 if e[0] in emitted_v and e[1] in emitted_v]
        ready += [("v", v) for v in pending_vertices]
        kind, item = ready[rng.randrange(len(ready))]
        if kind == "v":
            pending_vertices.remove(item)
            emitted_v.add(item)
            emit(pair(item, item))
        else:
            pending_edges.remove(item)
            a, b = item
            emit(pair(a, b) if rng.random() < 0.5 else pair(b, a))
    return out


def random_fin_graph(rng, min_v=1, max_v=6, density=0.4, spread=2):
    n = rng.randrange(min_v, max_v + 1)
    vs = sorted(rng.sample(range(spread * max_v), n))
    es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
          if rng.random() < density]
    return G.FinGraph(vs, es)


def random_certified_stream(rng, values=(0, 1), max_prefix=6):
    """A random EventuallyConstant or Periodic stream over the given values."""
    from streamgraphs.streams import EventuallyConstant, Periodic
    prefix = [rng.choice(values) for _ in range(rng.randrange(max_prefix))]
    if rng.random() < 0.5:
        return EventuallyConstant(prefix, rng.choice(values))
    period = [rng.choice(values) for _ in range(rng.randrange(1, 4))]
    return Periodic(prefix, period)
