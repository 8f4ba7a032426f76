"""Shared random instance factories and reference implementations for the
tests.

The brute-force embedding oracle is `streamgraphs.suites._naive_embeddings`
(and its first hit, `_naive_least_embedding`): the shipped `bruteforce`
suite needs it, so the tests import it from there.  `random_fin_graph` is
likewise the suites' `_random_fin_graph`, re-exported here."""

import argparse
import itertools
import random

from streamgraphs import cli
from streamgraphs import graphs as G
from streamgraphs.decide import (Plan, embeddings, fin_subgraph,
                                least_new_embedding)
from streamgraphs.errors import FuelExhausted, NotInB, PatternNeverSeen
from streamgraphs.gadgets import _first_primes
from streamgraphs.spaces import (HostView, IotaTrace, SpaceName, Violation,
                                 name_of, read_pairs)
from streamgraphs.streams import GeneratorBacked, pair, unpair
from streamgraphs.suites import _random_fin_graph as random_fin_graph  # noqa
from streamgraphs.trees import TreeGen, string_code, string_decode


def raising_once(stream, at):
    """The stream's values, read through a GeneratorBacked whose first read
    of position `at` raises RuntimeError; every later read answers."""
    failed = []

    def step(n):
        if n == at and not failed:
            failed.append(n)
            raise RuntimeError("flaky input")
        return stream.eval(n)

    return GeneratorBacked(step)


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


class StageByStageFConvert:
    """The injury construction of `spaces.f_convert` as it ran before its
    stages were fused into one loop: one method call per step of a stage.
    run_until(k) reads the emissions of the stages below k in one
    read_pairs call, so a read that raises runs none of them."""

    def __init__(self, stream):
        self.stream = stream
        self.trace = IotaTrace()
        self.ones = self.trace.ones
        self.used = set()
        self.partners = {}
        self.stage = 0

    def _fresh(self):
        m = self.stage + 1
        while m in self.used:
            m += 1
        return m

    def _assign(self, u, m):
        self.used.discard(self.trace.iota.get(u))
        self.used.add(m)
        self.trace.iota[u] = m
        self.ones.add(pair(m, m))

    def _add_vertex(self, u):
        if u in self.trace.iota:
            return
        self._assign(u, self._fresh())
        self.trace.first_emission.setdefault(u, self.stage)

    def run_stage(self, u, w):
        s = self.stage
        self._add_vertex(u)
        if u != w:
            self._add_vertex(w)
            self.partners.setdefault(u, []).append(w)
            self.partners.setdefault(w, []).append(u)
            a, b = self.trace.iota[u], self.trace.iota[w]
            p1 = pair(a, b)
            if max(a, b) < s and p1 not in self.ones:
                self._injure(u, w)
            else:
                self.ones.add(p1)
                self.ones.add(pair(b, a))

    def _injure(self, u, w):
        ku = self.trace.first_emission[u]
        kw = self.trace.first_emission[w]
        victim = w if ku < kw else u
        old = self.trace.iota[victim]
        m = self._fresh()
        self._assign(victim, m)
        self.trace.injuries.append((self.stage, victim, old, m))
        for other in self.partners[victim]:
            c = self.trace.iota[other]
            self.ones.add(pair(m, c))
            self.ones.add(pair(c, m))

    def run_until(self, stages):
        if self.stage < stages:
            pos, pairs = read_pairs("EGr", self.stream, self.stage, stages)
            for n, (u, w) in zip(pos, pairs):
                self.stage = n
                self.run_stage(u, w)
            self.stage = stages
        self.trace.stages_run = self.stage


def reference_gr_bit(g, n):
    """Position n of the Gr name of the countable graph g, decided from
    scratch: both ends of unpair(n) are vertices and, when they differ,
    adjacent."""
    i, j = unpair(n)
    if i == j:
        return 1 if g.has_vertex(i) else 0
    return 1 if (g.has_vertex(i) and g.has_vertex(j)
                 and g.has_edge(i, j)) else 0


def reference_validate_gr(prefix):
    """validate_prefix("Gr", prefix) through unpair and pair: a 1 at
    pair(i, j) needs 1s at pair(j, i), pair(i, i) and pair(j, j) where the
    prefix reaches them."""
    for n, v in enumerate(prefix):
        if v not in (0, 1):
            return Violation(n, "Gr values must be binary")
        if v != 1:
            continue
        i, j = unpair(n)
        for q in (pair(j, i), pair(i, i), pair(j, j)):
            if q < len(prefix) and prefix[q] != 1:
                return Violation(n, "edge forces vertices and symmetry")
    return "ok"


def reference_read_pairs(space, stream, lo, hi):
    """`spaces.read_pairs` one position at a time: eval(n) for each n in
    [lo, hi), decoded as unpair(n) where a Gr value is 1 and as
    unpair(v - 1) where an EGr value v is > 0."""
    pos, pairs = [], []
    for n in range(lo, hi):
        v = stream.eval(n)
        if space == "Gr" and v == 1:
            pos.append(n)
            pairs.append(unpair(n))
        elif space == "EGr" and v > 0:
            pos.append(n)
            pairs.append(unpair(v - 1))
    return pos, pairs


def reference_gr_to_egr(bit_at, length):
    """The first `length` values of the Gr -> EGr transducer on the bits
    bit_at(c): stage c reads bit c and, on a 1 at unpair(c) = (i, j), queues
    the codes that are new among (a, a), (b, b) and the edge (a, b), in
    that order, where a = min(i, j) and b = max(i, j); it then emits the
    oldest queued code + 1, or padding 0."""
    emitted, queue, out = set(), [], []
    for c in range(length):
        if bit_at(c) == 1:
            a, b = sorted(unpair(c))
            for code in (pair(a, a), pair(b, b), pair(a, b)):
                if code not in emitted:
                    emitted.add(code)
                    queue.append(code)
        out.append(queue.pop(0) + 1 if queue else 0)
    return out


def reference_gr_head(ones):
    """The dense head of the Gr stream that is 1 exactly on the codes in
    `ones`: one 0/1 entry per position up to the last 1."""
    top = max(ones) + 1 if ones else 0
    return [1 if c in ones else 0 for c in range(top)]


def reference_dense_egr_name(g, positions, vertices=None):
    """The first `positions` values of the dense EGr name of the infinite
    countable graph g, built by testing each new vertex against every
    earlier one; the vertices come from `vertices` where it is given, and
    from g.iter_vertices() otherwise."""
    out = []
    seen = []
    for v in g.iter_vertices() if vertices is None else vertices:
        out.append(pair(v, v) + 1)
        for w in seen:
            if g.has_edge(v, w):
                out.append(pair(min(v, w), max(v, w)) + 1)
        seen.append(v)
        if len(out) >= positions:
            break
    return out[:positions]


def reference_ray_solution(path_vertex):
    """EGr name of the ray v0 - v1 - v2 - ... given by the vertex function,
    one value per position: v0 at 0, then v_t at 2t - 1 and its edge to
    v_(t-1) at 2t."""
    def emission(n):
        if n == 0:
            v = path_vertex(0)
            return pair(v, v) + 1
        step, phase = divmod(n - 1, 2)
        a, b = path_vertex(step), path_vertex(step + 1)
        if phase == 0:
            return pair(b, b) + 1
        return pair(min(a, b), max(a, b)) + 1
    return SpaceName("EGr", GeneratorBacked(emission))


def reference_omega_vertices(base):
    """The enumeration of OmegaCopies(base), by pairing: diagonal d holds
    pair(d - u, u) for the base vertices u <= d."""
    if base.vertex_count() == 0:
        return
    found = []
    for d in itertools.count():
        if base.has_vertex(d):
            found.append(d)
        for u in found:
            yield pair(d - u, u)


def reference_omega_lower(base, v):
    """OmegaCopies(base).lower_neighbors(v), by unpairing v and pairing
    each of the base's listed lower neighbours with its copy."""
    i, u = unpair(v)
    lower = base.lower_neighbors(u)
    return None if lower is None else [pair(i, w) for w in lower]


def reference_tree_vertices(tree):
    """The breadth-first enumeration of a finitely branching tree's string
    codes, coding each node from scratch with string_code."""
    level = [()] if tree.contains(()) else []
    while level:
        for s in level:
            yield string_code(s)
        level = [s + (d,) for s in level for d in tree.children(s)]


def reference_validate_egr(prefix):
    """validate_prefix("EGr", prefix) through unpair and a set of the
    emitted codes."""
    emitted = set()
    for n, v in enumerate(prefix):
        if v == 0:
            continue
        i, j = unpair(v - 1)
        if i != j:
            if pair(i, i) not in emitted or pair(j, j) not in emitted:
                return Violation(n, "edge emitted before its vertices")
        emitted.add(v - 1)
    return "ok"


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


def reference_find_s_finite(g, host, fuel=None):
    """`search.find_s_finite` as the full search of every stage that added
    anything: (copy name, inclusion)."""
    view = HostView(host)
    fin = None
    s = 1
    while True:
        if fuel is not None and s > fuel:
            raise FuelExhausted("no copy found", spent=fuel)
        prev, fin = fin, view.graph(s)
        if fin is not prev:
            emb = fin_subgraph(g, fin)
            if emb is not None:
                return (name_of("Gr", g.relabel(emb.mapping)),
                        dict(emb.mapping))
        s += 1


def reference_co_enum(g, host):
    """The co-enumeration of `search.find_is_via_cn`, decoding every code
    afresh from snapshot graphs at each call."""
    view = HostView(host)

    def decode(code):
        s, idx = unpair(code)
        embs = embeddings(g, view.graph(s), induced=True)
        return next(itertools.islice(embs, idx, None), None)

    def rejected(code, at_stage):
        s, _ = unpair(code)
        if at_stage <= s:
            return False
        m = decode(code)
        if m is None:
            return True
        later = view.graph(at_stage)
        return not all(
            (g.has_edge(a, b) == later.has_edge(m[a], m[b]))
            for a, b in itertools.combinations(sorted(g.vertices), 2))

    def co_enum(t):
        out = []
        for c in range(t + 1):
            now = rejected(c, t)
            before = c <= t - 1 and rejected(c, t - 1)
            if now and not before:
                out.append(c)
        return out

    return co_enum


def reference_components(exceptional, recurring, host, length):
    """The first `length` values of the `search.find_s_components` solution
    and the copies claimed for them, searching the induced subgraph of the
    unclaimed vertices of the whole prefix every 10 positions."""
    view = HostView(host)
    used, out, claimed = set(), [], []
    fuel, done, turn = 0, not exceptional, 0
    big = G.FinGraph(
        [pair(i, v) for i, part in enumerate(exceptional)
         for v in part.vertices],
        [(pair(i, a), pair(i, b)) for i, part in enumerate(exceptional)
         for a, b in part.edges])

    def emit(comp, mapping):
        claimed.append((comp, dict(mapping)))
        for v in sorted(mapping.values()):
            out.append(pair(v, v) + 1)
        for a, b in sorted(comp.edges):
            x, y = mapping[a], mapping[b]
            out.append(pair(min(x, y), max(x, y)) + 1)
        used.update(mapping.values())

    while len(out) < length:
        before = len(out)
        fuel += 10
        fin = view.graph(fuel)
        free = fin.induced(set(fin.vertices) - used)
        if not done:
            emb = fin_subgraph(big, free)
            if emb is not None:
                for i, part in enumerate(exceptional):
                    emit(part, {v: emb.mapping[pair(i, v)]
                                for v in part.vertices})
                done = True
        elif recurring:
            comp = recurring[turn % len(recurring)]
            emb = fin_subgraph(comp, free)
            if emb is not None:
                emit(comp, emb.mapping)
                turn += 1
        if len(out) == before:
            out.append(0)
    return out[:length], claimed


def reference_restrict_to_connected(host, v, length):
    """The first `length` values of `search.restrict_to_connected`, taking
    the component of v in a new snapshot graph every 5 positions."""
    view = HostView(host)
    fuel, out, emitted_v, emitted_e = 0, [], set(), set()
    while len(out) < length:
        before = len(out)
        fuel += 5
        fin = view.graph(fuel)
        if v in fin.vertices:
            comp = fin.component_of(v)
            for u in sorted(comp - emitted_v):
                emitted_v.add(u)
                out.append(pair(u, u) + 1)
            for a, b in sorted(fin.edges):
                if a in comp and b in comp and (a, b) not in emitted_e:
                    emitted_e.add((a, b))
                    out.append(pair(a, b) + 1)
        if len(out) == before:
            out.append(0)
    return out[:length]


def _reference_wait_for(predicate, fuel):
    s = 1
    while s < fuel:
        got = predicate(s)
        if got is not None:
            return got
        s *= 2
    got = predicate(fuel)
    if got is not None:
        return got
    raise PatternNeverSeen("no witness within fuel %d" % fuel)


def _pendant(kind):
    """The cycle or clique of a tail-ray kind on 0..size-1, with the
    pendant vertex size at 0."""
    shape, size = kind
    if shape == "CycleTailRay":
        core = [(i, (i + 1) % size) for i in range(size)]
    else:
        core = [(a, b) for a in range(size) for b in range(a + 1, size)]
    return G.FinGraph(range(size + 1), core + [(0, size)])


def anchored_pendant(kind, host, fuel=2000):
    """The pendant probe of `search.ray_follow` that searched only the
    copies using what arrived since the previous probe: the mapping of
    the least such copy at the first probe stage that has one."""
    pend = Plan(_pendant(kind))
    view, probed = HostView(host), 0

    def find_pendant(s):
        nonlocal probed
        vs, es = view.added(probed, s)
        probed = s
        return least_new_embedding(pend, view, vs, es)

    return _reference_wait_for(find_pendant, fuel)


def reference_ray_follow(kind, host, fuel=2000, steps=10):
    """`search.ray_follow` reading a new snapshot graph at every probe."""
    view = HostView(host)
    banned = set()
    if kind in ("TwoWayRay", "FullBinaryTree"):
        def first_vertex(s):
            vs = view.graph(s).vertices
            return min(vs) if vs else None

        start = _reference_wait_for(first_vertex, fuel)
    else:
        size, pend = kind[1], _pendant(kind)

        def find_pendant(s):
            emb = fin_subgraph(pend, view.graph(s))
            return None if emb is None else emb.mapping

        mapping = _reference_wait_for(find_pendant, fuel)
        start = mapping[size]
        banned = {mapping[i] for i in range(size)}
    walk = [start]
    while len(walk) < steps:
        tip, seen = walk[-1], set(walk) | banned

        def probe(s):
            fin = view.graph(s)
            if tip not in fin.vertices:
                return None
            cands = [w for w in fin.neighbors(tip) if w not in seen]
            return min(cands) if cands else None

        walk.append(_reference_wait_for(probe, fuel))
    return walk


def random_certified_stream(rng, values=(0, 1), max_prefix=6):
    """A random EventuallyConstant or Periodic stream over the given values."""
    from streamgraphs.streams import EventuallyConstant, Periodic
    prefix = [rng.choice(values) for _ in range(rng.randrange(max_prefix))]
    if rng.random() < 0.5:
        return EventuallyConstant(prefix, rng.choice(values))
    period = [rng.choice(values) for _ in range(rng.randrange(1, 4))]
    return Periodic(prefix, period)


def reference_parser():
    """The argparse parser `cli` used before its command table: the table's
    parser is checked against it on drawn argv."""
    top = argparse.ArgumentParser(
        prog="sgraph",
        description="certified streams, countable graphs and their solvers")
    subs = top.add_subparsers(dest="command")

    def sub(name, fn, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    fuel_kw = dict(type=int, default=None)

    p = sub("validate", cli.cmd_validate, help="check a name against its space")
    p.add_argument("--in", required=True)
    p.add_argument("--fuel", **fuel_kw)

    p = sub("convert", cli.cmd_convert, help="convert between name spaces")
    p.add_argument("--in", required=True)
    p.add_argument("--f", action="store_true",
                   help="enumeration-to-characteristic conversion")
    p.add_argument("--fuel", **fuel_kw)

    p = sub("truncate", cli.cmd_truncate, help="finite window of a name")
    p.add_argument("--in", required=True)
    p.add_argument("--fuel", **fuel_kw)
    p.add_argument("--dot", default=None)

    p = sub("decide", cli.cmd_decide, help="fueled (induced-)subgraph query")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--mode", choices=["is", "s"], default="s")
    p.add_argument("--fuel", **fuel_kw)

    p = sub("search", cli.cmd_search, help="produce a copy of a known pattern")
    p.add_argument("--solver", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", default=None)
    p.add_argument("--fuel", **fuel_kw)
    p.add_argument("--steps", type=int, default=10)

    p = sub("gadget", cli.cmd_gadget, help="run a reduction gadget")
    p.add_argument("--name", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--pattern", default=None)
    p.add_argument("--decode", action="store_true")
    p.add_argument("--fuel", **fuel_kw)

    p = sub("oracle", cli.cmd_oracle, help="call a certified oracle problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--fuel", **fuel_kw)

    p = sub("compose", cli.cmd_compose, help="gadget -> oracle -> decode")
    p.add_argument("--gadget", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--pattern", default=None)
    p.add_argument("--fuel", **fuel_kw)

    p = sub("suite", cli.cmd_suite, help="run a self-check suite")
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=0)

    p = sub("export", cli.cmd_export, help="render a truncation")
    p.add_argument("kind", choices=["dot", "json"])
    p.add_argument("--in", required=True)
    p.add_argument("--fuel", **fuel_kw)
    p.add_argument("--out", default=None)

    return top



def reference_least_new_embedding(plan, h, vertices, edges, exclude=()):
    """decide.least_new_embedding with every anchor: the least first hit
    over every pattern vertex on every new vertex and every pattern edge on
    every new edge in both orientations."""
    hadj, first = h.adjacency, plan.first
    hits = []
    for u in vertices:
        du = len(hadj[u])
        if du < plan.least or u in exclude:
            continue
        for pins, d in plan.pins:
            if du >= d:
                hits.append(first(hadj, pins, (u,), exclude))
    for x, y in edges:
        dx, dy = len(hadj[x]), len(hadj[y])
        if min(dx, dy) < plan.least or x in exclude or y in exclude:
            continue
        for pins, da, db in plan.edge_pins:
            if dx >= da and dy >= db:
                hits.append(first(hadj, pins, (x, y), exclude))
            if dy >= da and dx >= db:
                hits.append(first(hadj, pins, (y, x), exclude))
    gs = plan.vertices
    keys = [[hit[v] for v in gs] for hit in hits if hit is not None]
    return dict(zip(gs, min(keys))) if keys else None


def reference_enuminf_decode(enum, fuel=64):
    """gadgets.enuminf_decode as it was: chi(n) reads and factors the
    positions 0, 1, ... again for every index n, with the prime table taken
    per value."""
    def exponents(value):
        out = []
        rest = value
        for p in _first_primes(64):
            if rest == 1:
                break
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            if e == 0:
                raise NotInB("gap in the prime support of %d" % value)
            out.append(e)
        if rest != 1:
            raise NotInB("%d has a prime factor outside the window" % value)
        if any(e < 1 for e in out):
            raise NotInB("exponent below 1")
        return out

    def chi(n):
        for t in range(fuel):
            value = enum.eval(t)
            exps = exponents(value)
            if len(exps) > n:
                return 1 if exps[n] - 1 == 0 else 0
        raise NotInB("enumeration never reached index %d" % n)

    return GeneratorBacked(chi)


def reference_tree_has_edge(tree, a, b):
    """graphs.TreeAsGraph.has_edge as it was: decode both strings, and an
    edge joins two whose lengths differ by one when the shorter is the
    longer one's parent and the tree holds the longer one."""
    sa, sb = string_decode(a), string_decode(b)
    if abs(len(sa) - len(sb)) != 1:
        return False
    parent, child = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    return child[:-1] == parent and tree.contains(child)


def is_connected(fin):
    """Whether the finite graph has at most one component."""
    return len(fin.components()) <= 1


def is_acyclic(fin):
    """Whether the finite graph is a forest."""
    return len(fin.edges) == len(fin.vertices) - len(fin.components())


def distance(fin, v, w):
    """Breadth-first distance from v to w in the finite graph, OMEGA when
    they lie in different components."""
    dist = {v: 0}
    queue = [v]
    for u in queue:
        if u == w:
            return dist[u]
        for x in fin.neighbors(u):
            if x not in dist:
                dist[x] = dist[u] + 1
                queue.append(x)
    return G.OMEGA


class BareTree(TreeGen):
    """The full binary tree known only through contains and children: a
    tree kind that carries no certificate."""

    def contains(self, sigma):
        return all(d in (0, 1) for d in sigma)

    def children(self, sigma):
        return [0, 1]


def cycles_box_stage_log(box, stages):
    """Run the CyclesBox to `stages` stages and return, per stage run,
    (stage, sigma, docks): the non-member sigma it attached F_s for and the
    dock keys (n, i, k) it took, in order of n."""
    log, attach = [], box._attach_f

    def recording(s, sigma):
        free = dict(box._dock_free)
        attach(s, sigma)
        log.append((s, tuple(sigma), tuple(sorted(
            key for key, ok in box._dock_free.items()
            if not ok and free.get(key, True)))))

    box._attach_f = recording
    try:
        while box._stages < stages:
            box.run_stage()
    finally:
        del box._attach_f
    return log
