"""Represented spaces for countable graphs and trees.

Spaces:
  Gr  -- characteristic function over pair codes: p(pair(i,j)) = 1 iff the
         edge (i,j) is present (i == j encodes "i is a vertex").
  EGr -- enumeration: the stream emits value 0 as padding ("no new
         information") and value c+1 to emit pair code c. Edges may only be
         emitted after both endpoint vertices.
  Tr / Tr2 -- characteristic function of a prefix-closed set of string codes
         (Tr2: binary alphabet).

The EGr wire shift (+1) keeps vertex 0 expressible while still giving padding
a dedicated symbol; an all-padding stream denotes the empty graph.
"""

import random
from bisect import bisect_left, insort
from collections import deque, namedtuple
from itertools import chain, combinations
from math import isqrt

from .errors import BadParam, FuelExhausted
from .streams import (CertifiedStream, EventuallyConstant, GeneratorBacked,
                      Indicator, Staged, pair, unpair, zero_from)
from .trees import string_decode
from .graphs import OMEGA, FinGraph, Finite

SPACES = ("Gr", "EGr", "Tr", "Tr2")

Violation = namedtuple("Violation", "index rule")


class SpaceName:
    """A certified stream tagged with its represented space.

    meta carries optional structural certificates (e.g. the GraphGen a name
    was synthesized from, or a gadget's driver stream); it never affects the
    denotation, only what downstream deciders can certify.
    """

    def __init__(self, space, stream, meta=None):
        if space not in SPACES:
            raise BadParam("unknown space %r" % space)
        if not isinstance(stream, CertifiedStream):
            raise BadParam("SpaceName needs a CertifiedStream")
        self.space = space
        self.stream = stream
        self.meta = dict(meta or {})

    def __repr__(self):
        return "SpaceName(%r, %r)" % (self.space, self.stream)


# ---------------------------------------------------------------------------
# Domain validation
# ---------------------------------------------------------------------------

def validate_prefix(space, prefix):
    """First violated domain rule on a forced prefix, or the string "ok"."""
    prefix = list(prefix)
    if space == "Gr":
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
    if space == "EGr":
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
    if space in ("Tr", "Tr2"):
        for n, v in enumerate(prefix):
            if v not in (0, 1):
                return Violation(n, "tree values must be binary")
            if v != 1 or n == 0:
                continue
            parent, digit = unpair(n - 1)
            if space == "Tr2" and digit > 1:
                return Violation(n, "Tr2 digits must be < 2")
            if parent < len(prefix) and prefix[parent] != 1:
                return Violation(n, "node present without its parent")
        return "ok"
    raise BadParam("unknown space %r" % space)


def validate_name(name, horizon=2000):
    return validate_prefix(name.space, name.stream.prefix(horizon))


# ---------------------------------------------------------------------------
# Name synthesis
# ---------------------------------------------------------------------------

def _gr_bit(g, n):
    i, j = unpair(n)
    if i == j:
        return 1 if g.has_vertex(i) else 0
    return 1 if (g.has_vertex(i) and g.has_vertex(j) and g.has_edge(i, j)) else 0


def _finite_emissions(fin):
    """Default emission order for a finite graph: all vertices in label
    order, then all edges in code order (vertex-before-edge by construction)."""
    out = [pair(v, v) for v in sorted(fin.vertices)]
    out += sorted(pair(a, b) for a, b in fin.edges)
    return out


def name_of(space, g, schedule=None):
    """Synthesize a valid name for an algebra graph.

    schedule (EGr only): None/'diagonal', or ('random', seed, stutter) for
    finite graphs -- a seeded shuffled emission order with stutter padding.
    """
    if isinstance(g, FinGraph):
        g = Finite(g)
    if space == "Gr":
        if g.vertex_count() != OMEGA:
            fin = g.materialize()
            ones = {pair(v, v) for v in fin.vertices}
            for a, b in fin.edges:
                ones.add(pair(a, b))
                ones.add(pair(b, a))
            return SpaceName("Gr", Indicator(ones), meta={"denotes": g})
        return SpaceName("Gr", GeneratorBacked(lambda n: _gr_bit(g, n)),
                         meta={"denotes": g})
    if space == "EGr":
        if g.vertex_count() != OMEGA:
            fin = g.materialize()
            if schedule is None or schedule == "diagonal":
                order = _finite_emissions(fin)
            else:
                tag, seed, stutter = schedule
                if tag != "random":
                    raise BadParam("unknown schedule %r" % (schedule,))
                order = _random_schedule(fin, seed, stutter)
                return SpaceName("EGr", EventuallyConstant(order, 0),
                                 meta={"denotes": g})
            return SpaceName("EGr",
                             EventuallyConstant([c + 1 for c in order], 0),
                             meta={"denotes": g})
        return SpaceName("EGr", _egr_stages(lambda n: _gr_bit(g, n)),
                         meta={"denotes": g})
    raise BadParam("name_of supports Gr and EGr")


def _random_schedule(fin, seed, stutter):
    """Shuffled valid emission order with stuttering, already wire-shifted.

    Each draw picks uniformly among the ready edges (both ends emitted), in
    sorted order, followed by the pending vertices, in sorted order."""
    rng = random.Random(seed)
    ready_edges = []
    pending_vertices = sorted(fin.vertices)
    emitted_v = set()
    out = []
    history = []

    def emit(code):
        out.append(code + 1)
        history.append(code)

    while pending_vertices or ready_edges:
        if rng.random() < stutter and history:
            out.append(0 if rng.random() < 0.5 else rng.choice(history) + 1)
            continue
        k = rng.randrange(len(ready_edges) + len(pending_vertices))
        if k >= len(ready_edges):
            v = pending_vertices.pop(k - len(ready_edges))
            emitted_v.add(v)
            emit(pair(v, v))
            for w in fin.adjacency[v]:
                if w in emitted_v:
                    insort(ready_edges, (min(v, w), max(v, w)))
        else:
            a, b = ready_edges.pop(k)
            emit(pair(a, b) if rng.random() < 0.5 else pair(b, a))
    return out


def name_of_tree(tree, space="Tr"):
    """Characteristic name of a TreeGen (decidable membership per node code)."""
    return SpaceName(space, GeneratorBacked(
        lambda n: 1 if tree.contains(string_decode(n)) else 0),
        meta={"tree": tree})


# ---------------------------------------------------------------------------
# Reading a name: prefixes (HostView, truncate) and vertex windows
# ---------------------------------------------------------------------------

def _window(pairs):
    """The FinGraph of the (i, j) pairs (i == j: a vertex), built unchecked
    by C-level passes; FinGraph.adjacency builds the adjacency on first use."""
    g = FinGraph.__new__(FinGraph)
    g.vertices = frozenset(chain.from_iterable(pairs))
    g.edges = frozenset([(i, j) if i < j else (j, i)
                         for i, j in pairs if i != j])
    return g


class HostView:
    """Reader of a Gr or EGr name that evaluates and decodes each position
    only once.

    graph(s) is the finite graph that the first s positions decide, for any
    s >= 0 and in any order; it never reads position s or beyond. While only
    padding has arrived since the previous call, it returns the same object.

    Stage loops read the host through one adjacency that grows in place
    instead: grow(s) extends `adjacency` (vertex -> set of neighbours) to the
    graph of stage s, unless it already holds a later stage; added(s0, s1)
    lists what first arrived at positions s0 <= p < s1, and neighbors(v, s)
    gives v's neighbours in the graph of any stage up to the furthest grown.
    graph(s) builds none of this.
    """

    _SLICE = 4096   # positions evaluated and decoded at a time

    def __init__(self, name):
        if name.space not in ("Gr", "EGr"):
            raise BadParam("truncate expects a graph name")
        self.name = name
        self._top = zero_from(name.stream)   # None, or only padding from it
        self._read = 0     # positions evaluated so far
        self._pos = []     # positions that carry a vertex or an edge
        self._pairs = []   # what each of them carries, as (i, j)
        self._count = -1   # how many of them the last graph holds
        self._graph = None
        self._grown = 0        # how many of the pairs `adjacency` holds
        self.adjacency = {}
        self._born = {}        # vertex -> position where it arrived
        self._arrivals = {}    # vertex -> [(position, neighbour)], in order
        self._log = []         # first arrivals (position, i, j); i == j: vertex

    def _read_to(self, s):
        """Decode up to s by bounded slices; a raising slice commits nothing."""
        if self._top is not None and s > self._top:   # not min(): per stage
            s = self._top
        gr = self.name.space == "Gr"
        while self._read < s:
            lo = self._read
            hi = lo + self._SLICE if s - lo > self._SLICE else s
            vals = self.name.stream.values(lo, hi)
            pos, pairs = [], []
            # loops, not comprehensions: most stages read one position
            if gr:   # a 1 at n carries the code n: unpair(n), inlined
                for n, v in enumerate(vals, lo):
                    if v == 1:
                        d = (isqrt(8 * n + 1) - 1) // 2
                        j = n - d * (d + 1) // 2
                        pos.append(n)
                        pairs.append((d - j, j))
            else:   # v > 0 carries the code v - 1: unpair(v - 1), inlined
                for n, v in enumerate(vals, lo):
                    if v:
                        d = (isqrt(8 * v - 7) - 1) // 2
                        j = v - 1 - d * (d + 1) // 2
                        pos.append(n)
                        pairs.append((d - j, j))
            self._pos += pos
            self._pairs += pairs
            self._read = hi

    def graph(self, s):
        if s < 0:
            raise BadParam("fuel must be >= 0, got %r" % (s,))
        if s > self._read:
            self._read_to(s)
        count = bisect_left(self._pos, s)
        if count != self._count:
            self._count = count
            self._graph = _window(self._pairs[:count])
        return self._graph

    def grow(self, s):
        """Extend `adjacency` by the positions below s not yet in it."""
        if s < 0:
            raise BadParam("fuel must be >= 0, got %r" % (s,))
        if s > self._read:
            self._read_to(s)
        end = bisect_left(self._pos, s)
        adj, arrivals, log = self.adjacency, self._arrivals, self._log
        for k in range(self._grown, end):
            p = self._pos[k]
            i, j = self._pairs[k]
            for v in (i, j):
                if v not in adj:
                    adj[v] = set()
                    arrivals[v] = []
                    self._born[v] = p
                    log.append((p, v, v))
            if i != j and j not in adj[i]:
                adj[i].add(j)
                adj[j].add(i)
                arrivals[i].append((p, j))
                arrivals[j].append((p, i))
                log.append((p, i, j))
        if end > self._grown:
            self._grown = end

    def added(self, s0, s1):
        """(vertices, edges) of the graph of stage s1 that the graph of
        stage s0 lacks, in order of arrival; grows to s1."""
        self.grow(s1)
        log = self._log
        new = log[bisect_left(log, (s0,)):bisect_left(log, (s1,))]
        return ([i for _, i, j in new if i == j],
                [(i, j) for _, i, j in new if i != j])

    def neighbors(self, v, s):
        """v's neighbours in the graph of stage s, in order of arrival, or
        None when v is not a vertex of it; grows to s."""
        self.grow(s)
        born = self._born.get(v)
        if born is None or born >= s:
            return None
        arr = self._arrivals[v]
        return [w for _, w in arr[:bisect_left(arr, (s,))]]


def truncate(name, fuel):
    """Finite graph decided by the first `fuel` positions of the name."""
    return HostView(name).graph(fuel)


def gr_window(name, top):
    """Finite graph on the vertices below `top` of a Gr name: the vertex
    bits pair(v, v) for v < top, then the edge bits among those vertices."""
    if name.space != "Gr":
        raise BadParam("gr_window expects a Gr name")
    bit = name.stream.eval
    vs = [v for v in range(top) if bit(pair(v, v)) == 1]
    return FinGraph(vs, [(a, b) for a, b in combinations(vs, 2)
                         if bit(pair(a, b)) == 1])


# ---------------------------------------------------------------------------
# Gr -> EGr (easy direction)
# ---------------------------------------------------------------------------

def _egr_stages(bit_at):
    """Synchronous transducer: stage c reads input code c and emits one
    queued code, padding when none is queued. A code whose bit raises is
    read again at the next call."""
    emitted, queue = set(), deque()
    c = 0

    def stage():
        nonlocal c
        if bit_at(c) == 1:
            i, j = unpair(c)
            # both vertices, then the edge; all three are c when i == j
            for code in (pair(i, i), pair(j, j),
                         pair(min(i, j), max(i, j))):
                if code not in emitted:
                    emitted.add(code)
                    queue.append(code)
        c += 1
        return [queue.popleft() + 1] if queue else []

    return Staged(stage)


def gr_to_egr(name):
    if name.space != "Gr":
        raise BadParam("gr_to_egr expects a Gr name")
    s = name.stream
    meta = dict(name.meta)
    stream = _egr_stages(s.eval)
    top = zero_from(s)
    if top is not None:
        out = stream.prefix(top)
        while out and out[-1] == 0:
            out.pop()
        return SpaceName("EGr", EventuallyConstant(out, 0), meta=meta)
    return SpaceName("EGr", stream, meta=meta)


# ---------------------------------------------------------------------------
# EGr -> Gr: the injury construction
# ---------------------------------------------------------------------------

class IotaTrace:
    """Record of the injury construction: the stage maps' limit, first
    emission stages, the injury log (stage, source vertex, old code,
    new code), and the output positions set to 1 so far. Every other
    position pair(i, j) with max(i, j) < stages_run is 0."""

    def __init__(self):
        self.iota = {}
        self.first_emission = {}
        self.injuries = []
        self.stages_run = 0
        self.ones = set()

    def injury_count(self, v):
        return sum(1 for (_, u, _, _) in self.injuries if u == v)

    def abandoned(self):
        """(old code, stage) pairs for codes left behind by an injury."""
        return [(old, s) for (s, _, old, _) in self.injuries]

    def image(self):
        return sorted(self.iota.values())


class _FConvert:
    """Stage s reads emission s. Position pair(i, j) is frozen once stage
    max(i, j) has finished: it stays 0 unless it was set to 1 by then, and
    a 1 is only ever written at a position that is not yet frozen."""

    def __init__(self, stream):
        self.stream = stream
        self.trace = IotaTrace()
        self.ones = self.trace.ones
        self.used = set()      # the codes in iota's image
        self.partners = {}     # source vertex -> its emitted neighbours
        self.stage = 0

    def _fresh(self):
        m = self.stage + 1
        while m in self.used:
            m += 1
        return m

    def _assign(self, u, m):
        """Move source vertex u to the new vertex code m."""
        self.used.discard(self.trace.iota.get(u))
        self.used.add(m)
        self.trace.iota[u] = m
        self.ones.add(pair(m, m))

    def _add_vertex(self, u):
        if u in self.trace.iota:
            return
        self._assign(u, self._fresh())
        self.trace.first_emission.setdefault(u, self.stage)

    def run_stage(self):
        s = self.stage
        v = self.stream.eval(s)
        if v != 0:
            u, w = unpair(v - 1)
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
        self.stage += 1

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
        while self.stage < stages:
            self.run_stage()
        self.trace.stages_run = self.stage

    def bit(self, n):
        i, j = unpair(n)
        self.run_until(max(i, j) + 1)
        return 1 if n in self.ones else 0


def f_convert(name):
    """Convert an enumeration name to a characteristic name.

    Returns (Gr SpaceName, IotaTrace). The trace's limit map picks out the
    vertex codes whose restriction is isomorphic to the enumerated graph;
    codes abandoned by injuries keep whatever finite degree they had.
    """
    if name.space != "EGr":
        raise BadParam("f_convert expects an EGr name")
    conv = _FConvert(name.stream)
    top = zero_from(name.stream)
    if top is not None:
        # after the prefix only padding arrives: the construction stabilizes
        conv.run_until(top)
        out = SpaceName("Gr", Indicator(conv.ones),
                        meta={"trace": conv.trace})
        return out, conv.trace
    out = SpaceName("Gr", GeneratorBacked(conv.bit), meta={"trace": conv.trace})
    return out, conv.trace


# ---------------------------------------------------------------------------
# Prompt connectivity relabeling (PC)
# ---------------------------------------------------------------------------

class _PCBuilder:
    """Stage machine: consume the input graph's vertices in label order and
    assign consecutive output labels so every output prefix is connected.
    A vertex not adjacent to the labeled region is spliced in along a
    connecting path (labels assigned from the labeled end outward)."""

    def __init__(self, name, fuel):
        self.g = None
        self.name = name
        self.fuel = fuel
        self.labels = {}      # source vertex -> output label
        self.order = []       # output label -> source vertex
        self.finite_bound = zero_from(name.stream)  # codes from it on are 0
        self.next_source = 0

    def _has_vertex(self, v):
        return self.name.stream.eval(pair(v, v)) == 1

    def _has_edge(self, a, b):
        return a != b and self.name.stream.eval(pair(a, b)) == 1

    def _next_unlabeled_vertex(self):
        v = self.next_source
        steps = 0
        while True:
            if self.finite_bound is not None and pair(v, v) >= self.finite_bound:
                return None
            if self._has_vertex(v) and v not in self.labels:
                self.next_source = v + 1
                return v
            v += 1
            steps += 1
            if steps > self.fuel:
                raise FuelExhausted("no further vertex found")

    def _assign(self, v):
        self.labels[v] = len(self.order)
        self.order.append(v)

    def _finite_top(self):
        """Exclusive upper bound on vertex labels for certified-finite input."""
        v = 0
        while pair(v, v) < self.finite_bound:
            v += 1
        return v

    def _connect_path(self, v):
        """BFS from v to the labeled region within growing vertex windows.
        Returns the path with the labeled endpoint first and v last."""
        for top in range(v + 2, v + 2 + self.fuel):
            last_window = False
            if self.finite_bound is not None:
                cap = self._finite_top()
                if top >= cap:
                    top, last_window = cap, True
            prev = {v: None}
            queue = [v]
            while queue:
                x = queue.pop(0)
                for y in range(top):
                    if y in prev or not self._has_vertex(y):
                        continue
                    if not self._has_edge(x, y):
                        continue
                    prev[y] = x
                    if y in self.labels:
                        path = []
                        cur = y
                        while cur is not None:
                            path.append(cur)
                            cur = prev[cur]
                        return path
                    queue.append(y)
            if last_window:
                break
        raise FuelExhausted("input not connected within fuel")

    def advance_stage(self):
        """Label one more source vertex (or a whole splice path). Returns
        False when the (certified finite) input is exhausted."""
        v = self._next_unlabeled_vertex()
        if v is None:
            return False
        if not self.order:
            self._assign(v)
            return True
        if any(self._has_edge(v, u) for u in self.labels):
            self._assign(v)
            return True
        path = self._connect_path(v)
        for x in path[1:]:
            if x not in self.labels:
                self._assign(x)
        return True

    def ensure_labels(self, count):
        while len(self.order) < count:
            if not self.advance_stage():
                return False
        return True

    def bit(self, n):
        a, b = unpair(n)
        self.ensure_labels(max(a, b) + 1)
        if a >= len(self.order) or b >= len(self.order):
            return 0
        if a == b:
            return 1
        return 1 if self._has_edge(self.order[a], self.order[b]) else 0


def pc(name, fuel=10000):
    """Promptly-connected relabeling of a connected Gr name."""
    if name.space != "Gr":
        raise BadParam("pc expects a Gr name")
    builder = _PCBuilder(name, fuel)
    if builder.finite_bound is not None:
        while builder.advance_stage():
            pass
        n = len(builder.order)
        fin = FinGraph(range(n),
                       [(a, b) for a in range(n) for b in range(a + 1, n)
                        if builder._has_edge(builder.order[a], builder.order[b])])
        return name_of("Gr", fin)
    return SpaceName("Gr", GeneratorBacked(builder.bit),
                     meta={"builder": builder})
