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

The dense EGr name of an infinite graph is the one its own
CountableGraph.dense_step emits, one stage per vertex. read_pairs decodes
every slice of a Gr or EGr name that HostView, f_convert and acc_decode
read; the readers that decode apart each say why.
"""

import random
from bisect import bisect_left, insort
from collections import defaultdict, deque, namedtuple
from functools import cached_property
from itertools import chain, combinations
from math import isqrt

from .errors import BadParam
from .streams import (CertifiedStream, EventuallyConstant, Indicator,
                      StagedPairs, pair, unpair, zero_from)
from .graphs import OMEGA, FinGraph

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
    # decodes apart from read_pairs: it must see the values that one skips
    prefix = list(prefix)
    if space == "Gr":
        top, d, base = len(prefix), 0, 0   # n = pair(d - j, j) = base + j
        for n, v in enumerate(prefix):
            if v not in (0, 1):
                return Violation(n, "Gr values must be binary")
            if v != 1:
                continue
            while n - base > d:   # n lies on a later diagonal
                d, base = d + 1, base + d + 1
            i, j = d - n + base, n - base   # q: pair(j, i), (i, i), (j, j)
            for q in (n + i - j, 2 * i * (i + 1), 2 * j * (j + 1)):
                if q < top and prefix[q] != 1:
                    return Violation(n, "edge forces vertices and symmetry")
        return "ok"
    if space == "EGr":
        vertices = set()
        for n, v in enumerate(prefix):
            if v == 0:
                continue
            d = (isqrt(8 * v - 7) - 1) // 2   # (i, j) = unpair(v - 1), inlined
            j = v - 1 - d * (d + 1) // 2
            i = d - j
            if i == j:
                vertices.add(i)
            elif i not in vertices or j not in vertices:
                return Violation(n, "edge emitted before its vertices")
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

class _Member(dict):
    """Vertex -> whether it is one of g's, asking g once per vertex."""

    def __init__(self, g):
        self.g = g

    def __missing__(self, v):
        a = self[v] = bool(self.g.has_vertex(v))
        return a


class _GrName(CertifiedStream):
    """The Gr name of an infinite graph g: position pair(i, j) is 1 iff i
    and j are vertices and, for i != j, (i, j) is an edge. Each vertex is
    decided once, into a dict this name holds; has_edge is asked only when
    both ends are vertices. values(lo, hi) steps along the Cantor diagonals
    from lo and asks has_edge once per vertex pair: the bit at pair(i, j),
    j > i, is the one at its mirror pair(j, i), earlier on the same
    diagonal, wherever the slice holds it. No position is memoized."""

    def __init__(self, g):
        self.g = g
        self.member = _Member(g)

    def eval(self, n):
        member, d = self.member, (isqrt(8 * n + 1) - 1) // 2
        j = n - d * (d + 1) // 2   # n = pair(d - j, j)
        i = d - j
        return 1 if member[i] and (i == j or member[j]
                                   and self.g.has_edge(i, j)) else 0

    def values(self, lo, hi):
        member, has_edge = self.member, self.g.has_edge
        d = (isqrt(8 * lo + 1) - 1) // 2
        j = lo - d * (d + 1) // 2   # lo = pair(d - j, j)
        out = []
        for k in range(hi - lo):   # k = n - lo
            i = d - j
            if j > i and k >= j - i:   # pair(j, i) = n + i - j
                out.append(out[k + i - j])
            else:
                out.append(1 if member[i] and (i == j or member[j]
                                               and has_edge(i, j)) else 0)
            j += 1
            if j > d:
                d, j = d + 1, 0
        return out


def _dense_egr_name(g):
    """The dense EGr name of an infinite graph: g.dense_step()'s stages."""
    return SpaceName("EGr", StagedPairs(g.dense_step()), meta={"denotes": g})


def name_of(space, g, schedule=None):
    """The one name in Gr or EGr of an algebra graph.

    Gr: its characteristic bits. EGr: a finite graph emits its vertices in
    label order, then its edges in code order, or under schedule ('random',
    seed, stutter) a seeded shuffled order with stutter padding; an
    infinite graph gets the dense name, the stages of g.dense_step() (each
    vertex in iter_vertices order, then its edges to earlier vertices),
    and a schedule for it is refused.
    """
    if space not in ("Gr", "EGr"):
        raise BadParam("name_of supports Gr and EGr")
    if g.vertex_count() == OMEGA:
        if space == "Gr":
            return SpaceName("Gr", _GrName(g), meta={"denotes": g})
        if schedule is not None:
            raise BadParam("a schedule applies to finite graphs only")
        return _dense_egr_name(g)
    fin = g.materialize()
    if space == "Gr":
        ones = {pair(v, v) for v in fin.vertices}
        for a, b in fin.edges:
            ones.add(pair(a, b))
            ones.add(pair(b, a))
        return SpaceName("Gr", Indicator(ones), meta={"denotes": g})
    if schedule is None:   # already wire-shifted, as _random_schedule's
        order = [pair(v, v) + 1 for v in sorted(fin.vertices)]
        order += sorted(pair(a, b) + 1 for a, b in fin.edges)
    elif schedule[0] == "random":
        order = _random_schedule(fin, *schedule[1:])
    else:
        raise BadParam("unknown schedule %r" % (schedule,))
    return SpaceName("EGr", EventuallyConstant(order, 0), meta={"denotes": g})


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


# ---------------------------------------------------------------------------
# Reading a name: prefixes (HostView, truncate) and vertex windows
# ---------------------------------------------------------------------------

def read_pairs(space, stream, lo, hi):
    """The positions lo <= n < hi of a Gr or EGr stream that carry a vertex
    or an edge, and what each carries as (i, j) (i == j: the vertex i), in
    one read of the stream's own pairs where it has them, else its values."""
    pairs_of = getattr(stream, "pairs", None)
    if pairs_of is not None:   # padding (None) carries nothing
        pairs = pairs_of(lo, hi)
        if all(pairs):   # a pair is a nonempty tuple, padding None
            return range(lo, hi), pairs
        return ([n for n, p in enumerate(pairs, lo) if p is not None],
                [p for p in pairs if p is not None])
    pos, pairs = [], []
    # loops, not comprehensions: most stages read one position
    if space == "Gr":   # a 1 at n = pair(d - j, j): walk the diagonals
        d = (isqrt(8 * lo + 1) - 1) // 2
        base = d * (d + 1) // 2   # pair(d, 0)
        for n, v in enumerate(stream.values(lo, hi), lo):
            if v == 1:
                while n - base > d:   # n lies on a later diagonal
                    d, base = d + 1, base + d + 1
                pos.append(n)
                pairs.append((d - n + base, n - base))
    else:   # v > 0 carries the code v - 1: unpair(v - 1), inlined
        for n, v in enumerate(stream.values(lo, hi), lo):
            if v:
                d = (isqrt(8 * v - 7) - 1) // 2
                j = v - 1 - d * (d + 1) // 2
                pos.append(n)
                pairs.append((d - j, j))
    return pos, pairs


class _Window(FinGraph):
    """The FinGraph of the (i, j) pairs (i == j: a vertex), unchecked, that
    builds each of its views from them when, and only when, it is read."""

    def __init__(self, pairs):
        self._pairs = pairs

    @cached_property
    def vertices(self):
        return frozenset(chain.from_iterable(self._pairs))

    @cached_property
    def edges(self):
        return frozenset([(i, j) if i < j else (j, i)
                          for i, j in self._pairs if i != j])

    @cached_property
    def adjacency(self):   # a Gr edge may come before its ends' own bits
        adj = defaultdict(set)
        for i, j in self._pairs:
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
            elif i not in adj:
                adj[i] = set()
        return dict(adj)


class HostView:
    """Reader of a Gr or EGr name that reads each position only once, a
    slice at a time through read_pairs.

    graph(s) is the finite graph that the first s positions decide, for any
    s >= 0 and in any order; it never reads position s or beyond. While only
    padding has arrived since the previous call, it returns the same object.

    Stage loops read the host through one adjacency that grows in place
    instead: grow(s) extends `adjacency` (vertex -> set of neighbours) to the
    graph of stage s, unless it already stands at s or later; added(s0, s1)
    lists what first arrived at positions s0 <= p < s1, and neighbors(v, s)
    gives v's neighbours in the graph of any stage up to the furthest grown.
    graph(s) builds none of this. A step added(s, s1) from the stage s where
    the view stands costs one stream read and the updates of what arrived.
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
        self._stood = 0        # the stage `adjacency` holds
        self._grown = 0        # how many of the pairs it holds
        self.adjacency = {}
        self._born = {}        # vertex -> position where it arrived
        self._arrivals = {}    # vertex -> [(position, neighbour)], in order
        self._log = []         # first arrivals (position, i, j); i == j: vertex

    def _read_to(self, s):
        """Read up to s by bounded slices of read_pairs; a raising slice
        commits nothing."""
        if self._top is not None and s > self._top:   # not min(): per stage
            s = self._top
        space, stream = self.name.space, self.name.stream
        while self._read < s:
            lo = self._read
            hi = lo + self._SLICE if s - lo > self._SLICE else s
            pos, pairs = read_pairs(space, stream, lo, hi)
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
            self._graph = _Window(self._pairs[:count])
        return self._graph

    def grow(self, s):
        """Extend `adjacency` by the positions below s not yet in it. A step
        of up to one slice past what is read costs one read_pairs call,
        made here to save a call per stage (longer reads, and reads that
        meet zero_from, go through _read_to), then one dict lookup per end
        of each new (i, j)."""
        if s <= self._stood:
            if s < 0:
                raise BadParam("fuel must be >= 0, got %r" % (s,))
            return
        k, lo = self._grown, self._read
        if s > lo:
            if self._top is None and s - lo <= self._SLICE:
                pos, pairs = read_pairs(self.name.space, self.name.stream,
                                        lo, s)
                self._pos += pos
                self._pairs += pairs
                self._read = s
            else:
                self._read_to(s)
        pos, pairs = self._pos, self._pairs
        # graph(s) may have read past s: only then search for where s ends
        end = len(pos) if s >= self._read else bisect_left(pos, s, k)
        adj, arrivals, born, log = (self.adjacency, self._arrivals,
                                    self._born, self._log)
        vs, es = self._new = [], []   # what this growth adds, for added()
        for k in range(k, end):
            p = pos[k]
            i, j = pairs[k]
            a = adj.get(i)
            if a is None:
                adj[i] = a = set()
                arrivals[i] = []
                born[i] = p
                log.append((p, i, i))
                vs.append(i)
            if i == j:
                continue
            b = adj.get(j)
            if b is None:
                adj[j] = b = set()
                arrivals[j] = []
                born[j] = p
                log.append((p, j, j))
                vs.append(j)
            if j not in a:
                a.add(j)
                b.add(i)
                arrivals[i].append((p, j))
                arrivals[j].append((p, i))
                log.append((p, i, j))
                es.append((i, j))
        self._grown, self._stood = end, s

    def added(self, s0, s1):
        """(vertices, edges) of the graph of stage s1 that the graph of
        stage s0 lacks, in order of arrival; grows to s1. From the stage
        where the view stands, these are what that growth folds in."""
        if s0 == self._stood and s1 > s0:
            self.grow(s1)
            return self._new
        self.grow(s1)
        log = self._log
        new = log[bisect_left(log, (s0,)):bisect_left(log, (s1,))]
        return ([i for _, i, j in new if i == j],
                [(i, j) for _, i, j in new if i != j])

    def arrival(self, v):
        """Where v arrived, or None while the growth has not reached it."""
        return self._born.get(v)

    def neighbors(self, v, s):
        """v's neighbours in the graph of stage s, in order of arrival, or
        None when v is not a vertex of it; grows to s."""
        self.grow(s)
        born = self._born.get(v)
        if born is None or born >= s:
            return None
        return [w for p, w in self._arrivals[v] if p < s]


def truncate(name, fuel):
    """Finite graph decided by the first `fuel` positions of the name."""
    return HostView(name).graph(fuel)


def gr_window(name, top):
    """Finite graph on the vertices below `top` of a Gr name: the vertex
    bits pair(v, v) for v < top, then the edge bits among those vertices."""
    if name.space != "Gr":
        raise BadParam("gr_window expects a Gr name")
    # reads apart from read_pairs: sparse vertex-window bits, not a slice
    bit = name.stream.eval
    vs = [v for v in range(top) if bit(pair(v, v)) == 1]
    return FinGraph(vs, [(a, b) for a, b in combinations(vs, 2)
                         if bit(pair(a, b)) == 1])


# ---------------------------------------------------------------------------
# Gr -> EGr (easy direction)
# ---------------------------------------------------------------------------

class _GrToEgr(StagedPairs):
    """Synchronous transducer from a Gr stream: stage c reads input code c
    and emits one queued pair, padding when none is queued. pairs(lo, hi)
    runs every stage below hi in one loop over one read of their codes, so
    it reads no code past hi, and a read that raises runs no stage."""

    def __init__(self, src):
        super().__init__(None)
        self.src = src
        self._emitted, self._queue = set(), deque()   # codes queued, pairs

    def pairs(self, lo, hi):
        # decodes apart from read_pairs: one output per input code, fused
        out = self._pairs
        c = len(out)
        if c < hi:
            emitted, queue = self._emitted, self._queue
            d = (isqrt(8 * c + 1) - 1) // 2
            base = d * (d + 1) // 2   # c = pair(d - j, j) = base + j
            for bit in self.src.values(c, hi):
                # an emitted code's vertices and edge are all queued already
                if bit == 1 and c not in emitted:
                    while c - base > d:   # c lies on a later diagonal
                        d, base = d + 1, base + d + 1
                    i, j = d - c + base, c - base
                    edge = c   # pair(min, max): c + i - j when i > j
                    if i > j:
                        i, j, edge = j, i, c + i - j
                    for v in (i, j):   # pair(v, v) = 2v(v + 1)
                        code = 2 * v * (v + 1)
                        if code not in emitted:
                            emitted.add(code)
                            queue.append((v, v))
                    if edge not in emitted:
                        emitted.add(edge)
                        queue.append((i, j))
                out.append(queue.popleft() if queue else None)
                c += 1
        return out[lo:hi]


def gr_to_egr(name):
    if name.space != "Gr":
        raise BadParam("gr_to_egr expects a Gr name")
    meta = dict(name.meta)
    stream = _GrToEgr(name.stream)
    top = zero_from(name.stream)
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


class _FConvert(CertifiedStream):
    """f_convert's Gr stream, as the construction: stage s reads emission s.
    Position pair(i, j) is frozen once stage max(i, j) has finished: it
    stays 0 unless set to 1 by then; a 1 is only written where not frozen."""

    def __init__(self, stream):
        self.stream = stream
        self.trace = IotaTrace()
        self.ones = self.trace.ones
        self.used = set()      # the codes in iota's image
        self.partners = {}     # source vertex -> its emitted neighbours
        self.stage = 0

    def run_until(self, stages):
        """Run the stages below `stages` on their emissions, read in one
        call; a read that raises runs none of them. Stage s on (u, w) gives
        each new vertex the least free code above s; an edge whose bit is
        frozen at 0 injures its later-emitted end, which moves to a fresh
        code with all its edges. Padding changes nothing."""
        if self.stage < stages:
            pos, pairs = read_pairs("EGr", self.stream, self.stage, stages)
            trace, ones, used = self.trace, self.ones, self.used
            iota, first, partners = (trace.iota, trace.first_emission,
                                     self.partners)
            for s, (u, w) in zip(pos, pairs):
                for v in (u, w):   # u == w: the vertex u, once
                    if v not in iota:
                        m = s + 1
                        while m in used:
                            m += 1
                        used.add(m)
                        iota[v], first[v] = m, s
                        ones.add(2 * m * (m + 1))   # pair(m, m)
                if u == w:
                    continue
                partners.setdefault(u, []).append(w)
                partners.setdefault(w, []).append(u)
                a, b = iota[u], iota[w]
                t = (a + b) * (a + b + 1) // 2   # pair(a, b) = t + b
                if a < s and b < s and t + b not in ones:
                    victim = w if first[u] < first[w] else u
                    old = iota[victim]
                    m = s + 1
                    while m in used:
                        m += 1
                    used.discard(old)
                    used.add(m)
                    iota[victim] = m
                    ones.add(2 * m * (m + 1))
                    trace.injuries.append((s, victim, old, m))
                    for other in partners[victim]:
                        c = iota[other]
                        t = (m + c) * (m + c + 1) // 2
                        ones.add(t + c)
                        ones.add(t + m)
                else:
                    ones.add(t + b)
                    ones.add(t + a)
            self.stage = stages
        self.trace.stages_run = self.stage

    def values(self, lo, hi):
        """Run the stages the slice needs in one run_until, then read it: the
        largest max(i, j) is max(i_lo, j_hi) on one diagonal, else d_hi."""
        if hi <= lo:
            return []
        i, j = unpair(lo)
        a, k = unpair(hi - 1)
        self.run_until(1 + (max(i, k) if i + j == a + k else a + k))
        ones = self.ones
        return [1 if n in ones else 0 for n in range(lo, hi)]


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
    out = SpaceName("Gr", conv, meta={"trace": conv.trace})
    return out, conv.trace
