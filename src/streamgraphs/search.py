"""Search solvers: given a host promised to contain a pattern, produce a
concrete copy (vertex/edge emissions plus the inclusion map), following the
constructive strategy appropriate to each pattern shape."""

import functools
import itertools
from bisect import bisect_left, insort

from .decide import Plan, embeddings, least_new_embedding, predicate_tf
from .errors import (BadParam, DegreeUnknown, FuelExhausted,
                     NoInfiniteDegreeVertex, OracleRefused, PatternNeverSeen,
                     PredicateUnsupported)
from .graphs import OMEGA, FinGraph
from .spaces import HostView, SpaceName, gr_window, name_of
from .streams import GeneratorBacked, StagedPairs, pair, unpair


class SolutionStream:
    """A copy of the pattern inside the host: the copy's name plus the
    inclusion map pattern-vertex -> host-vertex (finite dict, or a callable
    for infinite patterns)."""

    def __init__(self, name, inclusion):
        self.name = name
        self.inclusion = inclusion

    def inclusion_pairs(self):
        if callable(self.inclusion):
            raise BadParam("infinite inclusion map; query it directly")
        return sorted(self.inclusion.items())


def find_s_finite(g, host, fuel=None):
    """Stage-search the host prefixes for the first subgraph embedding of
    the finite pattern g, then freeze it: the least embedding of the first
    stage that holds one. Every embedding of that stage is new there, so
    each stage searches only the embeddings that use what it added.

    g has no copy while one of its components has none, so for a
    disconnected g a stage answers None without a joint search until each
    component has shown a copy, found by the same search on the component.
    At the first stage where every one has, g had no copy the stage before,
    so the joint search of what that stage added misses none of g's."""
    view = HostView(host)
    plan = Plan(g)
    parts = g.components()
    waiting = [Plan(g.induced(c)) for c in parts] if len(parts) > 1 else []
    s, hit = 0, None
    while hit is None:
        s += 1
        if fuel is not None and s > fuel:
            raise FuelExhausted("no copy found", spent=fuel)
        vs, es = view.added(s - 1, s)
        if waiting:
            waiting = [p for p in waiting
                       if least_new_embedding(p, view, vs, es) is None]
        if not waiting:
            hit = least_new_embedding(plan, view, vs, es) if parts else {}
    return SolutionStream(name_of("Gr", g.relabel(hit)), hit)


# ---------------------------------------------------------------------------
# Induced finite patterns via closed choice over N
# ---------------------------------------------------------------------------

def find_is_via_cn(g, host, cn_oracle, stage_cap=40):
    """Induced copy of a finite non-complete pattern via a closed-choice
    oracle over N.

    This realizes the paper's reduction of finding an induced copy of a
    finite non-complete pattern G (given a host promised to contain one) to
    closed choice on N, C_N: the one question a finite search cannot
    settle, whether a copy stays induced forever, is left to the oracle.

    Candidate codes are pair(s, k): the k-th induced embedding of g into the
    host truncation at stage s. A code is rejected (co-enumerated) as soon
    as a later emission breaks induced-ness; the oracle picks a never-
    rejected code, which decodes to a stable copy.
    """
    n = len(g.vertices)
    if len(g.edges) == n * (n - 1) // 2:
        raise BadParam("use find_s_finite for complete patterns")
    view = HostView(host)
    pairs = list(itertools.combinations(sorted(g.vertices), 2))

    @functools.lru_cache(maxsize=None)
    def decode(code):
        s, idx = unpair(code)
        embs = embeddings(g, view.graph(s), induced=True)
        return next(itertools.islice(embs, idx, None), None)

    @functools.lru_cache(maxsize=None)
    def rejected(code, at_stage):
        s, _ = unpair(code)
        if at_stage <= s:
            return False
        m = decode(code)
        if m is None:
            return True
        later = {v: view.neighbors(u, at_stage) for v, u in m.items()}
        return not all(g.has_edge(a, b) == (m[b] in later[a])
                       for a, b in pairs)

    def co_enum(t):
        """Codes newly seen to be rejected at step t; a code enters the
        checked window once t reaches it."""
        return [c for c in range(t + 1)
                if rejected(c, t) and not (c < t and rejected(c, t - 1))]

    code = cn_oracle(co_enum, stage_cap)
    m = decode(code)
    if m is None or rejected(code, stage_cap):
        raise OracleRefused("oracle picked a rejected code %r" % code)
    return SolutionStream(name_of("Gr", g.relabel(m)), dict(m))


def cn_by_stabilization(co_enum, stage_cap):
    """Reference closed-choice oracle: run the co-enumeration for the whole
    fuel window and answer the least never-rejected code."""
    out = set()
    for t in range(stage_cap):
        out.update(co_enum(t))
    for c in range(stage_cap):
        if c not in out:
            return c
    raise OracleRefused("every code in the window was rejected")


# ---------------------------------------------------------------------------
# Patterns that are disjoint unions of finite components
# ---------------------------------------------------------------------------

class _ComponentsMachine:
    """Two interleaved procedures: claim all exceptional components at once
    when they fit disjointly; greedily claim fresh copies of each recurring
    component, never reusing host vertices. Each claim is the least copy in
    the unclaimed part of the host prefix."""

    def __init__(self, exceptional, recurring, host):
        self.exceptional = list(exceptional)
        self.recurring = list(recurring)
        self.view = HostView(host)
        self.used = set()
        self.unclaimed = []   # the view's vertices outside `used`, sorted
        self.fuel = 0
        self.exceptional_done = not self.exceptional
        self.next_recurring = 0
        self.claimed = []  # (component FinGraph, mapping)
        # all exceptional parts must fit disjointly in one shot
        self.big = FinGraph(
            [pair(i, v) for i, part in enumerate(self.exceptional)
             for v in part.vertices],
            [(pair(i, a), pair(i, b))
             for i, part in enumerate(self.exceptional)
             for a, b in part.edges])
        self.plans = {comp: Plan(comp) for comp in [self.big] + self.recurring}
        # pattern -> a stage whose unclaimed part held no copy of it
        self.empty_at = {}

    def _claim(self, comp, mapping):
        """Claim the copy; returns its pairs."""
        self.claimed.append((comp, dict(mapping)))
        self.used.update(mapping.values())
        unclaimed = self.unclaimed
        for v in mapping.values():
            del unclaimed[bisect_left(unclaimed, v)]
        out = [(v, v) for v in sorted(mapping.values())]
        for a, b in sorted(comp.edges):
            x, y = mapping[a], mapping[b]
            out.append((min(x, y), max(x, y)))
        return out

    def _least_copy(self, comp):
        """Least copy of comp in the unclaimed part of the current prefix.
        Claims only remove vertices, so a copy that was already there at a
        stage that held none is impossible: after such a stage, only copies
        that use what arrived since are searched."""
        since, plan = self.empty_at.pop(comp, None), self.plans[comp]
        if since is None:
            emb = plan.first(self.view.adjacency, exclude=self.used,
                             hosts=self.unclaimed)
        else:
            vs, es = self.view.added(since, self.fuel)
            emb = least_new_embedding(plan, self.view, vs, es, self.used)
        if emb is None:
            self.empty_at[comp] = self.fuel
        return emb

    def step(self):
        """Read 10 more positions; returns the pairs of what they let the
        machine claim (none while waiting). The host is read first, so a
        read that raises leaves the machine as it was."""
        for v in self.view.added(self.fuel, self.fuel + 10)[0]:
            insort(self.unclaimed, v)
        self.fuel += 10
        if not self.exceptional_done:
            emb = self._least_copy(self.big)
            if emb is None:
                return []
            self.exceptional_done = True
            out = []
            for i, part in enumerate(self.exceptional):
                out += self._claim(part, {v: emb[pair(i, v)]
                                          for v in part.vertices})
            return out
        if not self.recurring:
            return []
        comp = self.recurring[self.next_recurring % len(self.recurring)]
        emb = self._least_copy(comp)
        if emb is None:
            return []
        self.next_recurring += 1
        return self._claim(comp, emb)


def find_s_components(parts, host):
    """Solver for patterns that are countable unions of finite components.

    `parts` is a list of (FinGraph, multiplicity) with multiplicity a natural
    number (exceptional components, claimed first) or OMEGA (recurring
    components, claimed round-robin forever)."""
    exceptional = []
    recurring = []
    for comp, mult in parts:
        if mult == OMEGA:
            recurring.append(comp)
        else:
            exceptional.extend([comp] * mult)
    machine = _ComponentsMachine(exceptional, recurring, host)
    name = SpaceName("EGr", StagedPairs(machine.step),
                     meta={"components": machine})
    return SolutionStream(name, lambda v: v)


# ---------------------------------------------------------------------------
# Ray followers
# ---------------------------------------------------------------------------

def _wait_for(predicate, fuel, after=0):
    """The first answer of predicate(s) at s = 1, 2, 4, ... below fuel, then
    at fuel, skipping the s up to `after`, which are known to miss."""
    s = 1 << after.bit_length()
    while True:
        got = predicate(min(s, fuel))
        if got is not None:
            return got
        if s >= fuel:
            raise PatternNeverSeen("no witness within fuel %d" % fuel)
        s *= 2


def _extend_walk(neighbors, arrival, walk, banned, fuel, steps):
    """Extend the walk to `steps` vertices, each the least neighbour of the
    tip not on the walk nor banned, waiting on the growing finite windows of
    the host: neighbors(v, s) lists v's neighbours in the window at s, or
    is None when v is not in it, as at s <= arrival(v) (None: unknown).
    One `seen` set serves the whole walk."""
    seen = set(walk) | set(banned)
    while len(walk) < steps:
        tip = walk[-1]

        def probe(s):
            cands = [w for w in neighbors(tip, s) or () if w not in seen]
            return min(cands) if cands else None

        w = _wait_for(probe, fuel, arrival(tip) or 0)
        walk.append(w)
        seen.add(w)
    return walk


def ray_follow(kind, host, fuel=2000, steps=10):
    """Follow a ray inside a host of the stated shape, returning the list of
    visited vertices (pairwise-distinct, consecutively adjacent).

    kind: "TwoWayRay" | ("CycleTailRay", n) | ("CompleteTailRay", m) |
    "FullBinaryTree".

    The start waits on the prefixes of the probe schedule of `_wait_for`.
    A vertex probe looks only at what arrived since the previous one. A
    pendant probe runs one search of its whole prefix: every earlier probe
    found no copy, so the least copy there is the least new one.
    """
    view = HostView(host)
    banned = ()
    if kind == "TwoWayRay" or kind == "FullBinaryTree":
        least, probed = None, 0

        def first_vertex(s):
            nonlocal least, probed
            vs, _ = view.added(probed, s)
            probed = s
            if vs:
                least = min(vs) if least is None else min(least, *vs)
            return least

        start = _wait_for(first_vertex, fuel)
    elif isinstance(kind, tuple) and kind[0] in ("CycleTailRay",
                                                 "CompleteTailRay"):
        shape, size = kind
        if shape == "CycleTailRay":
            core = FinGraph(range(size),
                            [(i, (i + 1) % size) for i in range(size)])
        else:
            core = FinGraph(range(size),
                            [(a, b) for a in range(size)
                             for b in range(a + 1, size)])
        pend = Plan(FinGraph(range(size + 1), list(core.edges) + [(0, size)]))

        def find_pendant(s):
            view.grow(s)
            return pend.first(view.adjacency)

        mapping = _wait_for(find_pendant, fuel)
        start = mapping[size]
        banned = [mapping[i] for i in range(size)]
    else:
        raise BadParam("unknown follower kind %r" % (kind,))
    return _extend_walk(view.neighbors, view.arrival, [start], banned, fuel,
                        steps)


def emb_ray_r(host, lim_oracle, fuel=2000, steps=10):
    """Embed into a host isomorphic to the one-way ray: probe which side of
    the first discovered edge is the infinite one (a convergent bit stream,
    answered by the oracle), then walk that way. An EGr host is read by
    prefixes, a Gr host by vertex windows, each built once per call."""
    if host.space == "EGr":
        view = HostView(host)
        window, neighbors, arrival = view.graph, view.neighbors, view.arrival
    else:
        if not isinstance(host.stream, GeneratorBacked):   # windows re-read
            host = SpaceName("Gr", GeneratorBacked(host.stream.eval))
        window = functools.lru_cache(None)(functools.partial(gr_window, host))

        def neighbors(v, s):
            fin = window(s)
            return fin.neighbors(v) if v in fin.vertices else None

        arrival = {}.get   # a vertex window's size is no stream position

    def first_edge(s):
        return min(window(s).edges, default=None)

    v, w = _wait_for(first_edge, fuel)

    def q_bit(t):
        fin = window(max(t, 4))
        if v not in fin.vertices or w not in fin.vertices:
            return 0
        side_w = fin.induced(set(fin.vertices) - {v}).component_of(w)
        side_v = fin.induced(set(fin.vertices) - {w}).component_of(v)
        return 1 if len(side_w) >= len(side_v) else 0

    choice = lim_oracle(GeneratorBacked(q_bit))
    walk = [w, v] if choice == 0 else [v, w]
    return _extend_walk(neighbors, arrival, walk, (), fuel, steps)


# ---------------------------------------------------------------------------
# Connected restriction
# ---------------------------------------------------------------------------

class _ConnectedRestriction:
    """Every 5 positions, emit the vertices that joined the component of v,
    sorted, then the component's edges not emitted yet, sorted. Edges only
    arrive, so the component only grows: through the new edges at it."""

    def __init__(self, host, v):
        self.view = HostView(host)
        self.v = v
        self.fuel = 0
        self.comp = set()

    def step(self):
        """Read 5 more positions; returns the pairs they cause. The host is
        read first, so a read that raises leaves the machine as it was."""
        _, edges = self.view.added(self.fuel, self.fuel + 5)
        self.fuel += 5
        adj, comp = self.view.adjacency, self.comp
        if self.v not in adj:
            return []
        todo = [self.v] if not comp else [
            y for a, b in edges for x, y in ((a, b), (b, a)) if x in comp]
        joined = []
        while todo:
            u = todo.pop()
            if u not in comp:
                comp.add(u)
                joined.append(u)
                todo.extend(adj[u])
        new = {(min(x, y), max(x, y)) for x in joined for y in adj[x]}
        new.update((min(a, b), max(a, b)) for a, b in edges
                   if a in comp and b in comp)
        return [(u, u) for u in sorted(joined)] + sorted(new)


def restrict_to_connected(host, v):
    """EGr name enumerating exactly the connected component of v, each new
    vertex emitted together with a witnessing path."""
    return SpaceName("EGr", StagedPairs(_ConnectedRestriction(host, v).step))


# ---------------------------------------------------------------------------
# Infinite-star and forest patterns
# ---------------------------------------------------------------------------

def find_t3(h, scan=1000):
    """Copy of the infinite star: the least infinite-degree vertex plus its
    neighbor star."""
    count = h.vertex_count()
    center = None
    for i, v in enumerate(h.iter_vertices()):
        if count == OMEGA and i >= scan:
            break
        try:
            if h.degree(v) == OMEGA:
                center = v
                break
        except DegreeUnknown:
            raise PredicateUnsupported("need exact degrees")
    if center is None:
        raise NoInfiniteDegreeVertex("no vertex of infinite degree found")

    vertices = h.iter_vertices()
    u = -1   # the vertex the next stage asks about, once drawn; -1: the center

    def stage():
        """The center, then one neighbour and its edge per stage. A stage
        that raises keeps its vertex, so the next read asks about it again."""
        nonlocal u
        if u == -1:
            u = None
            return [(center, center)]
        while True:
            u = next(vertices) if u is None else u
            if u != center and h.has_edge(center, u):
                w, u = u, None
                return [(w, w), (min(center, w), max(center, w))]
            u = None

    name = SpaceName("EGr", StagedPairs(stage))
    return SolutionStream(name, {"center": center})


class _F2k2Machine:
    """Greedy copy of F_{2k+2} (omega copies of the height-k chain tree with
    omega branching): each round claims one fresh copy root and grows every
    open internal node of every copy by one child."""

    def __init__(self, h, k, scan):
        self.h = h
        self.k = k
        self.scan = scan
        self.used = set()
        self.pending = []     # pairs of the round under way
        self.nodes = []       # (vertex, depth) in claim order
        self.vertex_iter = h.iter_vertices()
        self.scanned = []

    def _degree_ok(self, v, depth):
        """Internal nodes (depth < k) need infinite degree."""
        if depth >= self.k:
            return True
        try:
            return self.h.degree(v) == OMEGA
        except DegreeUnknown:
            raise PredicateUnsupported("need exact degrees")

    def _scan_vertex(self, idx):
        while len(self.scanned) <= idx:
            if len(self.scanned) >= self.scan:
                raise PatternNeverSeen("vertex scan exhausted")
            self.scanned.append(next(self.vertex_iter))
        return self.scanned[idx]

    def _claim(self, v, depth, parent):
        self.used.add(v)
        self.nodes.append((v, depth))
        self.pending.append((v, v))
        if parent is not None:
            self.pending.append((min(parent, v), max(parent, v)))

    def _fresh_root(self):
        idx = 0
        while True:
            v = self._scan_vertex(idx)
            if v not in self.used and self._degree_ok(v, 0):
                self._claim(v, 0, None)
                return
            idx += 1

    def _grow(self, v, depth):
        if depth >= self.k:
            return
        idx = 0
        while True:
            u = self._scan_vertex(idx)
            if u not in self.used and u != v and self.h.has_edge(v, u) \
                    and self._degree_ok(u, depth + 1):
                self._claim(u, depth + 1, v)
                return
            idx += 1

    def round(self):
        """One round's pairs. A round that raises keeps what it claimed:
        the next call returns those claims before it starts a new round."""
        if not self.pending:
            self._fresh_root()
            for v, depth in list(self.nodes):
                self._grow(v, depth)
        out, self.pending = self.pending, []
        return out


def find_f2k2(h, k, scan=100000):
    """Copy of F_{2k+2} inside a host whose certificate confirms the
    promise."""
    if predicate_tf("F", k, h) is not True:
        raise PredicateUnsupported("host certificate refutes the promise")
    machine = _F2k2Machine(h, k, scan)
    name = SpaceName("EGr", StagedPairs(machine.round),
                     meta={"f2k2": machine})
    return SolutionStream(name, lambda v: v)
