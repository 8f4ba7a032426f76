"""Finite graphs and the certified algebra of countable graphs.

FinGraph is the truncation currency: a finite vertex set with symmetric,
irreflexive edges. CountableGraph nodes form a closed algebra (standard
families, disjoint/connected unions, layered tree constructions, stream-backed
graphs); every node answers vertex/edge membership decidably, and most answer
exact degrees in ℕ ∪ {ω}.
"""

import heapq
import itertools
import json
import sys
from collections import deque
from functools import cached_property, partial

from .errors import (BadParam, DegreeUnknown, NotATree, ParseError,
                     PreconditionUnverifiable, PromiseViolation)
from .streams import GeneratorBacked, pair, unpair
from .trees import (FiniteTree, FullBinary, SinglePath,
                    string_code, string_decode, comparable)

OMEGA = float("inf")


def _mul(a, b):
    """Multiplicity product with 0 * omega = 0."""
    if a == 0 or b == 0:
        return 0
    return a * b


# ---------------------------------------------------------------------------
# FinGraph
# ---------------------------------------------------------------------------

def _norm_edge(a, b):
    if a == b:
        raise BadParam("self-loop %r" % a)
    return (a, b) if a < b else (b, a)


class FinGraph:
    """Finite undirected graph without self-loops, vertices in ℕ."""

    def __init__(self, vertices, edges=()):
        self.vertices = frozenset(vertices)
        es = set()
        for a, b in edges:
            e = _norm_edge(a, b)
            if e[0] not in self.vertices or e[1] not in self.vertices:
                raise BadParam("edge %r outside vertex set" % (e,))
            es.add(e)
        self.edges = frozenset(es)

    def __eq__(self, other):
        if isinstance(other, FinGraph):
            return self.vertices == other.vertices and self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return "FinGraph(%r, %r)" % (sorted(self.vertices), sorted(self.edges))

    def has_vertex(self, v):
        return v in self.vertices

    @cached_property
    def adjacency(self):
        """vertex -> set of its neighbours, built on first use; read-only."""
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def has_edge(self, a, b):
        return b in self.adjacency.get(a, ())

    def neighbors(self, v):
        return sorted(self.adjacency.get(v, ()))

    def degree(self, v):
        if v not in self.vertices:
            raise BadParam("vertex %r not present" % v)
        return len(self.adjacency[v])

    def induced(self, vs):
        vs = frozenset(vs) & self.vertices
        return FinGraph(vs, [e for e in self.edges if e[0] in vs and e[1] in vs])

    def relabel(self, mapping):
        return FinGraph([mapping[v] for v in self.vertices],
                        [(mapping[a], mapping[b]) for a, b in self.edges])

    def components(self):
        seen = set()
        out = []
        for v in sorted(self.vertices):
            if v in seen:
                continue
            comp = self._bfs_set(v)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def component_of(self, v):
        if v not in self.vertices:
            raise BadParam("vertex %r not present" % v)
        return frozenset(self._bfs_set(v))

    def _bfs_set(self, v):
        comp = {v}
        q = deque([v])
        while q:
            u = q.popleft()
            for w in self.neighbors(u):
                if w not in comp:
                    comp.add(w)
                    q.append(w)
        return comp

    def is_connected(self):
        if not self.vertices:
            return True
        return len(self._bfs_set(min(self.vertices))) == len(self.vertices)

    def is_acyclic(self):
        return len(self.edges) == len(self.vertices) - len(self.components())

    def distance(self, v, w):
        if v not in self.vertices or w not in self.vertices:
            raise BadParam("distance endpoints must be vertices")
        dist = {v: 0}
        q = deque([v])
        while q:
            u = q.popleft()
            if u == w:
                return dist[u]
            for x in self.neighbors(u):
                if x not in dist:
                    dist[x] = dist[u] + 1
                    q.append(x)
        return OMEGA

    def _printable(self):
        """The sorted vertices; BadParam when one has more decimal digits
        than Python turns into text (sys.get_int_max_str_digits; 0, or
        no such function, means no limit)."""
        vs = sorted(self.vertices)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        top = vs[-1] if vs else 0
        # a code of at most 3 * limit bits is below 10 ** limit
        if limit and top.bit_length() > 3 * limit and top >= 10 ** limit:
            raise BadParam("too long to print: a vertex code of %d bits has "
                           "more than %d decimal digits"
                           % (top.bit_length(), limit))
        return vs

    def to_json(self):
        """The CLI's format: {"e": [[a, b], ...], "v": [...]}, sorted."""
        return json.dumps({"v": self._printable(),
                           "e": [list(e) for e in sorted(self.edges)]},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
            return cls(obj["v"], [tuple(e) for e in obj["e"]])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError("bad graph JSON: %s" % e) from e

    def to_dot(self, title="G"):
        lines = ["graph %s {" % title]
        lines += ["  %d;" % v for v in self._printable()]
        lines += ["  %d -- %d;" % e for e in sorted(self.edges)]
        return "\n".join(lines + ["}"]) + "\n"


def distance(g, v, w):
    return g.distance(v, w)


def is_promptly_connected(g):
    """Every initial-segment induced subgraph {0..n} ∩ V is connected."""
    if not g.vertices:
        return True
    for n in range(max(g.vertices) + 1):
        sub = g.induced(v for v in g.vertices if v <= n)
        if sub.vertices and not sub.is_connected():
            return False
    return True


def isomorphic(g, h):
    """Brute-force isomorphism for small graphs (intended ≤ ~9 vertices)."""
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False
    gs = sorted(g.vertices)
    deg_g = sorted(g.degree(v) for v in gs)
    deg_h = sorted(h.degree(v) for v in h.vertices)
    if deg_g != deg_h:
        return False

    hs = sorted(h.vertices)

    def extend(assigned):
        i = len(assigned)
        if i == len(gs):
            return True
        v = gs[i]
        for w in hs:
            if w in assigned.values():
                continue
            if g.degree(v) != h.degree(w):
                continue
            ok = True
            for j in range(i):
                u = gs[j]
                if g.has_edge(v, u) != h.has_edge(w, assigned[u]):
                    ok = False
                    break
            if ok:
                assigned[v] = w
                if extend(assigned):
                    return True
                del assigned[v]
        return False

    return extend({})


# ---------------------------------------------------------------------------
# The countable-graph algebra
# ---------------------------------------------------------------------------

class CountableGraph:
    """Base class: decidable vertex/edge membership under a fixed ℕ coding."""

    designated_head = None
    designated_tail = None

    def has_vertex(self, v):
        raise NotImplementedError

    def has_edge(self, a, b):
        raise NotImplementedError

    def degree(self, v):
        raise DegreeUnknown(type(self).__name__)

    def vertex_count(self):
        raise DegreeUnknown(type(self).__name__)

    def is_finite(self):
        return self.vertex_count() != OMEGA

    def lower_neighbors(self, v):
        """The neighbours of vertex v whose code is smaller than v, as a
        finite list, or None where they cannot be listed cheaply."""
        return None

    def iter_vertices(self):
        """Every vertex exactly once, in an order fixed by the graph.

        The default scans the codes upward, so it yields increasing code
        order, and so do finite graphs, OmegaCopies and ConnectedUnion.
        Other orders exist: TreeAsGraph and Layered go breadth-first over
        an infinite, finitely branching tree, TreeT and ForestF by growing
        digit bound, and an infinite DisjointUnion merges its parts' orders
        by code. Wherever lower_neighbors(v) is a list, every neighbour of
        v yielded before v has a smaller code: a tree yields each parent
        first, and the other orders are increasing or keep part orders."""
        n = self.vertex_count()
        found = 0
        c = 0
        while n == OMEGA or found < n:
            if self.has_vertex(c):
                yield c
                found += 1
            c += 1

    def first_vertices(self, k):
        return list(itertools.islice(self.iter_vertices(), k))

    def materialize(self):
        n = self.vertex_count()
        if n == OMEGA:
            raise BadParam("cannot materialize an infinite graph")
        return self.window(int(n))

    def window(self, k):
        """Induced FinGraph on the first k enumerated vertices."""
        vs = self.first_vertices(k)
        return FinGraph(vs, [(a, b) for a, b in itertools.combinations(vs, 2)
                             if self.has_edge(a, b)])


class Finite(CountableGraph):
    def __init__(self, fin):
        if not isinstance(fin, FinGraph):
            fin = FinGraph(*fin)
        self.fin = fin

    def has_vertex(self, v):
        return self.fin.has_vertex(v)

    def has_edge(self, a, b):
        return self.fin.has_edge(a, b)

    def degree(self, v):
        return self.fin.degree(v)

    def lower_neighbors(self, v):
        return [w for w in self.fin.adjacency[v] if w < v]

    def vertex_count(self):
        return len(self.fin.vertices)

    def iter_vertices(self):
        return iter(sorted(self.fin.vertices))

    def materialize(self):
        return self.fin


class Ray(CountableGraph):
    """One-way infinite ray R: 0 - 1 - 2 - ..."""

    designated_head = 0

    def has_vertex(self, v):
        return v >= 0

    def has_edge(self, a, b):
        return abs(a - b) == 1

    def degree(self, v):
        return 1 if v == 0 else 2

    def lower_neighbors(self, v):
        return [v - 1] if v else []

    def vertex_count(self):
        return OMEGA


class TwoWayRay(CountableGraph):
    """Two-way infinite ray L on ℕ: evens grow one way, odds the other."""

    def has_vertex(self, v):
        return v >= 0

    def has_edge(self, a, b):
        a, b = min(a, b), max(a, b)
        if (a, b) == (0, 1):
            return True
        return b - a == 2 and (a % 2) == (b % 2)

    def degree(self, v):
        return 2

    def lower_neighbors(self, v):
        return [max(v - 2, 0)] if v else []

    def vertex_count(self):
        return OMEGA


class CompleteOmega(CountableGraph):
    def has_vertex(self, v):
        return v >= 0

    def has_edge(self, a, b):
        return a != b

    def degree(self, v):
        return OMEGA

    def vertex_count(self):
        return OMEGA


class RayN(Finite):
    """Path on n vertices 0..n-1 (R_1 = K_1)."""

    def __init__(self, n):
        if n <= 0:
            raise BadParam("RayN needs n > 0")
        super().__init__(FinGraph(range(n), [(i, i + 1) for i in range(n - 1)]))


class CycleN(Finite):
    def __init__(self, n):
        if n < 3:
            raise BadParam("CycleN needs n >= 3")
        super().__init__(FinGraph(range(n), [(i, (i + 1) % n) for i in range(n)]))


class CompleteN(Finite):
    def __init__(self, n):
        if n <= 0:
            raise BadParam("CompleteN needs n > 0")
        super().__init__(FinGraph(range(n), itertools.combinations(range(n), 2)))


class TreeAsGraph(CountableGraph):
    """A tree viewed as a graph: vertices are string codes, edges parent-child."""

    def __init__(self, tree):
        self.tree = tree

    def has_vertex(self, v):
        return self.tree.contains(string_decode(v))

    def has_edge(self, a, b):
        sa, sb = string_decode(a), string_decode(b)
        if abs(len(sa) - len(sb)) != 1:
            return False
        parent, child = (sa, sb) if len(sa) < len(sb) else (sb, sa)
        return child[:-1] == parent and self.tree.contains(child)

    def degree(self, v):
        sigma = string_decode(v)
        if not self.tree.contains(sigma):
            raise BadParam("vertex %r not in tree" % v)
        try:
            kids = len(self.tree.children(sigma))
        except BadParam:
            kids = OMEGA
        return kids + (1 if sigma else 0)

    def lower_neighbors(self, v):
        return [unpair(v - 1)[0]] if v else []

    def neighbors(self, v):
        """Parent plus children, directly from the tree rule (finite lists)."""
        sigma = string_decode(v)
        if not self.tree.contains(sigma):
            raise BadParam("vertex %r not in tree" % v)
        out = []
        if sigma:
            out.append(string_code(sigma[:-1]))
        out.extend(string_code(sigma + (d,)) for d in self.tree.children(sigma))
        return sorted(out)

    def vertex_count(self):
        if isinstance(self.tree, FiniteTree):
            return len(self.tree.nodes)
        return OMEGA

    def iter_vertices(self):
        if isinstance(self.tree, FiniteTree):
            yield from sorted(string_code(s) for s in self.tree.nodes)
            return
        if self.tree.finitely_branching or isinstance(self.tree, SinglePath):
            # breadth-first, stable order
            level = [()] if self.tree.contains(()) else []
            while level:
                for s in level:
                    yield string_code(s)
                level = [s + (d,) for s in level for d in self.tree.children(s)]
            return
        # diagonal scan over codes
        yield from CountableGraph.iter_vertices(self)


def FullBinaryTreeGraph():
    return TreeAsGraph(FullBinary())


def _by_digit_bound(depths):
    """Codes of the strings with a length in `depths`, each once: those
    with digits below n, for n = 1, 2, ..."""
    seen = set()
    for n in itertools.count(1):
        for depth in depths:
            for sigma in itertools.product(range(n), repeat=depth):
                c = string_code(sigma)
                if c not in seen:
                    seen.add(c)
                    yield c


class TreeT(CountableGraph):
    """T_{2k+1}: the tree of height k, infinitely branching at every inner node."""

    def __init__(self, k):
        if k < 0:
            raise BadParam("TreeT needs k >= 0")
        self.k = k

    def has_vertex(self, v):
        return len(string_decode(v)) <= self.k

    def has_edge(self, a, b):
        sa, sb = string_decode(a), string_decode(b)
        if abs(len(sa) - len(sb)) != 1 or max(len(sa), len(sb)) > self.k:
            return False
        parent, child = (sa, sb) if len(sa) < len(sb) else (sb, sa)
        return child[:-1] == parent

    def degree(self, v):
        d = len(string_decode(v))
        kids = OMEGA if d < self.k else 0
        return kids + (1 if d > 0 else 0)

    lower_neighbors = TreeAsGraph.lower_neighbors

    def vertex_count(self):
        return 1 if self.k == 0 else OMEGA

    def iter_vertices(self):
        return iter([0]) if self.k == 0 else _by_digit_bound(range(self.k + 1))


class ForestF(CountableGraph):
    """F_{2k+2}: infinitely many disjoint copies of T_{2k+1}.

    Coded as the nonempty strings of length ≤ k+1 (the depth-1 nodes of the
    height-(k+1) tree are the roots of the copies).
    """

    def __init__(self, k):
        if k < 0:
            raise BadParam("ForestF needs k >= 0")
        self.k = k

    def has_vertex(self, v):
        return 1 <= len(string_decode(v)) <= self.k + 1

    def has_edge(self, a, b):
        sa, sb = string_decode(a), string_decode(b)
        if abs(len(sa) - len(sb)) != 1:
            return False
        parent, child = (sa, sb) if len(sa) < len(sb) else (sb, sa)
        return len(parent) >= 1 and len(child) <= self.k + 1 and child[:-1] == parent

    def degree(self, v):
        d = len(string_decode(v))
        kids = OMEGA if d < self.k + 1 else 0
        return kids + (1 if d > 1 else 0)

    def lower_neighbors(self, v):
        parent = unpair(v - 1)[0]
        return [parent] if parent else []

    def vertex_count(self):
        return OMEGA

    def iter_vertices(self):
        return _by_digit_bound(range(1, self.k + 2))


class OmegaCopies(CountableGraph):
    """ω disjoint copies of a graph; vertex pair(copy, v)."""

    def __init__(self, base):
        self.base = base

    def has_vertex(self, v):
        _, u = unpair(v)
        return self.base.has_vertex(u)

    def has_edge(self, a, b):
        i, u = unpair(a)
        j, w = unpair(b)
        return i == j and self.base.has_edge(u, w)

    def degree(self, v):
        _, u = unpair(v)
        return self.base.degree(u)

    def lower_neighbors(self, v):
        i, u = unpair(v)
        lower = self.base.lower_neighbors(u)
        return None if lower is None else [pair(i, w) for w in lower]

    def vertex_count(self):
        return 0 if self.base.vertex_count() == 0 else OMEGA

    def iter_vertices(self):
        """Increasing code order: diagonal d holds pair(d - u, u) for the
        base vertices u <= d."""
        if self.vertex_count() == 0:
            return
        base = []
        for d in itertools.count():
            if self.base.has_vertex(d):
                base.append(d)
            for u in base:
                yield pair(d - u, u)


class DisjointUnion(CountableGraph):
    """⊕ of finitely many parts; vertex pair(part, v)."""

    def __init__(self, parts):
        self.parts = list(parts)

    def _split(self, v):
        i, u = unpair(v)
        if i >= len(self.parts):
            return None, None
        return self.parts[i], u

    def has_vertex(self, v):
        p, u = self._split(v)
        return p is not None and p.has_vertex(u)

    def has_edge(self, a, b):
        i, u = unpair(a)
        j, w = unpair(b)
        if i != j:
            return False
        p, _ = self._split(a)
        return p is not None and p.has_edge(u, w)

    def degree(self, v):
        p, u = self._split(v)
        if p is None:
            raise BadParam("vertex %r outside union" % v)
        return p.degree(u)

    def lower_neighbors(self, v):
        i, u = unpair(v)
        lower = self.parts[i].lower_neighbors(u)
        return None if lower is None else [pair(i, w) for w in lower]

    def vertex_count(self):
        total = 0
        for p in self.parts:
            n = p.vertex_count()
            if n == OMEGA:
                return OMEGA
            total += n
        return total

    def iter_vertices(self):
        # the least of the parts' next codes each time: increasing code
        # order wherever every part's own order is
        yield from heapq.merge(*(map(partial(pair, i), p.iter_vertices())
                                 for i, p in enumerate(self.parts)))


class ConnectedUnion(CountableGraph):
    """Consecutive parts glued at a single shared vertex per junction.

    Coding: ordinary vertex (part i, v) ↦ pair(0, pair(i, v)); the glue vertex
    of junction i ↦ pair(1, i). Junction i identifies tail(G_i) with
    head(G_{i+1}). head = min vertex; tail = max vertex for finite parts, else
    min for a part with no left junction and second-min otherwise. Composite
    parts may designate head/tail explicitly so nesting is isomorphism-stable.
    """

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise BadParam("connected_union needs at least one part")
        for p in self.parts:
            n = p.vertex_count()
            if n != OMEGA and n < 3:
                raise BadParam("connected_union parts need >= 3 vertices")
        self._heads = {}
        self._tails = {}
        self._ends = {}

    # -- junction vertex selection ------------------------------------

    def _head(self, i):
        if i not in self._heads:
            p = self.parts[i]
            if p.designated_head is not None:
                self._heads[i] = p.designated_head
            else:
                self._heads[i] = next(iter(p.iter_vertices()))
        return self._heads[i]

    def _tail(self, i):
        """None for a lone infinite part: its tail depends on where the
        union is glued as a part of another one."""
        if i not in self._tails:
            p = self.parts[i]
            if p.designated_tail is not None:
                self._tails[i] = p.designated_tail
            elif p.vertex_count() != OMEGA:
                self._tails[i] = max(p.iter_vertices())
            elif i == 0:
                self._tails[i] = self._head(0) if len(self.parts) > 1 else None
            else:
                a, b = p.first_vertices(2)
                self._tails[i] = b if a == self._head(i) else a
        return self._tails[i]

    def _glued(self, i):
        """Part i's glued vertices, each mapped to its junction and to its
        lower neighbours in the part; computed once."""
        if i not in self._ends:
            ends = {}
            if i > 0:
                ends[self._head(i)] = i - 1
            if i < len(self.parts) - 1:
                ends[self._tail(i)] = i
            lower = self.parts[i].lower_neighbors
            self._ends[i] = {u: (j, lower(u)) for u, j in ends.items()}
        return self._ends[i]

    # -- membership ----------------------------------------------------

    def _decode(self, v):
        tag, payload = unpair(v)
        if tag == 1:
            if payload < len(self.parts) - 1:
                return ("glue", payload)
            return None
        if tag != 0:
            return None
        i, u = unpair(payload)
        if i >= len(self.parts):
            return None
        if not self.parts[i].has_vertex(u) or u in self._glued(i):
            return None
        return ("ord", i, u)

    def has_vertex(self, v):
        return self._decode(v) is not None

    def has_edge(self, a, b):
        da, db = self._decode(a), self._decode(b)
        if da is None or db is None or a == b:
            return False
        if da[0] == "ord" and db[0] == "ord":
            _, i, u = da
            _, j, w = db
            return i == j and self.parts[i].has_edge(u, w)
        if da[0] == "glue" and db[0] == "glue":
            j1, j2 = sorted((da[1], db[1]))
            if j2 != j1 + 1:
                return False
            # both glues live in part j1+1, as its head and tail
            p = self.parts[j1 + 1]
            return p.has_edge(self._head(j1 + 1), self._tail(j1 + 1))
        if db[0] == "glue":
            da, db = db, da
        j = da[1]
        _, i, u = db
        if i == j:
            return self.parts[j].has_edge(self._tail(j), u)
        if i == j + 1:
            return self.parts[i].has_edge(self._head(i), u)
        return False

    def degree(self, v):
        d = self._decode(v)
        if d is None:
            raise BadParam("vertex %r not present" % v)
        if d[0] == "ord":
            return self.parts[d[1]].degree(d[2])
        j = d[1]
        return (self.parts[j].degree(self._tail(j))
                + self.parts[j + 1].degree(self._head(j + 1)))

    def lower_neighbors(self, v):
        """An ordinary vertex: its part's list minus the glued vertices,
        plus the smaller glue vertices whose part vertex is adjacent to it.
        A glue vertex: its neighbours among the few smaller codes."""
        tag, x = unpair(v)
        if tag:
            return [w for w in range(v) if self.has_edge(v, w)]
        i, u = unpair(x)
        lower = self.parts[i].lower_neighbors(u)
        ends = self._glued(i)
        if lower is None or None in (below for _, below in ends.values()):
            return None
        out = [pair(0, pair(i, w)) for w in lower if w not in ends]
        for end, (j, below) in ends.items():
            if (end in lower or u in below) and pair(1, j) < v:
                out.append(pair(1, j))
        return out

    def vertex_count(self):
        total = 0
        for p in self.parts:
            n = p.vertex_count()
            if n == OMEGA:
                return OMEGA
            total += n
        return total - (len(self.parts) - 1)

    @property
    def designated_head(self):
        """Part 0's head, or the glue vertex it became."""
        h = self._head(0)
        return pair(1, 0) if h in self._glued(0) else pair(0, pair(0, h))

    @property
    def designated_tail(self):
        last = len(self.parts) - 1
        t = self._tail(last)
        return None if t is None else pair(0, pair(last, t))

    def _ordinary_codes(self, i):
        """Codes of part i's vertices that are not glued, increasing."""
        ends = self._glued(i)
        return (pair(0, pair(i, u)) for u in _code_order(self.parts[i])
                if u not in ends)

    def iter_vertices(self):
        # pair(0, pair(i, u)) increases in u, so merging the glue codes
        # with each part's increasing stream gives increasing code order.
        glue = (pair(1, j) for j in range(len(self.parts) - 1))
        yield from heapq.merge(glue, *(self._ordinary_codes(i)
                                       for i in range(len(self.parts))))


def _code_order(p):
    """The vertices of p in increasing code order, taken from p itself: by
    a heap popped from the root of a finitely branching tree (a child's
    code exceeds its parent's), by merging a disjoint union's parts, by a
    code scan for TreeT and ForestF, and else in p's own order."""
    if isinstance(p, DisjointUnion):
        yield from heapq.merge(*(map(partial(pair, i), _code_order(q))
                                 for i, q in enumerate(p.parts)))
    elif isinstance(p, (TreeT, ForestF)):
        yield from CountableGraph.iter_vertices(p)
    elif not (isinstance(p, (TreeAsGraph, Layered))
              and p.tree.finitely_branching):
        yield from p.iter_vertices()
    else:
        heap = [(0, ())] if p.tree.contains(()) else []
        while heap:
            c, sigma = heapq.heappop(heap)
            yield c
            for d in p.tree.children(sigma):
                heapq.heappush(heap, (pair(c, d) + 1, sigma + (d,)))


class Layered(CountableGraph):
    """The tree-layered constructions over a tree T and an infinite graph G.

    Vertices are the (codes of) nodes of T. With v_i the i-th vertex of G:
    mode "L1": sigma ~ tau iff (v_|sigma|, v_|tau|) ∈ E(G) and comparable;
    mode "L2": sigma ~ tau iff (v_|sigma|, v_|tau|) ∈ E(G) or incomparable.
    """

    def __init__(self, mode, tree, graph):
        if mode not in ("L1", "L2"):
            raise BadParam("mode must be L1 or L2")
        self.mode = mode
        self.tree = tree
        self.graph = graph
        self._gv = []

    def _g_vertex(self, i):
        while len(self._gv) <= i:
            if not self._gv:
                self._git = self.graph.iter_vertices()
            v = next(self._git, None)
            if v is None:
                raise BadParam("layered construction needs an infinite graph")
            self._gv.append(v)
        return self._gv[i]

    def has_vertex(self, v):
        return self.tree.contains(string_decode(v))

    def has_edge(self, a, b):
        if a == b:
            return False
        sa, sb = string_decode(a), string_decode(b)
        if not (self.tree.contains(sa) and self.tree.contains(sb)):
            return False
        base = self.graph.has_edge(self._g_vertex(len(sa)),
                                   self._g_vertex(len(sb)))
        if self.mode == "L1":
            return base and comparable(sa, sb)
        return base or not comparable(sa, sb)

    def degree(self, v):
        if isinstance(self.tree, FiniteTree):
            return self.materialize().degree(v)
        raise DegreeUnknown("layered over an infinite tree")

    def lower_neighbors(self, v):
        """L1: the proper prefixes whose levels are adjacent in G."""
        if self.mode == "L2":
            return None
        chain = [v]   # v, its parent, ..., the root
        while chain[-1]:
            chain.append(unpair(chain[-1] - 1)[0])
        top = self._g_vertex(len(chain) - 1)
        return [c for depth, c in enumerate(reversed(chain[1:]))
                if self.graph.has_edge(top, self._g_vertex(depth))]

    def vertex_count(self):
        if isinstance(self.tree, FiniteTree):
            return len(self.tree.nodes)
        return OMEGA

    def iter_vertices(self):
        yield from TreeAsGraph(self.tree).iter_vertices()


class FromGrName(CountableGraph):
    """A graph given only by a characteristic-function name."""

    def __init__(self, name):
        self.name = name

    def has_vertex(self, v):
        return self.name.stream.eval(pair(v, v)) == 1

    def has_edge(self, a, b):
        return a != b and self.name.stream.eval(pair(min(a, b), max(a, b))) == 1

    def vertex_count(self):
        raise DegreeUnknown("FromGrName")


class CustomGraph(CountableGraph):
    """Escape hatch for tests/demos: explicit membership, edge and degree rules."""

    def __init__(self, vertex_fn, edge_fn, degree_fn=None, count=OMEGA):
        self.vertex_fn = vertex_fn
        self.edge_fn = edge_fn
        self.degree_fn = degree_fn
        self._count = count

    def has_vertex(self, v):
        return self.vertex_fn(v)

    def has_edge(self, a, b):
        return a != b and self.edge_fn(a, b)

    def degree(self, v):
        if self.degree_fn is None:
            raise DegreeUnknown("CustomGraph without degree rule")
        return self.degree_fn(v)

    def vertex_count(self):
        return self._count


# ---------------------------------------------------------------------------
# Public constructors matching the algebra's op names
# ---------------------------------------------------------------------------

_STANDARD = {
    "Ray": lambda: Ray(),
    "TwoWayRay": lambda: TwoWayRay(),
    "CompleteOmega": lambda: CompleteOmega(),
    "FullBinaryTree": FullBinaryTreeGraph,
}


def standard(kind, *params):
    if kind in _STANDARD:
        if params:
            raise BadParam("%s takes no parameter" % kind)
        return _STANDARD[kind]()
    table = {"RayN": RayN, "CycleN": CycleN, "CompleteN": CompleteN,
             "TreeT": TreeT, "ForestF": ForestF}
    if kind not in table:
        raise BadParam("unknown standard family %r" % kind)
    if len(params) != 1:
        raise BadParam("%s takes one parameter" % kind)
    return table[kind](params[0])


def disjoint_union(parts):
    return DisjointUnion(parts)


def connected_union(parts):
    return ConnectedUnion(parts)


def construction(mode, tree, graph):
    return Layered(mode, tree, graph)


def tree_to_graph(tree):
    return TreeAsGraph(tree)


def graph_to_tree(g, root=None):
    """Recover a finite tree from a rooted connected acyclic FinGraph.

    Child digits are recovered by decoding the child's vertex id as a path
    code relative to its parent (exact inverse of tree_to_graph); for graphs
    not produced that way the raw vertex label is used as the digit.
    """
    if not isinstance(g, FinGraph):
        g = g.materialize()
    if not g.vertices:
        return FiniteTree([])
    if root is None:
        root = min(g.vertices)
    if root not in g.vertices:
        raise BadParam("root %r not a vertex" % root)
    if not g.is_connected():
        raise NotATree("graph is disconnected")
    if not g.is_acyclic():
        raise NotATree("graph has a cycle")
    nodes = {(): root}
    paths = {root: ()}
    q = deque([root])
    while q:
        v = q.popleft()
        for w in sorted(g.neighbors(v)):
            if w in paths:
                continue
            parent_code = string_code(paths[v])
            digit = w
            if w >= 1:
                c, d = unpair(w - 1)
                if c == parent_code:
                    digit = d
            paths[w] = paths[v] + (digit,)
            nodes[paths[w]] = w
            q.append(w)
    return FiniteTree(nodes.keys())


def degree(g, v):
    return g.degree(v)


def exact_neighbors(g, v, cache=None):
    """All neighbors of v, found by scanning the vertex enumeration until the
    exact degree count is reached. Needs finite exact degrees."""
    if cache is not None and v in cache:
        return cache[v]
    direct = getattr(g, "neighbors", None)
    if direct is not None:
        found = sorted(direct(v))
        if cache is not None:
            cache[v] = found
        return found
    d = g.degree(v)
    if d == OMEGA:
        raise PreconditionUnverifiable("vertex %r has infinite degree" % v)
    found = []
    if d:
        for w in g.iter_vertices():
            if w != v and g.has_edge(v, w):
                found.append(w)
                if len(found) == d:
                    break
    if cache is not None:
        cache[v] = found
    return found


def increasing_ray_tree(g, slack=10):
    """Leftmost path through the tree of strictly increasing adjacent paths
    rooted at the least vertex, found König-style with backtracking.

    Position n is frozen only after a leftmost increasing path of length
    n+1+slack has been found, and later deepening is constrained to extend
    the frozen prefix, so outputs never change.
    """
    root = next(iter(g.iter_vertices()))
    try:
        g.degree(root)
    except DegreeUnknown as e:
        raise PreconditionUnverifiable(
            "increasing_ray_tree needs exact degrees") from e

    nbr_cache = {}

    def extend(path, target):
        if len(path) >= target:
            return path
        u = path[-1]
        for v in exact_neighbors(g, u, nbr_cache):
            if v > u:
                res = extend(path + [v], target)
                if res is not None:
                    return res
        return None

    state = {"path": [root], "frozen": 1}

    def value(n):
        target = n + 1 + slack
        if len(state["path"]) < target:
            res = extend(state["path"][:state["frozen"]], target)
            if res is None:
                raise PromiseViolation(
                    "no increasing ray extends the frozen prefix")
            state["path"] = res
        state["frozen"] = max(state["frozen"], n + 1)
        return state["path"][n]

    return GeneratorBacked(value)
