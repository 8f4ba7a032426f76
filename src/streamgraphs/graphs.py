"""Finite graphs and the certified algebra of countable graphs.

FinGraph is the truncation currency and the algebra's one finite graph: a
finite vertex set with symmetric, irreflexive edges. CountableGraph nodes
form a closed algebra (standard families, disjoint/connected unions, layered
tree constructions, certified forests); every node answers vertex/edge
membership decidably, and most answer exact degrees in ℕ ∪ {ω}.
"""

import heapq
import itertools
import json
import sys
from collections import deque
from functools import cached_property, partial
from math import isqrt

from .errors import BadParam, DegreeUnknown, ParseError
from .streams import infinitely_often, occurrences, pair, unpair
from .trees import (FiniteTree, FullBinary, string_code, string_decode,
                    comparable)

OMEGA = float("inf")


def _mul(a, b):
    """Multiplicity product with 0 * omega = 0."""
    if a == 0 or b == 0:
        return 0
    return a * b


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

    def lower_neighbors(self, v):
        """The neighbours of vertex v whose code is smaller than v, as a
        finite list, or None where they cannot be listed cheaply."""
        return None

    def iter_vertices(self):
        """Every vertex exactly once, in an order fixed by the graph.

        The default scans the codes upward, so it yields increasing code
        order, and so do finite graphs, OmegaCopies and ConnectedUnion.
        Other orders exist: TreeAsGraph and Layered go breadth-first over
        an infinite, finitely branching tree, a ForestGraph (TreeT, ForestF,
        the forests gadget) goes by growing digit bound, and an infinite
        DisjointUnion merges its parts' orders by code. Wherever
        lower_neighbors(v) is a list, every neighbour of v yielded before v
        has a smaller code: a tree yields each parent first, and the other
        orders are increasing or keep part orders."""
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
        """Induced FinGraph on the first k enumerated vertices. A vertex
        whose lower neighbours are listed takes its edges to smaller codes
        from that list; any other one is tested against every smaller code
        of the window."""
        vs = self.first_vertices(k)
        members = set(vs)
        es = []
        for b in vs:
            lower = self.lower_neighbors(b)
            if lower is None:
                es += [(a, b) for a in vs if a < b and self.has_edge(a, b)]
            else:
                es += [(a, b) for a in lower if a in members]
        return FinGraph(vs, es)


# ---------------------------------------------------------------------------
# FinGraph
# ---------------------------------------------------------------------------

def _norm_edge(a, b):
    if a == b:
        raise BadParam("self-loop %r" % a)
    return (a, b) if a < b else (b, a)


class FinGraph(CountableGraph):
    """Finite undirected graph without self-loops, vertices in ℕ: the
    finite CountableGraph, its own materialization."""

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

    def vertex_count(self):
        return len(self.vertices)

    def iter_vertices(self):
        return iter(sorted(self.vertices))

    def materialize(self):
        return self

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

    def lower_neighbors(self, v):
        return [w for w in self.adjacency[v] if w < v]

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

    def _printable(self):
        """The sorted vertices; BadParam when one is too long to print."""
        vs = sorted(self.vertices)
        check_printable(vs[-1] if vs else 0)
        return vs

    def to_dict(self):
        """The CLI's format as a dict: {"e": [[a, b], ...], "v": [...]},
        sorted."""
        return {"v": self._printable(),
                "e": [list(e) for e in sorted(self.edges)]}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """The graph of the CLI's format; ParseError for any other text,
        and for a vertex or edge end that is not a non-negative int."""
        try:
            obj = json.loads(text)
            vs, es = obj["v"], [tuple(e) for e in obj["e"]]
            bad = [v for v in itertools.chain(vs, *es)
                   if type(v) is not int or v < 0]   # bool is not int here
            if bad:
                raise ValueError("vertex %s is not a non-negative integer"
                                 % json.dumps(bad[0]))
            return cls(vs, es)
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError("bad graph JSON: %s" % e) from e

    def to_dot(self, title="G"):
        lines = ["graph %s {" % title]
        lines += ["  %d;" % v for v in self._printable()]
        lines += ["  %d -- %d;" % e for e in sorted(self.edges)]
        return "\n".join(lines + ["}"]) + "\n"


def check_printable(top):
    """BadParam when the vertex code `top` has more decimal digits than
    Python turns into text (sys.get_int_max_str_digits; 0, or no such
    function, means no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # a code of at most 3 * limit bits is below 10 ** limit
    if limit and top.bit_length() > 3 * limit and top >= 10 ** limit:
        raise BadParam("too long to print: a vertex code of %d bits has "
                       "more than %d decimal digits" % (top.bit_length(), limit))


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

    def lower_neighbors(self, v):
        return list(range(v))

    def vertex_count(self):
        return OMEGA


def ray_n(n):
    """Path on n vertices 0..n-1 (R_1 = K_1)."""
    if n <= 0:
        raise BadParam("RayN needs n > 0")
    return FinGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_n(n):
    if n < 3:
        raise BadParam("CycleN needs n >= 3")
    return FinGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_n(n):
    if n <= 0:
        raise BadParam("CompleteN needs n > 0")
    return FinGraph(range(n), itertools.combinations(range(n), 2))


class TreeAsGraph(CountableGraph):
    """A tree viewed as a graph: vertices are string codes, edges parent-child."""

    def __init__(self, tree):
        self.tree = tree

    def has_vertex(self, v):
        return self.tree.contains(string_decode(v))

    def has_edge(self, a, b):
        # a child's code exceeds its parent's, which it carries as
        # unpair(child - 1)[0]; only a child in the tree needs its string
        parent, child = (a, b) if a < b else (b, a)
        return (child > 0 and unpair(child - 1)[0] == parent
                and self.tree.contains(string_decode(child)))

    def degree(self, v):
        sigma = string_decode(v)
        if not self.tree.contains(sigma):
            raise BadParam("vertex %r not in tree" % v)
        return len(self.tree.children(sigma)) + (1 if sigma else 0)

    def lower_neighbors(self, v):
        return [unpair(v - 1)[0]] if v else []

    def vertex_count(self):
        if isinstance(self.tree, FiniteTree):
            return len(self.tree.nodes)
        return OMEGA

    def iter_vertices(self):
        if isinstance(self.tree, FiniteTree):
            yield from sorted(string_code(s) for s in self.tree.nodes)
            return
        # breadth-first, stable order; each node carries its code
        children = self.tree.children
        level = [((), 0)] if self.tree.contains(()) else []
        while level:
            for _, c in level:
                yield c
            level = [(s + (d,), pair(c, d) + 1) for s, c in level
                     for d in children(s)]


# ---------------------------------------------------------------------------
# Certified forests: T_{2k+1}, F_{2k+2} and the forests gadget
# ---------------------------------------------------------------------------

class CertTree:
    """Finitely described rooted tree: explicit children with multiplicities
    in N ∪ {omega}, plus an optional stream-driven child family (one child
    shaped `shape` for every index n with p(n) = 0)."""

    def __init__(self, children=(), stream_children=None):
        self.children = [(sub, mult) for sub, mult in children]
        self.stream_children = stream_children  # (CertifiedStream, CertTree)

    def child(self, d):
        """The subtree at digit d, or None. With r child families (the
        explicit ones in order, then the stream family), digit d is copy
        d // r of family d % r: an explicit copy exists below its
        multiplicity, stream copy n where p(n) = 0."""
        r = len(self.children) + (self.stream_children is not None)
        if not r:
            return None
        n, i = divmod(d, r)
        if i < len(self.children):
            sub, mult = self.children[i]
            return sub if n < mult else None
        p, shape = self.stream_children
        return shape if p.eval(n) == 0 else None

    def child_multiplicities(self):
        """[(subtree, multiplicity)] with the stream family resolved via its
        certificate."""
        out = list(self.children)
        if self.stream_children is not None:
            p, shape = self.stream_children
            if infinitely_often(p, 0):
                out.append((shape, OMEGA))
            else:
                count = len(occurrences(p, 0))
                if count:
                    out.append((shape, count))
        return out

    def rank(self):
        kids = [(sub.rank(), mult) for sub, mult in self.child_multiplicities()]
        r = 0
        while sum((mult for rk, mult in kids if rk >= r), 0) == OMEGA:
            r += 1
        return r

    def count_rank_ge(self, k):
        return (1 if self.rank() >= k else 0) + sum(
            _mul(mult, sub.count_rank_ge(k))
            for sub, mult in self.child_multiplicities())

    def height(self):
        return max((1 + sub.height() for sub, _ in self.child_multiplicities()),
                   default=0)

    def node_count(self):
        return 1 + sum(_mul(mult, sub.node_count())
                       for sub, mult in self.child_multiplicities())


class CertForest:
    """A disjoint union of CertTrees with multiplicities."""

    def __init__(self, trees):
        self.trees = [(t, mult) for t, mult in trees]

    def count_rank_ge(self, k):
        return sum(_mul(mult, t.count_rank_ge(k)) for t, mult in self.trees)

    def height(self):
        return max((t.height() for t, _ in self.trees), default=0)


def _chain_tree(k):
    """The height-k tree with omega branching at every internal node."""
    t = CertTree()
    for _ in range(k):
        t = CertTree(children=[(t, OMEGA)])
    return t


class ForestGraph(CertForest, CountableGraph):
    """A certified forest as a graph: vertices are string codes, read
    through CertTree.child, and edges are the parent links.

    One tree of multiplicity 1 is coded from its root (). Otherwise the
    trees hang under a root that is not a vertex, so the vertices are the
    nonempty strings."""

    def __init__(self, trees):
        super().__init__(trees)
        self._rooted = len(self.trees) == 1 and self.trees[0][1] == 1
        self._root = self.trees[0][0] if self._rooted else CertTree(self.trees)

    def _node(self, v):
        """The subtree at code v, or None where v is not a vertex."""
        sigma = string_decode(v)
        node = self._root if sigma or self._rooted else None
        for d in sigma:
            node = node.child(d)
            if node is None:
                break
        return node

    def _parent(self, v):
        p = unpair(v - 1)[0] if v else None
        return p if p or self._rooted else None

    def has_vertex(self, v):
        return self._node(v) is not None

    def has_edge(self, a, b):
        a, b = min(a, b), max(a, b)
        return b > 0 and self._parent(b) == a and self.has_vertex(b)

    def degree(self, v):
        node = self._node(v)
        if node is None:
            raise BadParam("vertex %r absent" % v)
        kids = sum(mult for _, mult in node.child_multiplicities())
        return kids + (0 if self._parent(v) is None else 1)

    def lower_neighbors(self, v):
        p = self._parent(v)
        return [] if p is None else [p]

    def vertex_count(self):
        n = self._root.node_count()
        return n if self._rooted else n - 1

    def iter_vertices(self):
        """By growing digit bound n = 1, 2, ...: for each length, the
        strings with digits below n and one of them n - 1, in
        lexicographic order; each parent comes before its children."""
        depths = range(0 if self._rooted else 1, self._root.height() + 1)
        codes = (c for n in itertools.count(1) for depth in depths
                 for c in _bounded_codes(self._root, 0, depth, n, n == 1))
        count = self.vertex_count()
        return codes if count == OMEGA else itertools.islice(codes, count)


def _bounded_codes(node, code, depth, n, fresh):
    """Codes of the strings of length `depth` below `node` (coded `code`)
    with digits below n, lexicographically; only those with a digit n - 1
    unless `fresh`, so a string not yet fresh tries only n - 1 last."""
    if not depth:
        if fresh:
            yield code
        return
    for d in range(0 if fresh or depth > 1 else n - 1, n):
        sub = node.child(d)
        if sub is not None:
            yield from _bounded_codes(sub, pair(code, d) + 1, depth - 1, n,
                                      fresh or d == n - 1)


class TreeT(ForestGraph):
    """T_{2k+1}: the tree of height k, infinitely branching at every inner node."""

    def __init__(self, k):
        if k < 0:
            raise BadParam("TreeT needs k >= 0")
        super().__init__([(_chain_tree(k), 1)])


class ForestF(ForestGraph):
    """F_{2k+2}: infinitely many disjoint copies of T_{2k+1}, coded as the
    nonempty strings of length ≤ k+1."""

    def __init__(self, k):
        if k < 0:
            raise BadParam("ForestF needs k >= 0")
        super().__init__([(_chain_tree(k), OMEGA)])


class OmegaCopies(CountableGraph):
    """ω disjoint copies of a graph; vertex pair(copy, v)."""

    def __init__(self, base):
        self.base = base
        self._lower = {}   # base vertex -> its base lower_neighbors

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
        d = (isqrt(8 * v + 1) - 1) // 2   # (i, u) = unpair(v), inlined
        u = v - d * (d + 1) // 2
        i = d - u
        try:
            lower = self._lower[u]
        except KeyError:
            lower = self._lower[u] = self.base.lower_neighbors(u)
        if lower is None:
            return None
        return [(i + w) * (i + w + 1) // 2 + w for w in lower]   # pair(i, w)

    def vertex_count(self):
        return 0 if self.base.vertex_count() == 0 else OMEGA

    def iter_vertices(self):
        """Increasing code order: diagonal d holds pair(d - u, u), which is
        d(d + 1)/2 + u, for the base vertices u <= d."""
        if self.vertex_count() == 0:
            return
        base = []
        for d in itertools.count():
            if self.base.has_vertex(d):
                base.append(d)
            t = d * (d + 1) // 2
            for u in base:
                yield t + u


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

    def materialize(self):
        """Each part's own FinGraph, its vertex v relabeled pair(i, v) for
        part i: the window on every vertex, found without a scan."""
        if self.vertex_count() == OMEGA:
            raise BadParam("cannot materialize an infinite graph")
        vs, es = [], []
        for i, p in enumerate(self.parts):
            fin = p.materialize()
            vs += [pair(i, v) for v in fin.vertices]
            es += [(pair(i, a), pair(i, b)) for a, b in fin.edges]
        return FinGraph(vs, es)

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
        """Part i's glued vertices, each mapped to the code of its glue
        vertex and to its lower neighbours in the part, and whether the
        part lists all of those; computed once."""
        if i not in self._ends:
            ends = {}
            if i > 0:
                ends[self._head(i)] = i - 1
            if i < len(self.parts) - 1:
                ends[self._tail(i)] = i
            lower = self.parts[i].lower_neighbors
            glued = {u: (pair(1, j), lower(u)) for u, j in ends.items()}
            self._ends[i] = glued, None not in [b for _, b in glued.values()]
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
        if not self.parts[i].has_vertex(u) or u in self._glued(i)[0]:
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
        d = (isqrt(8 * v + 1) - 1) // 2   # (tag, x) = unpair(v), inlined
        x = v - d * (d + 1) // 2
        if x != d:   # tag d - x > 0: a glue vertex
            return [w for w in range(v) if self.has_edge(v, w)]
        d = (isqrt(8 * x + 1) - 1) // 2   # (i, u) = unpair(x), inlined
        u = x - d * (d + 1) // 2
        i = d - u
        lower = self.parts[i].lower_neighbors(u)
        ends, listed = self._glued(i)
        if lower is None or not listed:
            return None
        out = []
        for w in lower:
            if w not in ends:
                c = (i + w) * (i + w + 1) // 2 + w   # pair(0, pair(i, w))
                out.append(c * (c + 3) // 2)
        for end, (glue, below) in ends.items():
            if glue < v and (end in lower or u in below):
                out.append(glue)
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
        return pair(1, 0) if h in self._glued(0)[0] else pair(0, pair(0, h))

    @property
    def designated_tail(self):
        last = len(self.parts) - 1
        t = self._tail(last)
        return None if t is None else pair(0, pair(last, t))

    def _ordinary_codes(self, i):
        """Codes of part i's vertices that are not glued, increasing."""
        ends, _ = self._glued(i)
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
    a heap popped from the root of a tree (a child's code exceeds its
    parent's), by merging a disjoint union's parts, by a code scan for a
    ForestGraph, and else in p's own order."""
    if isinstance(p, DisjointUnion):
        yield from heapq.merge(*(map(partial(pair, i), _code_order(q))
                                 for i, q in enumerate(p.parts)))
    elif isinstance(p, ForestGraph):
        yield from CountableGraph.iter_vertices(p)
    elif not isinstance(p, (TreeAsGraph, Layered)):
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
    "FullBinaryTree": lambda: TreeAsGraph(FullBinary()),
}


def standard(kind, *params):
    if kind in _STANDARD:
        if params:
            raise BadParam("%s takes no parameter" % kind)
        return _STANDARD[kind]()
    table = {"RayN": ray_n, "CycleN": cycle_n, "CompleteN": complete_n,
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
