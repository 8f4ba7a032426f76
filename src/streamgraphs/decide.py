"""Decision layer: pruned backtracking embedding search, fueled semideciders
against stream-named hosts, quantifier predicates for the omega-branching
tree/forest families, and the decidable well-foundedness test for certified
binary trees.

Refutations are only issued with a finiteness certificate; fuel exhaustion
alone yields Unknown.
"""

import itertools

from .errors import (BadParam, DegreeUnknown, PredicateUnsupported,
                     PromiseViolation, UndecidableWithoutCertificate)
from .graphs import (OMEGA, CompleteN, CountableGraph, DisjointUnion, Finite,
                     FinGraph, ForestF, OmegaCopies, TreeAsGraph, TreeT, _mul)
from .spaces import SpaceName, truncate
from .streams import Periodic, infinitely_often, occurrences, zero_from
from .trees import (DisjointTreeUnion, FiniteTree, FullBinary, LevelRule,
                    SinglePath)


# ---------------------------------------------------------------------------
# Embeddings and verdicts
# ---------------------------------------------------------------------------

class Embedding:
    """Injective vertex map witnessing a (induced) subgraph copy."""

    def __init__(self, mapping):
        self.mapping = dict(mapping)

    def pairs(self):
        return sorted(self.mapping.items())

    def check(self, g, h, induced=False):
        m = self.mapping
        if set(m) != set(g.vertices):
            return False
        if len(set(m.values())) != len(m):
            return False
        if not all(h.has_vertex(v) for v in m.values()):
            return False
        for a in g.vertices:
            for b in g.vertices:
                if a >= b:
                    continue
                if g.has_edge(a, b) and not h.has_edge(m[a], m[b]):
                    return False
                if induced and not g.has_edge(a, b) and h.has_edge(m[a], m[b]):
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, Embedding) and self.mapping == other.mapping

    def __repr__(self):
        return "Embedding(%r)" % (self.pairs(),)


class Verdict:
    """Tri-state result of a fueled query."""

    def __init__(self, kind, witness=None, reason=None, fuel_spent=0):
        assert kind in ("found", "refuted", "unknown")
        self.kind = kind
        self.witness = witness
        self.reason = reason
        self.fuel_spent = fuel_spent

    @classmethod
    def found(cls, witness):
        return cls("found", witness=witness)

    @classmethod
    def refuted(cls, reason):
        return cls("refuted", reason=reason)

    @classmethod
    def unknown(cls, fuel_spent):
        return cls("unknown", fuel_spent=fuel_spent)

    def __repr__(self):
        if self.kind == "found":
            return "Found(%r)" % (self.witness,)
        if self.kind == "refuted":
            return "Refuted(%r)" % (self.reason,)
        return "Unknown(fuel=%d)" % self.fuel_spent


def embeddings(g, h, induced=False, exclude=()):
    """Every (induced) embedding of g into h that avoids the host vertices
    in `exclude`, as a dict, in lexicographic order of the images taken
    over the sorted vertices of g. h is a FinGraph or anything else with
    an `adjacency` mapping, such as a HostView.

    Backtracks over the sorted pattern vertices. A pattern vertex's
    candidates are the common neighbours of the images of its mapped
    neighbours (every host vertex when it has none), in sorted order, minus
    the used and excluded ones, those of smaller degree and, when induced,
    those adjacent to the image of a mapped non-neighbour (Ullmann 1976;
    Cordella et al. 2004). Every pruned candidate fails the plain adjacency
    test or has too few neighbours to extend, so the order of the hits is
    that of the exhaustive search.
    """
    return _extend(g, h.adjacency, sorted(g.vertices), {}, exclude, induced)


def _extend(g, hadj, order, start, exclude=(), induced=False, near=None):
    """Every extension of the partial embedding `start` (trusted as given)
    to the pattern vertices of `order`, placed in that order with the
    candidate rules of `embeddings`, as a dict; the images of `order` come
    in lexicographic order. A vertex without mapped neighbours draws its
    candidates from near(v), a sorted list of host vertices, where that
    is not None, else from every host vertex."""
    gs = list(start) + list(order)
    n = len(gs)
    k = len(start)
    gadj = g.adjacency
    if n > len(hadj):
        return
    if n == k:
        yield dict(start)
        return
    need = [len(gadj[v]) for v in gs]
    mapped_nbrs = [[j for j in range(i) if gs[j] in gadj[v]]
                   for i, v in enumerate(gs)]
    mapped_non = [[j for j in range(i) if gs[j] not in gadj[v]]
                  if induced else [] for i, v in enumerate(gs)]
    free = {}
    image = list(start.values())
    used = set(image)

    def candidates(i):
        blocked = used.union(*[hadj[image[j]] for j in mapped_non[i]])
        nbrs = mapped_nbrs[i]
        if not nbrs:
            if i not in free:
                pool = near(gs[i]) if near else None
                if pool is None:
                    pool = sorted(hadj)
                free[i] = [u for u in pool
                           if len(hadj[u]) >= need[i] and u not in exclude]
            return iter([u for u in free[i] if u not in blocked])
        common = set.intersection(*[hadj[image[j]] for j in nbrs])
        if exclude:
            common.difference_update(exclude)
        d = need[i]
        return iter([u for u in sorted(common)
                     if u not in blocked and len(hadj[u]) >= d])

    stack = [candidates(k)]
    while stack:
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            if stack:
                used.discard(image.pop())
            continue
        image.append(u)
        used.add(u)
        if len(image) == n:
            yield dict(zip(gs, image))
            used.discard(image.pop())
        else:
            stack.append(candidates(len(image)))


def least_new_embedding(g, h, vertices, edges, exclude=()):
    """The least embedding of g into h, in the order of `embeddings`, that
    maps some pattern vertex onto one of the host `vertices` or some
    pattern edge onto one of the host `edges`, avoiding `exclude`; or None.

    When h grew from an earlier graph by exactly those vertices and edges,
    these are the embeddings the earlier graph lacks. Each anchor (every
    pattern vertex on every new vertex, every pattern edge on every new
    edge in both orientations) is pinned, and the other pattern vertices
    are placed in sorted order; one at pattern distance d from the anchor
    lies within host distance d of its image, which keeps the search near
    the anchor. The answer is the least first hit over all anchors.
    """
    hadj, gadj = h.adjacency, g.adjacency
    gs = sorted(g.vertices)
    both = [e for x, y in edges for e in ((x, y), (y, x))]
    anchors = itertools.chain(
        (((p,), (u,)) for p in gs for u in vertices),
        ((e, f) for e in sorted(g.edges) for f in both))
    plans = {}   # pins -> (other vertices, pattern distance from the pins)
    best = None
    for pins, images in anchors:
        if any(u in exclude or len(hadj[u]) < len(gadj[p])
               for p, u in zip(pins, images)):
            continue
        if pins not in plans:
            plans[pins] = ([v for v in gs if v not in pins],
                           _distances(gadj, pins))
        order, dist = plans[pins]
        ball = {}

        def near(v):
            if v not in dist:
                return None
            if not ball:
                ball.update(_distances(hadj, images, max(dist.values())))
            return sorted(u for u, d in ball.items() if d <= dist[v])

        hit = next(_extend(g, hadj, order, dict(zip(pins, images)), exclude,
                           near=near), None)
        if hit is not None:
            key = [hit[v] for v in gs]
            if best is None or key < best:
                best = key
    return None if best is None else dict(zip(gs, best))


def _distances(adj, sources, radius=None):
    """Breadth-first distance from the nearest source, for every vertex
    within `radius` (unbounded when None)."""
    dist = dict.fromkeys(sources, 0)
    frontier = list(dist)
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def fin_subgraph(g, h, induced=False):
    """Lexicographically least embedding of g into h, or None: the first
    hit of `embeddings`, "least" referring to the association list ordered
    by source vertex.

    A copy's image induces a subgraph of minimum degree >= delta(g), so it
    lies in the delta(g)-core of h; the search skips the rest of h, which
    leaves the hits and their order as they are."""
    k = min(map(len, g.adjacency.values()), default=0)
    outside = core_outside(h.adjacency, k, len(g.vertices)) if k > 1 else ()
    if outside is None:
        return None
    for m in embeddings(g, h, induced, outside):
        return Embedding(m)
    return None


def core_outside(adj, k, least=0):
    """The vertices outside the k-core of the graph with adjacency `adj`,
    which is what is left after repeatedly deleting a vertex with fewer
    than k neighbours left (Batagelj and Zaversnik 2003); None as soon as
    fewer than `least` vertices are left. Costs O(vertices + edges at the
    deleted vertices)."""
    out = {u for u, nbrs in adj.items() if len(nbrs) < k}
    left = len(adj) - len(out)
    if left < least:
        return None
    stack = list(out)
    deg = {}
    while stack:
        for w in adj[stack.pop()]:
            if w not in out:
                deg[w] = d = deg.get(w, len(adj[w])) - 1
                if d < k:
                    out.add(w)
                    stack.append(w)
                    left -= 1
                    if left < least:
                        return None
    return out


def _host_exhausted(name, fuel):
    """True when the name certifies there is nothing beyond the prefix and
    the fuel covers the whole prefix."""
    top = zero_from(name.stream)
    return top is not None and fuel >= top


def semidecide_s(g, host, induced=False, fuel=1000):
    """Fueled (induced-)subgraph semidecider against a Gr or EGr name."""
    if not isinstance(host, SpaceName):
        raise BadParam("semidecide_s expects a SpaceName host")
    return _semidecide_in(truncate(host, fuel), g, host, induced, fuel)


def semidecide_clique(n, host, induced=False, fuel=1000):
    """semidecide_s for the pattern K_n, which is built only when the window
    of `fuel` positions holds n vertices."""
    fin = truncate(host, fuel)
    if n > len(fin.vertices):
        return _no_copy(host, fuel)
    return _semidecide_in(fin, CompleteN(n).materialize(), host, induced,
                          fuel)


def _semidecide_in(fin, g, host, induced, fuel):
    emb = fin_subgraph(g, fin, induced)
    if emb is not None:
        return Verdict.found(emb)
    return _no_copy(host, fuel)


def _no_copy(host, fuel):
    if _host_exhausted(host, fuel):
        return Verdict.refuted("host certified finite and exhausted")
    return Verdict.unknown(fuel)


# ---------------------------------------------------------------------------
# Sigma-2 decider for non-complete finite patterns
# ---------------------------------------------------------------------------

def _is_complete(g):
    n = len(g.vertices)
    return len(g.edges) == n * (n - 1) // 2


def _sufficient_window(parts, pattern_size):
    """Finite graph holding one copy of each finite part and pattern_size
    copies of each omega-replicated finite part: enough host material for any
    induced copy of a pattern with pattern_size vertices."""
    expanded = []
    for part, count in parts:
        reps = 1 if count == 1 else pattern_size
        expanded.extend([part] * reps)
    vs, es = [], []
    for idx, part in enumerate(expanded):
        for v in part.vertices:
            vs.append((idx, v))
        for a, b in part.edges:
            es.append(((idx, a), (idx, b)))
    relabel = {v: i for i, v in enumerate(sorted(vs))}
    return FinGraph(relabel.values(),
                    [(relabel[a], relabel[b]) for a, b in es])


def _algebra_parts(g):
    """Flatten a graph algebra value into [(FinGraph, 1 or OMEGA)] parts, or
    None when it is not a finite/omega-replicated disjoint union."""
    if isinstance(g, FinGraph):
        return [(g, 1)]
    if isinstance(g, Finite):
        return [(g.materialize(), 1)]
    if isinstance(g, OmegaCopies):
        inner = _algebra_parts(g.base)
        if inner is None:
            return None
        return [(fin, OMEGA) for fin, _ in inner]
    if isinstance(g, DisjointUnion):
        out = []
        for part in g.parts:
            inner = _algebra_parts(part)
            if inner is None:
                return None
            out.extend(inner)
        return out
    if isinstance(g, CountableGraph) and g.vertex_count() != OMEGA:
        return [(g.materialize(), 1)]
    return None


def certified_window(host):
    """The whole graph named by an EGr host whose stream is Periodic (its
    emitted code set is then finite and shows within the head plus one
    period), else None."""
    s = host.stream
    if not isinstance(s, Periodic):
        return None
    return truncate(host, s.cert_start + len(s.period))


def decide_is_egr_noncomplete(g, host):
    """Decide g <=_is denoted(host) for a non-complete finite pattern g
    against a certified enumeration name.

    Certificates accepted: a Periodic stream (the emitted code set is then
    finite and fully visible), or meta["denotes"] naming a finite or
    omega-replicated union, or meta["sigma2"] gadget provenance.
    """
    if _is_complete(g):
        raise BadParam("pattern must not be complete")
    if host.space != "EGr":
        raise BadParam("expected an EGr name")
    fin = certified_window(host)
    if fin is not None:
        return fin_subgraph(g, fin, induced=True) is not None
    meta = host.meta
    if "sigma2" in meta:
        driver, pattern = meta["sigma2"]
        if infinitely_often(driver, 1):
            return False  # denoted graph is complete on omega vertices
        base = truncate(host, meta["sigma2_stable_fuel"])
        window = _sufficient_window(
            [(base, 1), (pattern, OMEGA)], len(g.vertices))
        return fin_subgraph(g, window, induced=True) is not None
    if "denotes" in meta:
        target = meta["denotes"]
        parts = _algebra_parts(target)
        if parts is not None:
            window = _sufficient_window(parts, len(g.vertices))
            return fin_subgraph(g, window, induced=True) is not None
        if target.__class__.__name__ == "CompleteOmega":
            return False
    raise UndecidableWithoutCertificate(
        "host carries no certificate usable for an exists-forall decision")


# ---------------------------------------------------------------------------
# Certified forests and the rank predicates
# ---------------------------------------------------------------------------

class CertTree:
    """Finitely described rooted tree: explicit children with multiplicities
    in N ∪ {omega}, plus an optional stream-driven child family (one child
    shaped `shape` for every index n with p(n) = 0)."""

    def __init__(self, children=(), stream_children=None):
        self.children = [(sub, mult) for sub, mult in children]
        self.stream_children = stream_children  # (CertifiedStream, CertTree)

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
        total = 1 if self.rank() >= k else 0
        for sub, mult in self.child_multiplicities():
            total += _mul(mult, sub.count_rank_ge(k))
            if total == OMEGA:
                return OMEGA
        return total

    def height(self):
        kids = self.child_multiplicities()
        if not kids:
            return 0
        return 1 + max(sub.height() for sub, _ in kids)

    def node_count(self):
        total = 1
        for sub, mult in self.child_multiplicities():
            total += _mul(mult, sub.node_count())
            if total == OMEGA:
                return OMEGA
        return total


class CertForest:
    """A disjoint union of CertTrees with multiplicities."""

    def __init__(self, trees):
        self.trees = [(t, mult) for t, mult in trees]

    def count_rank_ge(self, k):
        total = 0
        for t, mult in self.trees:
            total += _mul(mult, t.count_rank_ge(k))
            if total == OMEGA:
                return OMEGA
        return total

    def height(self):
        return max((t.height() for t, _ in self.trees), default=0)


def _chain_tree(k):
    """The height-k tree with omega branching at every internal node."""
    t = CertTree()
    for _ in range(k):
        t = CertTree(children=[(t, OMEGA)])
    return t


def _spanning_trees(fin):
    """One CertTree (a BFS spanning tree) per connected component."""
    out = []
    for comp in fin.components():
        root = min(comp)
        seen = {root}
        nodes = {root: CertTree()}
        order = [root]
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w in sorted(fin.neighbors(v)):
                if w in seen:
                    continue
                seen.add(w)
                nodes[w] = CertTree()
                nodes[v].children.append((nodes[w], 1))
                order.append(w)
                queue.append(w)
        out.append(nodes[root])
    return out


def to_cert_forest(h):
    """Structural conversion of a graph algebra value to a CertForest."""
    forest = getattr(h, "cert_forest", None)
    if forest is not None:
        return forest
    if isinstance(h, FinGraph):
        return CertForest([(t, 1) for t in _spanning_trees(h)])
    if isinstance(h, Finite):
        return to_cert_forest(h.materialize())
    if isinstance(h, TreeT):
        return CertForest([(_chain_tree(h.k), 1)])
    if isinstance(h, ForestF):
        return CertForest([(_chain_tree(h.k), OMEGA)])
    if isinstance(h, OmegaCopies):
        inner = to_cert_forest(h.base)
        return CertForest([(t, OMEGA) for t, _ in inner.trees])
    if isinstance(h, DisjointUnion):
        trees = []
        for part in h.parts:
            trees.extend(to_cert_forest(part).trees)
        return CertForest(trees)
    if isinstance(h, TreeAsGraph) and isinstance(h.tree, FiniteTree):
        return to_cert_forest(h.materialize())
    if isinstance(h, CountableGraph):
        try:
            finite = h.vertex_count() != OMEGA
        except DegreeUnknown:
            finite = False
        if finite:
            return to_cert_forest(h.materialize())
    raise PredicateUnsupported(
        "no structural exists-infinitely-many support for %r" % (h,))


def predicate_tf(kind, k, h):
    """T_{2k+1} ⊆_s h (kind "T") or F_{2k+2} ⊆_s h (kind "F"), evaluated
    structurally: a copy of the height-k omega-branching tree hangs below any
    vertex of rank >= k, and the forest needs infinitely many such."""
    if kind not in ("T", "F"):
        raise BadParam("kind must be 'T' or 'F'")
    if k < 0:
        raise BadParam("k must be >= 0")
    forest = to_cert_forest(h)
    count = forest.count_rank_ge(k)
    if kind == "T":
        return count >= 1
    return count == OMEGA


# ---------------------------------------------------------------------------
# Well-foundedness for certified binary trees
# ---------------------------------------------------------------------------

def wf2(tree):
    """Well-foundedness of a certified binary tree: true iff it has no
    infinite path, via the König level test (finitely branching: ill-founded
    iff every level is nonempty)."""
    if isinstance(tree, FiniteTree):
        return True
    if isinstance(tree, SinglePath):
        return False
    if isinstance(tree, FullBinary):
        return False
    if isinstance(tree, DisjointTreeUnion):
        return all(wf2(part) for part in tree.parts)
    if isinstance(tree, LevelRule):
        bound = tree.depth_bound
        if bound is None:
            raise PredicateUnsupported("LevelRule tree without a depth bound")
        for depth in range(bound + 2):
            if not tree.nodes_at_depth(depth):
                return True
        raise PromiseViolation(
            "level %d nonempty despite certified depth bound %d"
            % (bound + 1, bound))
    raise PredicateUnsupported("tree kind carries no certificate")
