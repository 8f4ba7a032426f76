"""Decision layer: pruned backtracking embedding search, fueled semideciders
against stream-named hosts, quantifier predicates for the omega-branching
tree/forest families, and the decidable well-foundedness test for certified
binary trees.

Refutations are only issued with a finiteness certificate; fuel exhaustion
alone yields Unknown.
"""

from .errors import (BadParam, DegreeUnknown, PredicateUnsupported,
                     StreamGraphsError, UndecidableWithoutCertificate)
from .graphs import (OMEGA, CertForest, CertTree, CountableGraph,
                     DisjointUnion, FinGraph, OmegaCopies, complete_n)
from .spaces import HostView, SpaceName, truncate
from .streams import Periodic, infinitely_often, pair, zero_from
from .trees import DisjointTreeUnion, FiniteTree, FullBinary, SinglePath


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
    return _extend(_tables(g, sorted(g.vertices), induced), h.adjacency, (),
                   exclude)


def _tables(g, gs, induced):
    """`_extend`'s tables for placing the pattern vertices gs in order: gs,
    their degrees, and where in gs their earlier neighbours and (when
    induced) earlier non-neighbours are."""
    gadj = g.adjacency
    return (gs, [len(gadj[v]) for v in gs],
            [[j for j in range(i) if gs[j] in gadj[v]]
             for i, v in enumerate(gs)],
            [[j for j in range(i) if gs[j] not in gadj[v]] if induced else []
             for i, v in enumerate(gs)])


def _extend(tables, hadj, start, exclude=(), near=None, hosts=None):
    """Every extension, as a dict, of the map of the first len(start)
    vertices of the order of `tables` onto the host vertices `start` (trusted
    as given), placing the rest in turn with the candidate rules of
    `embeddings`; the images come in lexicographic order. A vertex without
    mapped neighbours draws its candidates from near(v), a sorted list of
    host vertices, where that is not None, else from `hosts`, the sorted
    host vertices a caller keeps (every host vertex when None; the first
    vertex placed reads them once, so lazily)."""
    gs, need, mapped_nbrs, mapped_non = tables
    n = len(gs)
    k = len(start)
    if n > len(hadj):
        return
    if n == k:
        yield dict(zip(gs, start))
        return
    free = {}
    image = list(start)
    used = set(image)

    def candidates(i):
        # `used` itself holds the images above level i at every next()
        non = mapped_non[i]
        blocked = used.union(*[hadj[image[j]] for j in non]) if non else used
        nbrs = mapped_nbrs[i]
        if not nbrs:
            pool = free.get(i)
            if pool is None:
                pool = near(gs[i]) if near else None
                d = need[i]
                if pool is None:
                    pool = sorted(hadj) if hosts is None else hosts
                pool = (u for u in pool
                        if len(hadj[u]) >= d and u not in exclude)
                if i == k:
                    return (u for u in pool if u not in blocked)
                pool = free[i] = list(pool)
            return iter([u for u in pool if u not in blocked])
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


class Plan:
    """A pattern set up once per solver call for the first-hit searches of
    all its stages: the sorted vertices, the vertex and edge pins with their
    degrees, and per pin set `_extend`'s tables and the pattern distances."""

    def __init__(self, g):
        self.g, gadj = g, g.adjacency
        self.vertices = sorted(g.vertices)
        self.pins = [((v,), len(gadj[v])) for v in self.vertices]
        self.least = min([d for _, d in self.pins], default=0)
        self.edge_pins = [((a, b), len(gadj[a]), len(gadj[b]))
                          for a, b in sorted(g.edges)]
        self._pinned = {}   # pins -> (tables, distances from the pins)

    def first(self, hadj, pins=(), images=(), exclude=(), hosts=None):
        """The first embedding in the order of `embeddings` that maps the
        pattern vertices `pins` onto the host vertices `images` and avoids
        `exclude`, or None. A vertex at pattern distance d from the pins
        lies within host distance d of their images; the others are drawn
        from `hosts` as `_extend` says."""
        got = self._pinned.get(pins)
        if got is None:
            order = list(pins) + [v for v in self.vertices if v not in pins]
            got = self._pinned[pins] = (_tables(self.g, order, False),
                                        _distances(self.g.adjacency, pins))
        tables, dist = got
        ball = {}

        def near(v):
            if v not in dist:
                return None
            if not ball:
                ball.update(_distances(hadj, images, max(dist.values())))
            return sorted(u for u, d in ball.items() if d <= dist[v])

        return next(_extend(tables, hadj, images, exclude, near, hosts), None)


def least_new_embedding(plan, h, vertices, edges, exclude=()):
    """The least embedding of the plan's pattern into h, in the order of
    `embeddings`, that maps some pattern vertex onto one of the host
    `vertices` or some pattern edge onto one of the host `edges`, avoiding
    `exclude`; or None. When h grew from an earlier graph by exactly those
    vertices and edges, these are the embeddings the earlier graph lacks.

    The answer is the least first hit (`Plan.first`) over the anchors: every
    pattern vertex on every new vertex and every pattern edge on every new
    edge in both orientations, where the images avoid `exclude` and have the
    degrees of their pins. When every pattern vertex has an edge, the edge
    anchors alone find the same least hit: an edge at a new vertex is new."""
    hadj, first = h.adjacency, plan.first
    hits = []
    for u in vertices if plan.least == 0 else ():
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
    if not hits:
        return None
    gs = plan.vertices
    keys = [[hit[v] for v in gs] for hit in hits if hit is not None]
    return dict(zip(gs, min(keys))) if keys else None


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


def fin_subgraph(g, h, induced=False, accept=None):
    """Lexicographically least embedding of g into h, or None: the first
    hit of `embeddings` (that `accept` takes, when given), "least" referring
    to the association list ordered by source vertex.

    A copy's image induces a subgraph of minimum degree >= delta(g), so it
    lies in the delta(g)-core of h; the search skips the rest of h, which
    leaves the hits and their order as they are. A copy also needs as many
    edges as g has; h's is half its degree sum, as only h.adjacency is read."""
    if 2 * len(g.edges) > sum(map(len, h.adjacency.values())):
        return None
    k = min(map(len, g.adjacency.values()), default=0)
    outside = core_outside(h.adjacency, k, len(g.vertices)) if k > 1 else ()
    if outside is None:
        return None
    for m in embeddings(g, h, induced, outside):
        if accept is None or accept(m):
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


def _semidecide_in(fin, g, host, induced, fuel):
    emb = fin_subgraph(g, fin, induced)
    return Verdict.found(emb) if emb is not None else _no_copy(host, fuel)


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
    expanded = list(enumerate(
        part for part, count in parts
        for _ in range(1 if count == 1 else pattern_size)))
    relabel = {v: i for i, v in enumerate(sorted(
        (idx, v) for idx, part in expanded for v in part.vertices))}
    return FinGraph(relabel.values(),
                    [(relabel[idx, a], relabel[idx, b])
                     for idx, part in expanded for a, b in part.edges])


def _algebra_parts(g):
    """Flatten a graph algebra value into [(FinGraph, 1 or OMEGA)] parts, or
    None when it is not a finite/omega-replicated disjoint union."""
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


def certified_window(host, view=None):
    """The whole graph named by an EGr host whose stream is Periodic (its
    emitted code set is then finite and shows within the head plus one
    period), read through `view` when given, else None."""
    s = host.stream
    if host.space != "EGr" or not isinstance(s, Periodic):
        return None
    return (view or HostView(host)).graph(s.cert_start + len(s.period))


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


def decide(g, host, induced=False, fuel=1000):
    """Verdict on a copy of g (induced when `induced`; g a FinGraph, or an
    int n for K_n) in a Gr or EGr host, from `fuel` positions and its
    certificates. Unless the window is the whole graph, a non-complete g's
    induced copy is the least window copy whose non-edges are the host's:
    read in both bits (Gr), or confirmed by the whole graph."""
    if isinstance(g, int):   # K_n, built only when the window holds n vertices
        fin = truncate(host, fuel)
        if g > len(fin.adjacency):
            return _no_copy(host, fuel)
        return _semidecide_in(fin, complete_n(g), host, induced, fuel)
    if not induced or _is_complete(g):
        return semidecide_s(g, host, induced, fuel)
    view = HostView(host)   # one read for the whole graph and the window
    window = certified_window(host, view)
    copy = None if window is None else fin_subgraph(g, window, induced=True)
    try:   # decide_is_egr_noncomplete, with the window searched only once
        if host.space == "EGr" and (copy is None if window is not None else
                                    not decide_is_egr_noncomplete(g, host)):
            return Verdict.refuted("induced copy impossible")
    except StreamGraphsError:
        pass   # no certificate decides it; the window still may
    fin = view.graph(fuel)
    if _host_exhausted(host, fuel):
        return _semidecide_in(fin, g, host, True, fuel)
    whole, gr = host.meta.get("denotes", window), host.space == "Gr"

    def non_edge(x, y):
        return (gr and pair(min(x, y), max(x, y)) < fuel
                or whole is not None and not whole.has_edge(x, y))

    emb = None if whole is None and not gr else fin_subgraph(
        g, fin, True, lambda m: all(g.has_edge(a, b) or non_edge(m[a], m[b])
                                    for a in m for b in m if a < b))
    if emb is None:
        emb = copy
    return Verdict.found(emb) if emb is not None else Verdict.unknown(fuel)


# ---------------------------------------------------------------------------
# Certified forests and the rank predicates
# ---------------------------------------------------------------------------

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
    if isinstance(h, CertForest):
        return h
    if isinstance(h, FinGraph):
        return CertForest([(t, 1) for t in _spanning_trees(h)])
    if isinstance(h, OmegaCopies):
        inner = to_cert_forest(h.base)
        return CertForest([(t, OMEGA) for t, _ in inner.trees])
    if isinstance(h, DisjointUnion):
        trees = []
        for part in h.parts:
            trees.extend(to_cert_forest(part).trees)
        return CertForest(trees)
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
    """Well-foundedness of a certified tree: true iff it has no infinite
    path, read off the tree kind (finite trees are well-founded, single
    paths and the full binary tree are not, a disjoint union is iff every
    part is); any other kind raises PredicateUnsupported."""
    if isinstance(tree, FiniteTree):
        return True
    if isinstance(tree, SinglePath):
        return False
    if isinstance(tree, FullBinary):
        return False
    if isinstance(tree, DisjointTreeUnion):
        return all(wf2(part) for part in tree.parts)
    raise PredicateUnsupported("tree kind carries no certificate")
