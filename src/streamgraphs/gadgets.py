"""Reduction gadgets: stream transducers turning a source problem instance
into a graph (name) whose containment structure encodes the answer, each
paired with the decoder that extracts information back from a solution.
"""

import itertools
import threading

from .decide import wf2
from .errors import (BadParam, HeightExceeded, MalformedInstance,
                     NoIllFoundedCertificate, NotConvergent, NotInB)
from .graphs import (OMEGA, CertTree, CountableGraph, DisjointUnion,
                     ForestGraph, TreeAsGraph, _mul)
from .spaces import SpaceName, read_pairs
from .streams import (CertifiedStream, GeneratorBacked, Indicator, Periodic,
                      StagedPairs, first_index, infinitely_often, limit,
                      occurrences, pair, unpair)
from .trees import coinfinite_wrap, nonmember_enumeration, string_decode


class GadgetOutput:
    """A gadget's product: the graph (name) plus whatever finite metadata the
    paired decoder needs."""

    def __init__(self, name, decoder_hint=None):
        self.name = name
        self.decoder_hint = decoder_hint


# ---------------------------------------------------------------------------
# Sigma-1: one frozen copy of G appears iff the stream ever hits 1
# ---------------------------------------------------------------------------

def sigma1_gadget(p, g):
    """Gr name denoting the empty graph if p is all zero, else a single copy
    of g placed at the index of p's first 1."""
    if not g.vertices:
        raise BadParam("pattern must be nonempty")
    labels = sorted(g.vertices)
    n_verts = len(labels)

    def placed_bit(t, i, j):
        # copy of g on labels t .. t+n_verts-1
        if not (t <= i < t + n_verts and t <= j < t + n_verts):
            return 0
        if i == j:
            return 1
        return 1 if g.has_edge(labels[i - t], labels[j - t]) else 0

    if isinstance(p, Periodic):
        t = first_index(p, 1)
        span = range(t, t + n_verts) if t is not None else ()
        ones = {pair(i, j) for i in span for j in span if placed_bit(t, i, j)}
        return SpaceName("Gr", Indicator(ones), meta={"sigma1": (p, g)})

    def bit(c):
        i, j = unpair(c)
        budget = min(i, j)
        for t in range(budget + 1):
            if p.eval(t) == 1:
                return placed_bit(t, i, j)
        return 0

    return SpaceName("Gr", GeneratorBacked(bit), meta={"sigma1": (p, g)})


# ---------------------------------------------------------------------------
# Sigma-2: K_n + omega copies of G, collapsing to K_omega on infinitely many 1s
# ---------------------------------------------------------------------------

class _Sigma2:
    """Stage machine: every stage spawns a fresh copy of g; a 1 in the driver
    makes every vertex allocated so far pairwise adjacent."""

    def __init__(self, p, g):
        self.p = p
        self.labels = sorted(g.vertices)
        self.g = g
        self.next_vertex = 0
        self.present = set()   # canonical (a, b) edges already emitted
        self.stages = 0

    def run_stage(self):
        """The stage's pairs. The driver is read first, so a read that
        raises leaves the machine as it was."""
        collapse = self.p.eval(self.stages) == 1
        base = self.next_vertex
        self.next_vertex += len(self.labels)
        out = [(v, v) for v in range(base, self.next_vertex)]
        rank = {v: r for r, v in enumerate(self.labels)}
        edges = [(base + rank[a], base + rank[b]) for a, b in self.g.edges]
        if collapse:
            edges = itertools.chain(
                edges, itertools.combinations(range(self.next_vertex), 2))
        for a, b in edges:
            a, b = min(a, b), max(a, b)
            if (a, b) not in self.present:
                self.present.add((a, b))
                out.append((a, b))
        self.stages += 1
        return out


def sigma2_gadget(p, g):
    """EGr name denoting K_n + omega-many copies of g when p has finitely
    many 1s (n = vertices spawned up to the last 1), and K_omega otherwise."""
    n = len(g.vertices)
    if not n:
        raise BadParam("pattern must be nonempty")
    if len(g.edges) == n * (n - 1) // 2:
        raise BadParam("pattern must not be complete")
    machine = _Sigma2(p, g)
    meta = {"sigma2": (p, g)}
    if isinstance(p, Periodic):
        if not infinitely_often(p, 1):
            ones = occurrences(p, 1)
            last = ones[-1] if ones else -1
            probe = _Sigma2(p, g)
            meta["sigma2_stable_fuel"] = max(
                sum(len(probe.run_stage()) for _ in range(last + 1)), 1)
    return SpaceName("EGr", StagedPairs(machine.run_stage), meta=meta)


# ---------------------------------------------------------------------------
# Forests: the quantifier-hierarchy lift
# ---------------------------------------------------------------------------

def forests_lift(arg, k=None):
    """Quantifier lift for forests.

    Base case: arg is a binary stream p; the result is the single tree with
    one leaf under the root for every n with p(n) = 0.

    Step case: arg is a list whose entries are forest graphs or
    ("omega", forest graph); each part's trees are wired under a fresh root
    (with omega multiplicity for omega entries, which is what pushes the
    witness rank up a level) and the roots are disjoint-unioned.  With k
    given, parts taller than k are rejected.
    """
    if isinstance(arg, CertifiedStream):
        root = CertTree(stream_children=(arg, CertTree()))
        return ForestGraph([(root, 1)])
    trees = []
    for entry in arg:
        scale = 1
        if isinstance(entry, tuple):
            tag, part = entry
            if tag != "omega":
                raise BadParam("unknown part tag %r" % (tag,))
            scale = OMEGA
        else:
            part = entry
        if k is not None and part.height() > k:
            raise HeightExceeded(
                "part of height %r exceeds bound %r" % (part.height(), k))
        children = [(sub, _mul(scale, m)) for sub, m in part.trees]
        trees.append((CertTree(children=children), 1))
    return ForestGraph(trees)


# ---------------------------------------------------------------------------
# ACC: closed choice over co-singletons via ray search
# ---------------------------------------------------------------------------

def _path_step(a, b):
    """The pairs of a new vertex b, then of its edge to a."""
    return [(b, b), (min(a, b), max(a, b))]


class _AccMachine:
    """Stage machine of the growing-ray construction: a plain ray 1-2-3-...
    until a removal arrives, then a detour edge to vertex 0 and a fresh
    infinite tail from 0. `emitted` is the name's stream and `value` its
    eval."""

    def __init__(self, stream):
        self.stream = stream
        self.stages = 0
        self.removed = None
        self.top = None        # last vertex of the initial segment
        self.tail_prev = None  # last emitted tail vertex, once the tail runs
        self.emitted = StagedPairs(self.run_stage)
        self.value = self.emitted.eval

    def run_stage(self):
        """The stage's pairs. The input is read and checked first, so a
        stage that raises leaves the machine as it was."""
        s = self.stages
        val = 0
        if s and self.tail_prev is None:
            val = self.stream.eval(s - 1)
            if val and self.removed not in (None, val - 1):
                raise MalformedInstance("two distinct removals")
        self.stages += 1
        if s == 0:
            self.top = 1
            return [(1, 1)]
        if self.tail_prev is not None:
            self.tail_prev += 1
            return _path_step(self.tail_prev - 1, self.tail_prev)
        if val != 0:
            n = val - 1
            fresh, self.removed = self.removed is None, n
            # a removed 0 never joins the ray (any triple avoids it), so
            # the ray just goes on
            if fresh and n != 0:
                out = []
                for v in range(self.top + 1, n + 1):
                    out += _path_step(v - 1, v)
                self.top = max(self.top, n)
                # the detour to 0, then a tail from 0 with fresh labels
                self.tail_prev = self.top + 1
                return (out + _path_step(n, 0)
                        + _path_step(0, self.tail_prev))
        self.top += 1
        return _path_step(self.top - 1, self.top)


def acc_gadget(complement_enum):
    """EGr name of the ACC ray graph; 0 in the input stream means "nothing
    removed yet", m+1 means "m removed"."""
    if isinstance(complement_enum, Periodic):
        removals = {v - 1 for v in complement_enum.head
                    + complement_enum.period if v != 0}
        if len(removals) > 1:
            raise MalformedInstance("two distinct removals")
    machine = _AccMachine(complement_enum)
    name = SpaceName("EGr", machine.emitted, meta={"acc": machine})
    return GadgetOutput(name, decoder_hint=machine)


def acc_decode(solution, fuel=4000):
    """Extract a member of the input set from a ray solution: scan for a
    consecutive-integer triple j, j+1, j+2 along the solution and answer the
    middle vertex j+1 (never the removed number, by construction)."""
    edges = set()
    for t in range(fuel):   # a position at a time: stop at the first triple
        for i, j in read_pairs("EGr", solution.stream, t, t + 1)[1]:
            if i == j:
                continue
            a, b = min(i, j), max(i, j)
            edges.add((a, b))
            # no triple held before this edge, so one that holds now runs
            # through it, with middle a or a + 1 (the lesser first);
            # middles >= 2 keep the detour edge (0, 1) from faking one
            for m in (a, a + 1):
                if m >= 2 and (m - 1, m) in edges and (m, m + 1) in edges:
                    return m
    raise MalformedInstance("no consecutive triple in solution")


# ---------------------------------------------------------------------------
# lim2 <-> ray embedding
# ---------------------------------------------------------------------------

def _lim2_vertex_rule(q, v):
    if v == 0:
        return True
    if v % 2 == 0:
        return q.eval(v // 2 - 1) == 0
    return q.eval((v - 1) // 2) == 1


def _lim2_prev(q, v):
    """Previous present vertex on v's side (0 if none)."""
    step = 2
    w = v - step
    while w > 0:
        if _lim2_vertex_rule(q, w):
            return w
        w -= step
    return 0


def lim2_to_embR(q):
    """Gr name of a one-way ray: the even side extends when q says 0, the odd
    side when q says 1; the converging side is the infinite one."""

    def bit(c):
        i, j = unpair(c)
        if i == j:
            return 1 if _lim2_vertex_rule(q, i) else 0
        a, b = min(i, j), max(i, j)
        if not (_lim2_vertex_rule(q, a) and _lim2_vertex_rule(q, b)):
            return 0
        if a != 0 and a % 2 != b % 2:
            return 0
        return 1 if _lim2_prev(q, b) == a else 0

    return SpaceName("Gr", GeneratorBacked(bit), meta={"lim2": q})


def embR_decode(p):
    """Recover lim q from the first two vertices of a ray embedding into the
    lim2 gadget graph (parity table; the p(1)=0 corner is disambiguated by
    p(0)'s parity)."""
    a, b = p.eval(0), p.eval(1)
    if a < b:
        return 0 if b % 2 == 0 else 1
    if b == 0:
        return 1 if a % 2 == 0 else 0
    return 1 if b % 2 == 0 else 0


def embR_canonical_solution(q):
    """The ray embedding that starts at the finite side's far endpoint,
    walks down to 0 and climbs the infinite side (requires certified q)."""
    target = limit(q)
    if target not in (0, 1):
        raise NotConvergent("binary limit expected")
    finite_side = 1 - target
    horizon = q.cert_start
    fin = [v for v in range(1, 2 * horizon + 3)
           if v % 2 == (1 if finite_side == 1 else 0)
           and _lim2_vertex_rule(q, v)]
    descent = sorted(fin, reverse=True)

    def value(n):
        if n < len(descent):
            return descent[n]
        k = n - len(descent)   # 0 -> vertex 0, then climb the infinite side
        if k == 0:
            return 0
        count = 0
        v = 1 if target == 1 else 2
        while True:
            if _lim2_vertex_rule(q, v):
                count += 1
                if count == k:
                    return v
            v += 2

    return GeneratorBacked(value)


def ray_solution(path_vertex):
    """EGr name of the ray v0 - v1 - v2 - ... given by the vertex function:
    stage 0 emits v0, and stage t emits v_t and its edge to v_(t-1)."""
    t = 0

    def stage():
        nonlocal t
        b = path_vertex(t)
        out = _path_step(path_vertex(t - 1), b) if t else [(b, b)]
        t += 1
        return out

    return SpaceName("EGr", StagedPairs(stage))


def acc_canonical_solution(complement_enum):
    """The ray a solver finds in the ACC graph of a certified input, as an
    EGr name: 1, ..., n, then 0, then the tail after the initial segment
    once n >= 1 is removed; 1, 2, 3, ... when nothing (or 0) is removed."""
    s = complement_enum
    if not isinstance(s, Periodic):
        raise BadParam("the ACC input needs an EventuallyConstant or "
                       "Periodic certificate")
    machine = _AccMachine(s)
    horizon = s.cert_start + len(s.period)
    while machine.stages <= horizon:   # stage t + 1 reads input value t
        machine.run_stage()
    n, top = machine.removed or 0, machine.top

    def vertex(t):
        if not n or t < n:
            return t + 1
        return 0 if t == n else top + t - n

    return ray_solution(vertex)


# ---------------------------------------------------------------------------
# Cycles with boxes: path search through an ill-founded tree
# ---------------------------------------------------------------------------

def _p_size(n):
    return 3 * n + 3


def _f_size(s):
    return 3 * s + 4


def _g_size(x):
    return 3 * x + 5


class CyclesBox(CountableGraph):
    """The cycles-with-boxes host: for every n, omega copies of the cycle
    P_n, each with a box of chained G-cycles; enumeration of tree
    non-members attaches F-cycles to free docking vertices so that a full
    disjoint copy of all cycles forces choosing a path through the tree."""

    def __init__(self, tree):
        self.tree = coinfinite_wrap(tree)
        self._nonmembers = nonmember_enumeration(self.tree)
        self._next = 0
        self._lower = []        # vertex id -> its neighbours of smaller id
        self._components = {}   # key -> list of vertex ids (cycle order)
        self._docks = {}        # (n, i, k) -> vertex id
        self._dock_free = {}    # (n, i, k) -> bool
        self._stages = 0

    # -- construction ------------------------------------------------------

    def _fresh(self):
        v = self._next
        self._next += 1
        self._lower.append([])
        return v

    def _add_cycle(self, key, size, shared=None):
        shared = shared or {}
        ids = [shared.get(pos, None) for pos in range(size)]
        ids = [v if v is not None else self._fresh() for v in ids]
        for pos in range(size):
            a, b = ids[pos], ids[(pos + 1) % size]
            self._lower[max(a, b)].append(min(a, b))
        self._components[key] = ids
        return ids

    def _ensure_box(self, n, i, k):
        """Instantiate P_n^i's box chain down to index k."""
        pkey = ("P", n, i)
        if pkey not in self._components:
            p_ids = self._add_cycle(pkey, _p_size(n))
            x0 = pair(n, pair(i, 0))
            self._add_cycle(("G1", n, i, 0), _g_size(x0),
                            shared={0: p_ids[0]})
        j = 0
        while j <= k:
            gkey = ("G0", n, i, j)
            if gkey not in self._components:
                xj = pair(n, pair(i, j))
                g0 = self._add_cycle(gkey, _g_size(xj))
                self._docks[(n, i, j)] = g0[2]
                self._dock_free[(n, i, j)] = True
                xj1 = pair(n, pair(i, j + 1))
                self._add_cycle(("G1", n, i, j + 1), _g_size(xj1),
                                shared={0: g0[1]})
            j += 1

    def _attach_f(self, s, sigma):
        """Attach the cycle F_s to a free dock in box (n, sigma(n)) for each
        coordinate n (capped by the cycle's capacity)."""
        size = _f_size(s)
        coords = min(len(sigma), size // 2)
        shared = {}
        for n in range(coords):
            i = sigma[n]
            k = 0
            while True:
                self._ensure_box(n, i, k)
                if self._dock_free[(n, i, k)]:
                    break
                k += 1
            self._dock_free[(n, i, k)] = False
            shared[2 * n] = self._docks[(n, i, k)]
        self._add_cycle(("F", s), size, shared=shared)

    def run_stage(self):
        t = self._stages
        self._stages += 1
        for n in range(t + 1):
            for i in range(t + 1):
                self._ensure_box(n, i, t)
        sigma = string_decode(next(self._nonmembers))
        self._attach_f(t, sigma)

    # -- graph interface ---------------------------------------------------

    def _advance_past(self, v):
        while self._next <= v:
            self.run_stage()

    def has_vertex(self, v):
        return True   # the stages take every natural as a vertex in turn

    def has_edge(self, a, b):
        lo, hi = min(a, b), max(a, b)
        return lo < hi and lo in self.lower_neighbors(hi)

    def lower_neighbors(self, v):
        # every edge a stage adds touches a fresh vertex, larger than all
        # before it, so once v exists its list is settled
        self._advance_past(v)
        return list(self._lower[v])

    def vertex_count(self):
        return OMEGA


def cycles_box(tree):
    return CyclesBox(tree)


# ---------------------------------------------------------------------------
# EnumInf: recovering a characteristic function from any infinite subset
# ---------------------------------------------------------------------------

_PRIMES = [2]   # the least primes in order; appended to under the lock
_PRIMES_LOCK = threading.Lock()


def _first_primes(k):
    """The first k primes, sliced from one table that only grows, so a
    concurrent reader never sees it half-built."""
    with _PRIMES_LOCK:
        n = _PRIMES[-1]
        while len(_PRIMES) < k:
            n += 1
            if all(n % p for p in _PRIMES):
                _PRIMES.append(n)
    return _PRIMES[:k]


class CertifiedPiSet:
    """A set A with a computable witness level: lam(n) = 0 iff n in A, and
    otherwise 1 + the index of the co-class containing n."""

    def __init__(self, lam):
        self.lam = lam

    def chi(self, n):
        return 1 if self.lam(n) == 0 else 0


def enuminf_encode(a):
    """Stream enumerating B = { prod_{i<=k} p_i^(lam(i)+1) : k in N }.

    The +1 in the exponents keeps B infinite even when A = N (all lam = 0);
    recovery only needs the exponent pattern, which is preserved."""
    def element(k):
        primes = _first_primes(k + 1)
        prod = 1
        for i, p in enumerate(primes):
            prod *= p ** (a.lam(i) + 1)
        return prod
    return GeneratorBacked(element)


def enuminf_decode(enum, fuel=64):
    """Characteristic function of A from any enumeration of an infinite
    subset of B. chi(n) scans the positions t < fuel upward for the first
    element with more than n exponents; each position is read and factored
    once, and its exponents are kept for every later chi."""
    primes = _first_primes(64)
    seen = {}   # position -> exponents of its element

    def exponents(value):
        if value < 1:
            raise NotInB("%d is not a positive product of primes" % value)
        out = []
        rest = value
        for p in primes:
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
        return out

    def chi(n):
        for t in range(fuel):
            exps = seen.get(t)
            if exps is None:
                exps = seen[t] = exponents(enum.eval(t))
            if len(exps) > n:
                return 1 if exps[n] == 1 else 0
        raise NotInB("enumeration never reached index %d" % n)

    return GeneratorBacked(chi)


# ---------------------------------------------------------------------------
# Sigma-1-1 choice: pick an ill-founded tree
# ---------------------------------------------------------------------------

def sigma11_choice_gadget(trees):
    """Disjoint union of the trees viewed as graphs; any infinite-ray
    solution lives inside one ill-founded tree and its index is the answer."""
    if not trees:
        raise BadParam("need at least one tree")
    if all(wf2(t) for t in trees):
        raise NoIllFoundedCertificate("no certified ill-founded tree")
    return DisjointUnion([TreeAsGraph(t) for t in trees])


def choice_decode(vertex):
    """Project a solution vertex of the disjoint union to its tree index."""
    return unpair(vertex)[0]
