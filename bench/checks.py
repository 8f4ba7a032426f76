"""Answer checks that do not trust the code under test.

Each check returns None when the answer is right and a short reason when it
is wrong. Expected verdicts come from the workload generator's knowledge of
the host (`presence`), witnesses are checked edge by edge against the host's
denotation (`meta["denotes"]`, the graphs algebra), and the windows used for
the brute-force least-embedding check are read from the name's stream here,
not through `spaces.truncate`.
"""

import json
import math

from streamgraphs import specs, suites
from streamgraphs.graphs import FinGraph

# Brute-force least embeddings are compared only on windows this small.
NAIVE_LIMIT = 20000


def unpair(n):
    s = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - s * (s + 1) // 2
    return s - j, j


def pair(i, j):
    s = i + j
    return s * (s + 1) // 2 + j


# ---------------------------------------------------------------------------
# Presence of a connected pattern in a host, from the host's construction
# ---------------------------------------------------------------------------
#
# A pattern is (family, n) with family "c" (cycle), "k" (complete) or "r"
# (path on n vertices). A host part is ("c"|"k"|"r", n) for a finite part,
# ("L",) for the two-way ray, ("T",) for the full binary tree, ("Kw",) for
# K_omega and ("cu", n) for a cycle C_n with a one-way ray glued on.

def is_complete(p):
    fam, n = p
    return fam == "k" or n <= 2 or (fam == "c" and n == 3)


def _as_path_or_complete(p):
    """Normalise the patterns that are both paths and complete graphs."""
    fam, n = p
    if n <= 2:
        return ("r", n)
    if fam == "c" and n == 3:
        return ("k", 3)
    return p


def _in_part(p, part, induced):
    fam, n = _as_path_or_complete(p)
    kind = part[0]
    if kind in ("L", "T"):
        return fam == "r"
    if kind == "Kw":
        return fam == "k" or not induced and fam in ("c", "r")
    if kind == "cu":
        m = part[1]
        if fam == "r":
            return True
        return (fam == "c" and n == m) or (fam == "k" and m == 3 and n == 3)
    m = part[1]
    if kind == "r":
        return fam == "r" and n <= m
    if kind == "c":
        if fam == "r":
            return n <= m - 1 if induced else n <= m
        if fam == "k":
            return m == 3 and n == 3
        return n == m
    # complete part K_m
    if fam == "k":
        return n <= m
    if induced:
        return fam == "r" and n <= 2
    return n <= m


def presence(pattern, parts, induced):
    """True iff the connected pattern embeds into the union of the parts."""
    return any(_in_part(pattern, part, induced) for part in parts)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

def embedding_error(pattern, mapping, host, induced=False):
    """Check an embedding of the FinGraph pattern into the algebra graph
    host, edge by edge."""
    if set(mapping) != set(pattern.vertices):
        return "witness does not cover the pattern (%d of %d vertices)" % (
            len(mapping), len(pattern.vertices))
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return "witness not injective"
    for v in images:
        if not host.has_vertex(v):
            return "witness vertex %d not in the host" % v
    vs = sorted(pattern.vertices)
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            edge = pattern.has_edge(a, b)
            host_edge = host.has_edge(mapping[a], mapping[b])
            if edge and not host_edge:
                return "pattern edge %r not in the host" % ((a, b),)
            if induced and not edge and host_edge:
                return "induced witness maps a non-edge %r to an edge" % (
                    (a, b),)
    return None


def window(name, fuel):
    """FinGraph named by the first `fuel` positions, read here."""
    vertices, edges = set(), set()
    for n in range(fuel):
        v = name.stream.eval(n)
        if name.space == "Gr":
            if v != 1:
                continue
            i, j = unpair(n)
        else:
            if v == 0:
                continue
            i, j = unpair(v - 1)
        vertices.update((i, j))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return FinGraph(vertices, edges)


def naive_error(pattern, mapping, name, fuel, induced):
    """On a small window the witness must be the brute-force least one."""
    win = window(name, fuel)
    k, n = len(pattern.vertices), len(win.vertices)
    if n < k or math.perm(n, k) > NAIVE_LIMIT:
        return None
    want = suites._naive_least_embedding(pattern, win, induced)
    if want != mapping:
        return "witness %r is not the least embedding %r" % (
            sorted(mapping.items()), sorted((want or {}).items()))
    return None


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def decide_error(q, rc, out):
    """q: the query's spec dict (pattern, host, mode, fuel, allowed)."""
    if rc not in (0, 2):
        return "exit %s" % rc
    try:
        report = json.loads(out)
    except ValueError:
        return "report is not JSON"
    kind = report.get("verdict")
    if kind not in q["allowed"]:
        return "verdict %s, expected one of %s" % (kind, sorted(q["allowed"]))
    if (rc == 0) != (kind in ("found", "refuted")):
        return "exit %d with verdict %s" % (rc, kind)
    if kind != "found":
        return None
    pattern = specs.parse_pattern(q["pattern"])
    name = specs.parse_name(q["host"])
    mapping = {a: b for a, b in report["witness"]}
    induced = q["mode"] == "is"
    return (embedding_error(pattern, mapping, name.meta["denotes"], induced)
            or naive_error(pattern, mapping, name, q["fuel"], induced))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def walk_error(walk, host, steps, core=()):
    """Ray walks: pairwise distinct, consecutive pairs adjacent in the
    denotation, disjoint from the core for tail rays."""
    if len(walk) != steps:
        return "walk has %d vertices, asked for %d" % (len(walk), steps)
    if len(set(walk)) != len(walk):
        return "walk repeats a vertex"
    for v in walk:
        if not host.has_vertex(v):
            return "walk vertex %d not in the host" % v
    for a, b in zip(walk, walk[1:]):
        if not host.has_edge(a, b):
            return "walk step %d-%d is not an edge" % (a, b)
    hit = sorted(set(walk) & set(core))
    if hit:
        return "tail ray touches the core at %r" % hit
    return None


def cycle_core(host, size):
    """Vertices of part 0 (the C_n or K_n) of a two-part connected union,
    the glue vertex included, per the ConnectedUnion coding."""
    candidates = [pair(0, pair(0, u)) for u in range(size)] + [pair(1, 0)]
    return {v for v in candidates if host.has_vertex(v)}


# ---------------------------------------------------------------------------
# f_convert
# ---------------------------------------------------------------------------

def f_convert_error(source, bit, iota, abandoned, stages):
    """A forced f_convert prefix of `stages` stages.

    source: the input EGr name (stream read here) with its denotation;
    bit(n): the output Gr bit; iota: source vertex -> code; abandoned:
    codes left behind by injuries."""
    codes = list(iota.values())
    if len(set(codes)) != len(codes):
        return "iota not injective"
    g = source.meta["denotes"]
    emitted = set()
    for n in range(stages):
        v = source.stream.eval(n)
        if v:
            i, j = unpair(v - 1)
            if i != j:
                emitted.add((min(i, j), max(i, j)))
    for u, w in emitted:
        a, b = iota.get(u), iota.get(w)
        if a is None or b is None:
            return "emitted edge %r has an endpoint without a code" % ((u, w),)
        if max(a, b) < stages and bit(pair(a, b)) != 1:
            return "emitted edge %r missing at codes %r" % ((u, w), (a, b))
    live = sorted((c, u) for u, c in iota.items() if c < stages)
    for x, (a, u) in enumerate(live):
        for b, w in live[x + 1:]:
            if not g.has_edge(u, w) and bit(pair(a, b)) == 1:
                return "codes %d,%d adjacent but %d,%d are not" % (a, b, u, w)
    allowed = set(codes) | set(abandoned)
    for c in range(stages):
        if bit(pair(c, c)) == 1 and c not in allowed:
            return "code %d is a vertex but neither in the image nor " \
                   "abandoned" % c
    return None


def convert_report_error(rc, out):
    """`sgraph convert --f`: every diagonal 1 in `prefix` is a code in
    `image` or one of the codes the reported injuries abandoned."""
    if rc != 0:
        return "exit %s" % rc
    report = json.loads(out)
    image = set(report["image"])
    injured = sum(count for _, count in report["injuries"])
    stray = [unpair(n)[0] for n, bit in enumerate(report["prefix"])
             if bit == 1 and unpair(n)[0] == unpair(n)[1]
             and unpair(n)[0] not in image]
    if len(stray) > injured:
        return "%d diagonal codes outside image with %d injuries reported" % (
            len(stray), injured)
    return None


# ---------------------------------------------------------------------------
# Gr -> EGr prefixes
# ---------------------------------------------------------------------------

def egr_prefix_error(prefix, g):
    """A valid enumeration of the denotation g: every code emitted once,
    vertices before their edges, everything present in g."""
    seen = set()
    for v in prefix:
        if v == 0:
            continue
        code = v - 1
        if code in seen:
            return "code %d emitted twice" % code
        seen.add(code)
        i, j = unpair(code)
        if i == j:
            if not g.has_vertex(i):
                return "vertex %d not in the graph" % i
            continue
        if pair(i, i) not in seen or pair(j, j) not in seen:
            return "edge %r before its vertices" % ((i, j),)
        if not g.has_edge(i, j):
            return "edge %r not in the graph" % ((i, j),)
    return None
