"""Seeded, deterministic self-check suites.

Each suite runs a fixed battery of randomized property checks driven by a
single seed and returns a plain-dict report.  The same functions back the
CLI `suite` subcommand and the acceptance tests; reports are built from
sorted primitives only, so identical seeds give byte-identical JSON.
"""

import itertools
import random

from . import decide as _decide
from . import gadgets as _gadgets
from . import problems as _problems
from . import search as _search
from . import spaces as _spaces
from .errors import UnknownSuite
from .graphs import FinGraph, construction, isomorphic, standard
from .streams import (EventuallyConstant, GeneratorBacked, Periodic,
                      eventually_always, exists_one, infinitely_often, pair,
                      unpair)
from .trees import FiniteTree, SinglePath, string_code


# ---------------------------------------------------------------------------
# Shared factories and oracles
# ---------------------------------------------------------------------------

def _random_fin_graph(rng, min_v=1, max_v=6, density=0.4, spread=2):
    n = rng.randrange(min_v, max_v + 1)
    vs = sorted(rng.sample(range(spread * max_v), n))
    es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
          if rng.random() < density]
    return FinGraph(vs, es)


def _random_certified_stream(rng, values=2):
    head = [rng.randrange(values) for _ in range(rng.randrange(6))]
    if rng.random() < 0.5:
        return EventuallyConstant(head, rng.randrange(values))
    period = [rng.randrange(values)
              for _ in range(rng.randrange(1, 4))]
    return Periodic(head, period)


def _naive_embeddings(g, h, induced=False):
    """Brute-force oracle, independent of the search engine: every injection
    of g's sorted vertices into h, in lexicographic order, kept when it maps
    edges to edges (and, induced, non-edges to non-edges). It reads the edge
    sets, not the adjacency maps the engine uses."""
    gs = sorted(g.vertices)
    hs = sorted(h.vertices)
    if len(gs) > len(hs):
        return
    for image in itertools.permutations(hs, len(gs)):
        m = dict(zip(gs, image))
        ok = True
        for a, b in itertools.combinations(gs, 2):
            x, y = m[a], m[b]
            ge = (a, b) in g.edges
            he = (min(x, y), max(x, y)) in h.edges
            if (ge and not he) or (induced and not ge and he):
                ok = False
                break
        if ok:
            yield m


def _naive_least_embedding(g, h, induced=False):
    return next(_naive_embeddings(g, h, induced), None)


def _report(name, seed, cases, failures, extra=None):
    out = {"suite": name, "seed": seed, "cases": cases,
           "failures": sorted(failures), "ok": not failures}
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# 1. pairing & stream quantifiers
# ---------------------------------------------------------------------------

def suite_pairing(seed=0):
    failures = []
    codes = set()
    for i in range(1000):
        for j in range(1000):
            codes.add(pair(i, j))
    if len(codes) != 1000 * 1000:
        failures.append("pairing not injective on the grid")
    rng = random.Random(seed)
    for _ in range(2000):
        c = rng.randrange(10 ** 9)
        i, j = unpair(c)
        if pair(i, j) != c:
            failures.append("unpair round trip failed at %d" % c)
    checked = 0
    for _ in range(200):
        s = _random_certified_stream(rng, values=4)
        tail_len = len(s.period)
        window = s.prefix(s.cert_start + 3 * tail_len)
        last = window[-tail_len:]
        for v in range(4):
            want_exists = v in window
            want_io = v in last
            want_ea = all(x == v for x in last)
            got = (exists_one(s, v), infinitely_often(s, v),
                   eventually_always(s, v))
            if got != (want_exists, want_io, want_ea):
                failures.append("quantifier mismatch on %r value %d"
                                % (s, v))
            checked += 1
    return _report("pairing", seed, checked + 2001, failures)


# ---------------------------------------------------------------------------
# 2. brute-force subgraph oracle
# ---------------------------------------------------------------------------

def suite_bruteforce(seed=0):
    rng = random.Random(seed)
    failures = []
    for case in range(300):
        g = _random_fin_graph(rng, min_v=1, max_v=5)
        h = _random_fin_graph(rng, min_v=1, max_v=7)
        for induced in (False, True):
            want = _naive_least_embedding(g, h, induced)
            got = _decide.fin_subgraph(g, h, induced)
            got_map = None if got is None else dict(got.pairs())
            if got_map != want:
                failures.append("case %d induced=%s" % (case, induced))
    return _report("bruteforce", seed, 600, failures)


# ---------------------------------------------------------------------------
# 3. enumeration-to-characteristic conversion
# ---------------------------------------------------------------------------

def suite_f_convert(seed=0):
    rng = random.Random(seed)
    failures = []
    cases = 0
    for gi in range(100):
        src = _random_fin_graph(rng, min_v=1, max_v=6)
        for si in range(5):
            schedule = ("random", rng.randrange(10 ** 6), 0.3)
            name = _spaces.name_of("EGr", src, schedule)
            out, trace = _spaces.f_convert(name)
            image = sorted(trace.image())
            top = (max(image) + 2) if image else 1
            fin = _spaces.gr_window(out, top)
            if not isomorphic(fin.induced(image), src):
                failures.append("restriction not isomorphic g%d s%d"
                                % (gi, si))
            first = trace.first_emission
            for v in src.vertices:
                bound = sum(1 for w in src.neighbors(v)
                            if first.get(w, 0) < first.get(v, 0))
                if trace.injury_count(v) > bound:
                    failures.append("injury bound broken g%d s%d v%d"
                                    % (gi, si, v))
            cases += 1
    # abandoned-degree freeze: replay a subset stage by stage
    for gi in range(15):
        src = _random_fin_graph(rng, min_v=2, max_v=6, density=0.6)
        name = _spaces.name_of("EGr", src,
                               ("random", rng.randrange(10 ** 6), 0.3))
        horizon = name.stream.cert_start
        replay = _spaces._FConvert(name.stream)
        snapshots = {}

        def live_degree(conv, v):
            return sum(1 for p in conv.trace.ones
                       if v in unpair(p) and unpair(p)[0] != unpair(p)[1])

        for stage in range(horizon):
            replay.run_until(stage + 1)
            for (s, _, old, _) in replay.trace.injuries:
                if (old, s) not in snapshots:
                    snapshots[(old, s)] = live_degree(replay, old)
        final = set(replay.trace.ones)
        for (old, s), deg in snapshots.items():
            final_deg = sum(1 for p in final
                            if old in unpair(p)
                            and unpair(p)[0] != unpair(p)[1])
            if final_deg != deg:
                failures.append("abandoned degree grew g%d v%d" % (gi, old))
        cases += 1
    return _report("f-convert", seed, cases, failures)


# ---------------------------------------------------------------------------
# 4. gadget soundness
# ---------------------------------------------------------------------------

def _k(n):
    return standard("CompleteN", n)


def _r(n):
    return standard("RayN", n)


def suite_gadget_soundness(seed=0):
    rng = random.Random(seed)
    failures = []
    cases = 0

    def run(tag, count, check):
        nonlocal cases
        for i in range(count):
            if not check(i):
                failures.append("%s case %d" % (tag, i))
            cases += 1

    def sigma1(i):
        p = _random_certified_stream(rng)
        name = _gadgets.sigma1_gadget(p, _k(2))
        fin = _spaces.gr_window(name, 14)
        found = _decide.fin_subgraph(_k(2), fin, induced=True) is not None
        return found == exists_one(p, 1)

    def sigma2(i):
        p = _random_certified_stream(rng)
        out = _gadgets.sigma2_gadget(p, _r(3))
        verdict = _decide.decide_is_egr_noncomplete(_r(3), out)
        return verdict == (not infinitely_often(p, 1))

    def forests(i):
        p = _random_certified_stream(rng)
        bit = infinitely_often(p, 0)
        base = _gadgets.forests_lift(p)
        if _decide.predicate_tf("T", 1, base) != bit:
            return False
        lifted = _gadgets.forests_lift([("omega", base)])
        return _decide.predicate_tf("F", 1, lifted) == bit

    def acc(i):
        n = rng.randrange(6)
        delay = rng.randrange(1, 9)
        ce = EventuallyConstant([0] * delay + [n + 1], 0)
        sol = _gadgets.acc_canonical_solution(ce)
        return _gadgets.acc_decode(sol) != n

    def lim2(i):
        head = [rng.randrange(2) for _ in range(rng.randrange(6))]
        q = EventuallyConstant(head, rng.randrange(2))
        sol = _gadgets.embR_canonical_solution(q)
        shift = rng.randrange(3)
        sub = GeneratorBacked(lambda t, s=shift: sol.eval(t + s))
        return _gadgets.embR_decode(sub) == q.tail

    def s11(i):
        branch = EventuallyConstant(
            [rng.randrange(2) for _ in range(3)], rng.randrange(2))
        junk = FiniteTree([(), (0,)])
        live = SinglePath(branch)
        if rng.random() < 0.5:
            trees, live_at = [junk, live], 1
        else:
            trees, live_at = [live, junk], 0
        _gadgets.sigma11_choice_gadget(trees)
        vertex = pair(live_at, string_code((branch.eval(0),)))
        return _gadgets.choice_decode(vertex) == live_at

    run("sigma1", 50, sigma1)
    run("sigma2", 50, sigma2)
    run("forests", 50, forests)
    run("acc", 50, acc)
    run("lim2", 50, lim2)
    run("s11choice", 50, s11)
    return _report("gadget-soundness", seed, cases, failures)


# ---------------------------------------------------------------------------
# 5. layered-construction structural laws
# ---------------------------------------------------------------------------

def suite_l1l2(seed=0):
    rng = random.Random(seed)
    failures = []
    cases = 0
    hosts = [standard("Ray"), standard("TwoWayRay"),
             standard("CompleteOmega")]
    for case in range(30):
        tree = SinglePath(_random_certified_stream(rng, values=2))
        g = hosts[rng.randrange(len(hosts))]
        l1 = construction("L1", tree, g)
        l2 = construction("L2", tree, g)
        nodes = [tuple(tree.branch_prefix(d)) for d in range(7)]
        extra = [sigma + (1 - sigma[-1],) for sigma in nodes[1:5]
                 if tree.contains(sigma[:-1])]
        probe = [n for n in nodes + extra if tree.contains(n)]
        codes = {n: string_code(n) for n in probe}
        for a in probe:
            for b in probe:
                if a >= b:
                    continue
                comparable = a == b[:len(a)] or b == a[:len(b)]
                if l1.has_edge(codes[a], codes[b]) and not comparable:
                    failures.append("L1 comparability case %d" % case)
                if not comparable and not l2.has_edge(codes[a], codes[b]):
                    failures.append("L2 incomparability case %d" % case)
                cases += 1
    # path restriction of L1(SinglePath, Ray) is a path graph
    for case in range(10):
        tree = SinglePath(_random_certified_stream(rng, values=2))
        l1 = construction("L1", tree, standard("Ray"))
        chain = [string_code(tuple(tree.branch_prefix(d)))
                 for d in range(9)]
        fin = FinGraph(chain, [(a, b) for a in chain for b in chain
                               if a < b and l1.has_edge(a, b)])
        if not isomorphic(fin, _r(9)):
            failures.append("path restriction case %d" % case)
        cases += 1
    return _report("l1l2", seed, cases, failures)


# ---------------------------------------------------------------------------
# 6. choice-through-layering round trip
# ---------------------------------------------------------------------------

def suite_roundtrip(seed=0):
    rng = random.Random(seed)
    failures = []
    for case in range(20):
        head = [rng.randrange(3) for _ in range(rng.randrange(6))]
        tree = SinglePath(EventuallyConstant(head, rng.randrange(3)))
        path = _problems.path_choice_roundtrip(tree)
        digits = path.prefix(10)
        if not all(tree.contains(tuple(digits[:k])) for k in range(11)):
            failures.append("prefix escaped the tree, case %d" % case)
    return _report("roundtrip", seed, 20, failures)


# ---------------------------------------------------------------------------
# 7. quantifier predicates vs construction
# ---------------------------------------------------------------------------

def suite_tf_predicates(seed=0):
    rng = random.Random(seed)
    failures = []
    for case in range(60):
        p = _random_certified_stream(rng)
        bit = infinitely_often(p, 0)
        level = case % 3
        h = _gadgets.forests_lift(p)
        kind, k = "T", 1
        for _ in range(level):
            h = _gadgets.forests_lift([("omega", h)])
            kind = "F"
        if level == 2:
            k = 2
        if _decide.predicate_tf(kind, k, h) != bit:
            failures.append("level %d case %d" % (level, case))
    return _report("tf-predicates", seed, 60, failures)


# ---------------------------------------------------------------------------
# 8. search witnesses
# ---------------------------------------------------------------------------

def suite_search_witnesses(seed=0):
    rng = random.Random(seed)
    failures = []
    cases = 0
    for case in range(50):
        host = _random_fin_graph(rng, min_v=2, max_v=7, density=0.5)
        sub = sorted(rng.sample(sorted(host.vertices),
                                rng.randrange(1, len(host.vertices) + 1)))
        pattern = host.induced(sub)
        relabel = pattern.relabel({v: i for i, v in enumerate(sub)})
        name = _spaces.name_of("EGr", host,
                               ("random", rng.randrange(10 ** 6), 0.2))
        sol = _search.find_s_finite(relabel, name)
        if not _decide.Embedding(sol.inclusion_pairs()).check(relabel, host):
            failures.append("witness rejected case %d" % case)
        cases += 1
    # ray following on the standard two-way ray
    walk = _search.ray_follow(
        "TwoWayRay", _spaces.name_of("EGr", standard("TwoWayRay")), steps=8)
    host = _spaces.truncate(
        _spaces.name_of("EGr", standard("TwoWayRay")), 4000)
    if len(set(walk)) != len(walk) or not all(
            host.has_edge(a, b) for a, b in zip(walk, walk[1:])):
        failures.append("two-way ray walk invalid")
    cases += 1
    # infinite-star extraction
    t3 = _search.find_t3(standard("TreeT", 1))
    star = dict(t3.inclusion_pairs()) if not callable(t3.inclusion) else None
    if star is not None and len(set(star.values())) != len(star):
        failures.append("t3 star not injective")
    cases += 1
    return _report("search-witnesses", seed, cases, failures)


# ---------------------------------------------------------------------------
# 9. infinite-enumeration encoding repair
# ---------------------------------------------------------------------------

def suite_enuminf(seed=0):
    rng = random.Random(seed)
    failures = []
    cases = 0
    tables = [[0] * 16]  # the full set: the collapse case
    while len(tables) < 30:
        tables.append([rng.randrange(3) for _ in range(16)])
    for case, table in enumerate(tables):
        a = _gadgets.CertifiedPiSet(lambda n, t=table: t[n % 16])
        chi = _gadgets.enuminf_decode(_gadgets.enuminf_encode(a))
        for n in range(13):
            if chi.eval(n) != a.chi(n):
                failures.append("chi mismatch case %d index %d" % (case, n))
            cases += 1
    return _report("enuminf", seed, cases, failures)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES = {
    "pairing": suite_pairing,
    "bruteforce": suite_bruteforce,
    "f-convert": suite_f_convert,
    "gadget-soundness": suite_gadget_soundness,
    "l1l2": suite_l1l2,
    "roundtrip": suite_roundtrip,
    "tf-predicates": suite_tf_predicates,
    "search-witnesses": suite_search_witnesses,
    "enuminf": suite_enuminf,
}


def run_suite(name, seed=0):
    if name not in SUITES:
        raise UnknownSuite(name)
    return SUITES[name](seed)
