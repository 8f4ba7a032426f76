import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (random_fin_graph, reference_dense_egr_name,
                     reference_f_convert, reference_random_schedule,
                     reference_truncate)

from streamgraphs import graphs as G
from streamgraphs import spaces as SP
from streamgraphs import specs
from streamgraphs.errors import BadParam, FuelExhausted
from streamgraphs.streams import (EventuallyConstant, GeneratorBacked,
                                  Indicator, Periodic, pair, unpair,
                                  zero_from)


def k(n):
    return G.standard("CompleteN", n).materialize()


def r(n):
    return G.standard("RayN", n).materialize()


def c(n):
    return G.standard("CycleN", n).materialize()


class TestValidatePrefix:
    def test_gr_edge_without_vertex(self):
        # position of <0,1> is 2, of <0,0> is 0
        prefix = [0, 0, 1]
        v = SP.validate_prefix("Gr", prefix)
        assert v != "ok" and v.index == 2

    def test_gr_ok(self):
        assert SP.validate_prefix("Gr", [1, 1, 1, 0, 1]) == "ok"

    def test_gr_nonbinary(self):
        v = SP.validate_prefix("Gr", [2])
        assert v != "ok" and v.index == 0

    def test_egr_vertices_before_edge_ok(self):
        seq = [pair(0, 0) + 1, pair(1, 1) + 1, pair(0, 1) + 1]
        assert SP.validate_prefix("EGr", seq) == "ok"

    def test_egr_edge_first_rejected(self):
        v = SP.validate_prefix("EGr", [pair(0, 1) + 1])
        assert v != "ok" and v.index == 0

    def test_egr_padding_ok(self):
        assert SP.validate_prefix("EGr", [0, 0, 0]) == "ok"

    def test_tr_orphan_node(self):
        # node code pair(0,0)+1 = 1 present while root (code 0) absent
        v = SP.validate_prefix("Tr", [0, 1])
        assert v != "ok" and v.index == 1

    def test_tr2_digit_bound(self):
        # child of root with digit 2 has code pair(0,2)+1 = 6
        prefix = [0] * 7
        prefix[0] = 1
        prefix[6] = 1
        assert SP.validate_prefix("Tr", prefix) == "ok"
        v = SP.validate_prefix("Tr2", prefix)
        assert v != "ok" and v.index == 6


class TestNameSynthesis:
    def test_gr_name_of_k2(self):
        name = SP.name_of("Gr", k(2))
        ones = {n for n in range(10) if name.stream.eval(n) == 1}
        assert ones == {pair(0, 0), pair(1, 1), pair(0, 1), pair(1, 0)}

    def test_egr_diagonal_k2(self):
        name = SP.name_of("EGr", k(2))
        assert G.isomorphic(SP.truncate(name, 10), k(2))

    def test_schedules_agree_up_to_iso(self):
        ray100 = SP.truncate(SP.name_of("EGr", G.standard("Ray")), 100)
        fin = r(5)
        for seed in range(3):
            name = SP.name_of("EGr", fin, ("random", seed, 0.3))
            assert SP.validate_name(name) == "ok"
            assert G.isomorphic(SP.truncate(name, 2000), fin)
        assert len(ray100.vertices) > 5  # infinite host keeps producing

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_random_schedule_matches_reference(self, seed):
        rng = random.Random(seed)
        fin = random_fin_graph(rng, min_v=0, max_v=12, density=rng.random())
        sched_seed = rng.randrange(10 ** 6)
        stutter = rng.random() * 0.9
        assert SP._random_schedule(fin, sched_seed, stutter) == \
            reference_random_schedule(fin, sched_seed, stutter)

    def test_produced_names_validate(self):
        for name in (SP.name_of("Gr", k(3)),
                     SP.name_of("EGr", c(4)),
                     SP.name_of("Gr", G.standard("Ray")),
                     SP.name_of("EGr", G.standard("CompleteOmega"))):
            assert SP.validate_name(name, horizon=300) == "ok"


# Spec texts of infinite graphs. `_CODED` ones have many vertices among
# small codes.
_FINITE = st.sampled_from(["r3", "r4", "c3", "c4", "c5", "k3", "k4",
                           "cu(c3,c4)", "du(k2,r3)"])
_SMALL = st.sampled_from(["k1", "k2", "r2"]) | _FINITE
_LINE = st.sampled_from(["ray", "l", "komega"])
_CODED = (_LINE | st.sampled_from(["t1", "f1", "f0"])
          | st.builds("omega({})".format, _SMALL | _LINE | st.just("t1"))
          | st.builds("du({},{})".format, _SMALL, _LINE))
_STREAM = st.sampled_from(["ec:[0];1", "ec:[1,0];0", "per:[0];[0,1]",
                           "per:[];[1]"])
_TREE = st.sampled_from(["fulltree"]) | st.builds("path({})".format, _STREAM)


def _parts(draw_from):
    return st.lists(draw_from, min_size=1, max_size=3).map(",".join)


def _infinite(depth):
    """Spec texts nested at most `depth` deep: deeper omega(...) towers
    have no vertex among any code that can be scanned."""
    out = (_CODED | st.sampled_from(["fbt", "t2", "f2"]) | _unions(depth)
           | st.builds("{}({},{})".format, st.sampled_from(["l1", "l2"]),
                       _TREE, _CODED | st.just("fbt")))
    if depth == 0:
        return out
    inner = _infinite(depth - 1)
    return (out | st.builds("omega({})".format, inner)
            | st.builds("du({},{})".format, _parts(_SMALL | inner), inner))


def _unions(depth):
    """The cu(...) texts of `_infinite(depth)`."""
    out = (st.builds("cu({},{})".format, _parts(_FINITE), _CODED)
           | st.builds("cu({},{})".format, _CODED, _parts(_FINITE | _CODED)))
    if depth == 0:
        return out
    inner = _infinite(depth - 1)
    return out | st.builds("cu({},{})".format, _parts(_FINITE | inner), inner)


def _joined_unions():
    """cu(...) texts as `_infinite(2)` builds them, from its connected
    pieces only, including one-part unions and infinite first parts."""
    finite = st.sampled_from(["r3", "r4", "c3", "c4", "c5", "k3", "k4",
                              "cu(c3,c4)"])
    few = st.lists(finite, min_size=1, max_size=2).map(",".join)
    piece = (_LINE | st.sampled_from(["fbt", "t1", "t2"])
             | st.builds("{}({},{})".format, st.sampled_from(["l1", "l2"]),
                         _TREE, _LINE))
    # a part nested deeper arrives too late for a window to join it
    inner = (piece | st.builds("cu({})".format, piece)
             | st.builds("cu({},{})".format, few, piece)
             | st.builds("cu({},{})".format, piece, few))
    return (st.builds("cu({},{})".format, _parts(finite | inner), inner)
            | st.builds("cu({},{})".format, inner, _parts(finite | inner)))


class TestDenseEgrName:
    """The dense EGr name of an infinite spec graph, which emits each new
    vertex's listed lower neighbours, equals the name built by testing each
    new vertex against every earlier one."""

    @settings(max_examples=150, deadline=None)
    @given(_infinite(2), st.integers(1, 80))
    def test_matches_reference(self, text, positions):
        if "path(" in text:
            # path codes grow doubly exponentially with depth
            positions = min(positions, 16)
        name = specs.parse_name("egr:" + text)
        want = reference_dense_egr_name(specs.parse_graph(text), positions)
        assert name.stream.prefix(positions) == want

    @pytest.mark.parametrize("text", ["komega", "omega(c4)", "omega(c5)",
                                      "l", "fbt", "cu(c4,ray)",
                                      "l2(fulltree,l)"])
    def test_long_prefixes(self, text):
        """The families the benchmark reads, to 1000 positions; l2(...)
        lists no lower neighbours, so each new vertex is tested."""
        g = specs.parse_graph(text)
        assert (g.lower_neighbors(g.first_vertices(3)[-1]) is None) == \
            text.startswith("l2(")
        name = specs.parse_name("egr:" + text)
        assert name.stream.prefix(1000) == reference_dense_egr_name(g, 1000)

    @pytest.mark.parametrize("text", ["cu(c4,cu(ray),c4)",
                                      "cu(c4,cu(ray,c3))",
                                      "cu(c4,cu(c5,ray))",
                                      "cu(cu(ray,c3),c4)"])
    def test_nested_connected_unions(self, text):
        name = specs.parse_name("egr:" + text)
        want = reference_dense_egr_name(specs.parse_graph(text), 40)
        assert name.stream.prefix(40) == want


class TestLowerNeighbors:
    @settings(max_examples=100, deadline=None)
    @given(_infinite(2))
    def test_lists_the_smaller_neighbours(self, text):
        """Where a list is given, it holds exactly the neighbours of smaller
        code, and every neighbour enumerated earlier has a smaller code."""
        g = specs.parse_graph(text)
        # path codes grow doubly exponentially with depth
        vs = g.first_vertices(8 if "path(" in text else 25)
        below = [w for w in range(2000) if g.has_vertex(w)]
        for i, v in enumerate(vs):
            lower = g.lower_neighbors(v)
            if lower is None:
                continue
            assert all(w < v for w in vs[:i] if g.has_edge(v, w))
            if v < 2000:
                assert sorted(lower) == [w for w in below
                                         if w < v and g.has_edge(v, w)]

    @settings(max_examples=150, deadline=None)
    @given(_infinite(2) | _parts(_SMALL).map("du({})".format)
           | _parts(_FINITE).map("cu({})".format), st.integers(0, 30))
    def test_window_is_pairwise(self, text, k):
        """window(k), which takes edges from the lists of lower neighbours,
        is the graph of has_edge on every pair of the first k vertices."""
        g = specs.parse_graph(text)
        # path codes grow doubly exponentially with depth
        vs = g.first_vertices(min(k, 8) if "path(" in text else k)
        want = G.FinGraph(vs, [(a, b) for a, b in itertools.combinations(vs, 2)
                               if g.has_edge(a, b)])
        assert g.window(len(vs)) == want

    @pytest.mark.parametrize("text", ["fbt", "t3", "l1(fulltree,l)"])
    def test_tree_names_call_no_tree_has_edge(self, monkeypatch, text):
        calls = []
        for cls in (G.TreeAsGraph, G.TreeT, G.Layered):
            def counting(self, a, b, _has_edge=cls.has_edge):
                calls.append((a, b))
                return _has_edge(self, a, b)
            monkeypatch.setattr(cls, "has_edge", counting)
        specs.parse_name("egr:" + text).stream.prefix(1000)
        assert calls == []


class TestConnectedUnionOrder:
    @settings(max_examples=100, deadline=None)
    @given(_unions(2))
    def test_increasing_code_order(self, text):
        g = specs.parse_graph(text)
        vs = list(itertools.islice(itertools.takewhile(
            lambda v: v < 20000, g.iter_vertices()), 40))
        assert vs == [v for v in range(vs[-1] + 1) if g.has_vertex(v)]

    @settings(max_examples=100, deadline=None)
    @given(_joined_unions())
    def test_windows_are_connected(self, text):
        """Connected parts glued at real vertices: BFS joins the first
        vertices inside some window of the enumeration (a vertex may arrive
        long before the neighbours that join it)."""
        g = specs.parse_graph(text)
        m = n = 10
        while True:
            vs = g.first_vertices(n)
            if set(vs[:m]) <= g.window(n).component_of(vs[0]):
                break
            assert n < 320, text
            n *= 2


class TestTruncate:
    def test_egr_komega_fuel3(self):
        name = SP.name_of("EGr", G.standard("CompleteOmega"))
        fin = SP.truncate(name, 3)
        assert len(fin.vertices) + len(fin.edges) <= 3

    def test_gr_empty(self):
        name = SP.SpaceName("Gr", EventuallyConstant([], 0))
        assert SP.truncate(name, 500) == G.FinGraph([])

    def test_egr_ray_truncations_are_paths(self):
        name = SP.name_of("EGr", G.standard("Ray"))
        fin = SP.truncate(name, 50)
        assert fin.is_acyclic()
        assert all(fin.degree(v) <= 2 for v in fin.vertices)

    def test_egr_monotone_in_fuel(self):
        name = SP.name_of("EGr", c(5), ("random", 7, 0.4))
        prev = SP.truncate(name, 0)
        for fuel in range(0, 60, 7):
            cur = SP.truncate(name, fuel)
            assert prev.vertices <= cur.vertices
            assert set(prev.edges) <= set(cur.edges)
            prev = cur


class TestHostView:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans())
    def test_matches_reference_in_any_order(self, seed, gr):
        """Random binary Gr heads (valid or not) and random EGr schedules
        with padding and repeated emissions, read at shuffled stages."""
        rng = random.Random(seed)
        if gr:
            head = [rng.randrange(2) for _ in range(rng.randrange(60))]
            name = SP.SpaceName("Gr", EventuallyConstant(head, 0))
        else:
            fin = random_fin_graph(rng, min_v=0, max_v=6,
                                   density=rng.random())
            name = SP.name_of("EGr", fin, ("random", rng.randrange(10 ** 6),
                                           rng.random() * 0.9))
        view = SP.HostView(name)
        stages = [rng.randrange(80) for _ in range(12)]
        for s in stages:
            assert view.graph(s) == reference_truncate(name, s)

    @pytest.mark.parametrize("text", ["egr:komega", "gr:l"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_slice_boundaries(self, text, order):
        """Reads that end just below, at and just past a slice boundary,
        and past two of them, in shuffled order."""
        n = SP.HostView._SLICE
        stages = [n - 1, n, n + 1, 2 * n + 1]
        random.Random(order).shuffle(stages)
        view = SP.HostView(specs.parse_name(text))
        plain = specs.parse_name(text)
        for s in stages:
            assert view.graph(s) == reference_truncate(plain, s)

    def test_reads_only_below_the_stage(self):
        seen = []
        name = SP.SpaceName("EGr", GeneratorBacked(
            lambda n: seen.append(n) or 0))
        view = SP.HostView(name)
        view.graph(7)
        view.graph(3)
        assert seen == list(range(7))

    def test_resumes_at_a_position_that_raised(self):
        failed = []

        def step(n):
            if n == 5 and not failed:
                failed.append(n)
                raise FuelExhausted("not yet")
            return pair(n, n) + 1

        name = SP.SpaceName("EGr", GeneratorBacked(step))
        view = SP.HostView(name)
        with pytest.raises(FuelExhausted):
            view.graph(9)
        for s in (9, 7, 3, 0, 12):
            assert view.graph(s) == reference_truncate(name, s)

    def test_same_object_across_padding(self):
        name = SP.SpaceName("EGr", EventuallyConstant(
            [1, 0, 0, pair(1, 1) + 1, 0], 0))
        view = SP.HostView(name)
        one = view.graph(1)
        assert view.graph(2) is one and view.graph(3) is one
        two = view.graph(5)
        assert two != one and view.graph(40) is two
        assert view.graph(1) == one

    def test_negative_stage_rejected(self):
        name = SP.name_of("EGr", c(3))
        with pytest.raises(BadParam):
            SP.HostView(name).graph(-1)
        with pytest.raises(BadParam):
            SP.truncate(name, -5)

    def test_only_graph_names(self):
        with pytest.raises(BadParam):
            SP.HostView(SP.SpaceName("Tr", EventuallyConstant([1], 0)))


def _arrivals_one_at_a_time(name, s):
    """First arrivals (position, i, j), i == j a vertex, of the first s
    positions, read one position at a time through eval."""
    log, nbrs = [], {}
    for p in range(s):
        v = name.stream.eval(p)
        if name.space == "Gr" and v == 1:
            i, j = unpair(p)
        elif name.space == "EGr" and v:
            i, j = unpair(v - 1)
        else:
            continue
        for x in (i, j):
            if x not in nbrs:
                nbrs[x] = []
                log.append((p, x, x))
        if i != j and j not in nbrs[i]:
            nbrs[i].append(j)
            nbrs[j].append(i)
            log.append((p, i, j))
    return log


_SLICED_NAMES = ["egr:komega", "egr:l", "egr:fbt", "egr:cu(c4,ray)",
                 "egr:omega(c3)", "gr:l", "gr:komega", "gr:c5",
                 "egr(3,0.5):du(c4,k3)", "egr(8,0.2):k5", "egr:k4"]


def _sliced_name(rng, kind, fail=True):
    """A fresh name of the given kind; the same rng state gives the same
    name. A "raises" name raises once at a random position unless not
    `fail`, and answers the same either way."""
    if kind == "indicator":
        return SP.SpaceName("Gr", Indicator(set(rng.sample(range(90), 12))))
    if kind == "periodic":
        head = [rng.randrange(2) for _ in range(rng.randrange(30))]
        return SP.SpaceName("Gr", Periodic(head, [rng.randrange(2)
                                                  for _ in range(3)]))
    if kind == "raises":
        q = rng.randrange(40)
        raised = []

        def step(n):
            if fail and n == q and not raised:
                raised.append(n)
                raise FuelExhausted("not yet")
            return pair(n % 7, n % 7) + 1 if n % 3 else pair(n % 7,
                                                             n % 5) + 1

        return SP.SpaceName("EGr", GeneratorBacked(step))
    return specs.parse_name(kind)


class TestSlicedReads:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(_SLICED_NAMES + ["indicator", "periodic",
                                            "raises"]),
           st.integers(1, 9))
    def test_matches_one_position_at_a_time(self, seed, kind, size):
        """graph, grow, added and neighbors, read in slices of `size`
        positions, against first arrivals read one position at a time;
        no call evaluates a position at or past its stage, or at or past
        zero_from. A position that raises once is read again."""
        name = _sliced_name(random.Random(seed), kind)
        log = _arrivals_one_at_a_time(
            _sliced_name(random.Random(seed), kind, fail=False), 100)
        top = zero_from(name.stream)
        bound = [0]
        stream = name.stream

        def guarded(read):
            def wrapper(n):
                assert n < bound[0] and (top is None or n < top)
                return read(n)
            return wrapper

        if isinstance(stream, GeneratorBacked):   # values() calls step only
            stream.step = guarded(stream.step)
        elif hasattr(stream, "step"):
            step = stream.step

            def checked_step():
                assert len(stream._out) < bound[0]
                return step()

            stream.step = checked_step
        else:
            stream.eval = guarded(stream.eval)
        rng = random.Random(seed + 1)
        view = SP.HostView(name)
        with mock.patch.object(SP.HostView, "_SLICE", size):
            for _ in range(12):
                op = rng.choice(["graph", "grow", "added", "neighbors"])
                s = rng.randrange(100)
                bound[0] = s
                args = {"graph": (s,), "grow": (s,),
                        "added": (rng.randrange(s + 1), s),
                        "neighbors": (rng.randrange(12), s)}[op]
                try:
                    got = getattr(view, op)(*args)
                except FuelExhausted:
                    assert kind == "raises"
                    got = getattr(view, op)(*args)
                before = [e for e in log if e[0] < s]
                if op == "graph":
                    want = G.FinGraph([i for _, i, j in before if i == j],
                                      [(i, j) for _, i, j in before if i != j])
                    assert got == want and got.adjacency == want.adjacency
                elif op == "added":
                    new = [e for e in before if e[0] >= args[0]]
                    assert got == ([i for _, i, j in new if i == j],
                                   [(i, j) for _, i, j in new if i != j])
                elif op == "neighbors":
                    v = args[0]
                    want = [j if i == v else i for _, i, j in before
                            if i != j and v in (i, j)]
                    known = any(e[1:] == (v, v) for e in before)
                    assert got == (want if known else None)

    @pytest.mark.parametrize("space, stream", [
        ("Gr", Indicator({pair(0, 0), pair(1, 1), pair(0, 1), pair(1, 0)})),
        ("Gr", specs.parse_name("gr:c4").stream),
        ("EGr", specs.parse_name("egr:c4").stream),
        ("EGr", EventuallyConstant([1, 0, pair(1, 1) + 1, pair(0, 1) + 1],
                                   0))])
    def test_reads_nothing_from_zero_from_on(self, space, stream):
        """A certified name is read below cert_start only, at any fuel."""
        read = []
        real = stream.eval

        def counting(n):
            assert n < stream.cert_start
            read.append(n)
            return real(n)

        stream.eval = counting
        name = SP.SpaceName(space, stream)
        view = SP.HostView(name)
        fin = view.graph(4_000_000)
        view.grow(10 ** 9)
        assert sorted(view.added(0, 10 ** 9)[0]) == sorted(fin.vertices)
        assert view.neighbors(0, 10 ** 9) is not None
        assert sorted(read) == list(range(stream.cert_start))
        del stream.eval
        assert fin == reference_truncate(name, stream.cert_start)


class TestGrToEgr:
    def test_k2_replay(self):
        egr = SP.gr_to_egr(SP.name_of("Gr", k(2)))
        assert SP.validate_name(egr) == "ok"
        assert G.isomorphic(SP.truncate(egr, 10), k(2))

    def test_empty_graph_all_padding(self):
        egr = SP.gr_to_egr(SP.SpaceName("Gr", EventuallyConstant([], 0)))
        assert egr.stream.prefix(20) == [0] * 20

    def test_ray_contains_r5(self):
        egr = SP.gr_to_egr(SP.name_of("Gr", G.standard("Ray")))
        fin = SP.truncate(egr, 200)
        assert fin.is_acyclic()
        for i in range(4):
            assert fin.has_edge(i, i + 1)

    def test_random_graphs_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            fin = random_fin_graph(rng)
            egr = SP.gr_to_egr(SP.name_of("Gr", fin))
            assert SP.validate_name(egr) == "ok"
            assert SP.truncate(egr, 2000) == fin


    def test_input_bit_that_raises_is_read_again(self):
        reads = []

        def bit(c):
            reads.append(c)
            if c == 4 and reads.count(4) == 1:
                raise RuntimeError("flaky input")
            return 1 if c in (0, 4, 12) else 0
        egr = SP.gr_to_egr(SP.SpaceName("Gr", GeneratorBacked(bit)))
        with pytest.raises(RuntimeError):
            egr.stream.prefix(10)
        assert egr.stream.prefix(10) == [1, 0, 0, 0, 5, 0, 0, 0, 0, 0]
        assert reads == [0, 1, 2, 3, 4, 4, 5, 6, 7, 8, 9]


class TestFConvert:
    def test_k2_enumeration(self):
        seq = [pair(0, 0) + 1, pair(1, 1) + 1, pair(0, 1) + 1]
        name = SP.SpaceName("EGr", EventuallyConstant(seq, 0))
        out, trace = SP.f_convert(name)
        assert SP.validate_name(out) == "ok"
        fin = SP.truncate(out, 4000)
        image = trace.image()
        assert G.isomorphic(fin.induced(image), k(2))

    def test_k1_single_vertex(self):
        name = SP.SpaceName("EGr", EventuallyConstant([pair(3, 3) + 1], 0))
        out, trace = SP.f_convert(name)
        assert len(trace.image()) == 1
        assert not trace.injuries

    def test_permuted_c4(self):
        name = SP.name_of("EGr", c(4), ("random", 11, 0.3))
        out, trace = SP.f_convert(name)
        fin = SP.truncate(out, 6000)
        assert G.isomorphic(fin.induced(trace.image()), c(4))

    def test_injury_bound_and_restriction(self):
        rng = random.Random(23)
        for _ in range(30):
            src = random_fin_graph(rng)
            name = SP.name_of("EGr", src, ("random", rng.randrange(10**6), 0.3))
            out, trace = SP.f_convert(name)
            fin = SP.truncate(out, 8000)
            assert G.isomorphic(fin.induced(trace.image()), src)
            first = trace.first_emission
            for v in src.vertices:
                # v can only be injured by an edge to an earlier-enumerated
                # neighbor, and each such edge injures it at most once
                bound = sum(1 for w in src.neighbors(v)
                            if first.get(w, 0) < first.get(v, 0))
                assert trace.injury_count(v) <= bound

    def test_abandoned_degrees_frozen(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(40):
            src = random_fin_graph(rng)
            name = SP.name_of("EGr", src, ("random", rng.randrange(10**6), 0.3))
            horizon = len(name.stream.head)
            # run stage by stage, recording each abandoned code's degree
            replay = SP._FConvert(name.stream)
            degs = {}
            def live_degree(conv, v):
                return sum(1 for p in conv.trace.ones
                           if v in SP.unpair(p)
                           and SP.unpair(p)[0] != SP.unpair(p)[1])

            for stage in range(horizon):
                replay.run_stage()
                for (s, _, old, _) in replay.trace.injuries:
                    if (old, s) not in degs:
                        # snapshot at the abandonment stage only
                        degs[(old, s)] = live_degree(replay, old)
            final = set(replay.trace.ones)
            for (old, s), deg_at_end in degs.items():
                final_deg = sum(
                    1 for p in final
                    if old in SP.unpair(p) and SP.unpair(p)[0] != SP.unpair(p)[1])
                assert final_deg == deg_at_end
                checked += 1
        assert checked > 0

    def test_requires_egr(self):
        with pytest.raises(BadParam):
            SP.f_convert(SP.name_of("Gr", k(2)))

    def test_finite_name_memory(self):
        """The 1-bits of egr(7,0.3):k60 are 89k codes below 1.4 * 10^7: the
        name keeps the codes, not one entry per position."""
        tracemalloc.start()
        try:
            SP.f_convert(specs.parse_name("egr(7,0.3):k60"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    @staticmethod
    def _assert_matches_reference(name, out, trace, stages):
        ref = reference_f_convert(name.stream, stages)
        assert trace.stages_run == ref.stages_run == stages
        assert trace.iota == ref.iota
        assert trace.first_emission == ref.first_emission
        assert trace.injuries == ref.injuries
        assert trace.ones == {p for p, b in ref.decided.items() if b == 1}
        for i in range(stages):
            for j in range(stages):
                n = pair(i, j)
                assert out.stream.eval(n) == ref.decided[n]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_finite_schedules_match_reference(self, seed):
        """Random EGr schedules with padding and repeated emissions."""
        rng = random.Random(seed)
        fin = random_fin_graph(rng, min_v=0, max_v=7, density=rng.random())
        name = SP.name_of("EGr", fin, ("random", rng.randrange(10 ** 6),
                                       rng.random() * 0.6))
        out, trace = SP.f_convert(name)
        self._assert_matches_reference(name, out, trace,
                                       len(name.stream.head))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["egr:komega", "egr:omega(c4)"]),
           st.integers(1, 60))
    def test_infinite_names_match_reference(self, host, stages):
        name = specs.parse_name(host)
        out, trace = SP.f_convert(name)
        out.stream.eval(pair(stages - 1, stages - 1))
        self._assert_matches_reference(specs.parse_name(host), out, trace,
                                       stages)


class TestPC:
    def test_already_prompt(self):
        out = SP.pc(SP.name_of("Gr", r(5)))
        fin = SP.gr_window(out, 8)
        assert G.is_promptly_connected(fin)
        assert G.isomorphic(fin, r(5))

    def test_late_attachment_fixed(self):
        src = G.FinGraph([0, 1, 2], [(0, 2), (2, 1)])
        assert not G.is_promptly_connected(src)
        out = SP.pc(SP.name_of("Gr", src))
        fin = SP.gr_window(out, 5)
        assert G.is_promptly_connected(fin)
        assert G.isomorphic(fin, src)

    def test_reverse_labeled_path(self):
        # path 9-7-5-3-1: label order disagrees with path order
        src = G.FinGraph([1, 3, 5, 7, 9], [(9, 7), (7, 5), (5, 3), (3, 1)])
        out = SP.pc(SP.name_of("Gr", src))
        fin = SP.gr_window(out, 8)
        assert G.is_promptly_connected(fin)
        assert G.isomorphic(fin, r(5))

    def test_disconnected_exhausts_fuel(self):
        src = G.disjoint_union(
            [G.standard("CompleteN", 3), G.standard("CompleteN", 3)])
        with pytest.raises(FuelExhausted):
            SP.pc(SP.name_of("Gr", src.materialize()), fuel=500)

    def test_infinite_input(self):
        out = SP.pc(SP.name_of("Gr", G.standard("Ray")))
        fin = SP.gr_window(out, 10)
        assert G.is_promptly_connected(fin)
        assert G.isomorphic(fin, r(10))

    def test_random_connected_graphs(self):
        rng = random.Random(9)
        done = 0
        while done < 15:
            fin = random_fin_graph(rng)
            if not fin.is_connected():
                continue
            done += 1
            out = SP.pc(SP.name_of("Gr", fin))
            got = SP.gr_window(out, len(fin.vertices) + 1)
            assert G.is_promptly_connected(got)
            assert G.isomorphic(got, fin)
