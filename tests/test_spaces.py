import collections
import copy
import functools
import itertools
import json
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (StageByStageFConvert, is_acyclic, raising_once,
                     random_fin_graph, reference_dense_egr_name,
                     reference_f_convert, reference_gr_bit,
                     reference_gr_to_egr, reference_omega_lower,
                     reference_omega_vertices,
                     reference_random_schedule, reference_read_pairs,
                     reference_tree_vertices, reference_truncate,
                     reference_validate_egr, reference_validate_gr)

from streamgraphs import cli
from streamgraphs import gadgets as GD
from streamgraphs import graphs as G
from streamgraphs import search as S
from streamgraphs import spaces as SP
from streamgraphs import specs
from streamgraphs.errors import BadParam, FuelExhausted
from streamgraphs.streams import (CertifiedStream, EventuallyConstant,
                                  GeneratorBacked, Indicator, Periodic,
                                  StagedPairs, pair, parse_stream, unpair,
                                  zero_from)
from streamgraphs.trees import string_code, string_decode


def k(n):
    return G.standard("CompleteN", n).materialize()


def r(n):
    return G.standard("RayN", n).materialize()


def c(n):
    return G.standard("CycleN", n).materialize()


@st.composite
def _egr_prefixes(draw):
    """EGr prefixes over vertices 0..6 with padding: each edge follows its
    vertices, except that one drawn vertex emission may be left out."""
    items = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))
                          | st.none(), max_size=30))
    skip = draw(st.none() | st.integers(0, 6))
    out, seen = [], set()
    for item in items:
        if item is None:
            out.append(0)
            continue
        for u in item:
            if u not in seen and u != skip:
                seen.add(u)
                out.append(pair(u, u) + 1)
        out.append(pair(*item) + 1)
    return out


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=30) | _egr_prefixes())
    @example([1, 5, 3, 0, 2])   # vertices 0 and 1, then both edges: ok
    @example([1, 0, 2, 3])      # the edge (1, 0) before vertex 1
    def test_egr_matches_reference(self, prefix):
        """The first violation (or "ok") is the one that the plain check
        through unpair and a set of emitted codes finds, on prefixes that
        emit an edge's vertices first and on prefixes that need not."""
        assert SP.validate_prefix("EGr", prefix) == \
            reference_validate_egr(prefix)

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

    def test_connected_union_decodes_inline(self):
        """A 1000-position read of egr:cu(c4,ray) (500 vertices) decodes
        and builds each ordinary code inline; graphs.unpair is left to the
        glue vertex's has_edge tests (1,002 calls when every ordinary
        vertex was unpaired twice)."""
        calls, real = [], G.unpair

        def counting(n):
            calls.append(n)
            return real(n)

        with mock.patch.object(G, "unpair", counting):
            fin = SP.truncate(specs.parse_name("egr:cu(c4,ray)"), 1000)
        assert len(fin.vertices) == 500
        assert len(calls) <= 10

    @settings(max_examples=150, deadline=None)
    @given(_infinite(2), st.lists(st.integers(1, 9), min_size=1,
                                  max_size=8), st.booleans())
    def test_pairs_are_the_decoded_values(self, text, sizes, pairs_first):
        """Read in consecutive slices that cross stage boundaries,
        pairs(lo, hi)[k] is unpair(values(lo, hi)[k] - 1) and eval agrees,
        whichever of them runs the stages; values is the reference name."""
        cuts = list(itertools.accumulate([0] + sizes))
        if "path(" in text:
            # path codes grow doubly exponentially with depth
            cuts = [c for c in cuts if c <= 16]
        stream = specs.parse_name("egr:" + text).stream
        assert isinstance(stream, StagedPairs)
        for lo, hi in zip(cuts, cuts[1:]):
            if pairs_first:
                got = stream.pairs(lo, hi)
            vals = stream.values(lo, hi)
            if not pairs_first:
                got = stream.pairs(lo, hi)
            assert got == [None if v == 0 else unpair(v - 1) for v in vals]
            assert [stream.eval(n) for n in range(lo, hi)] == vals
        want = reference_dense_egr_name(specs.parse_graph(text), cuts[-1])
        assert stream.values(0, cuts[-1]) == want

    def test_raising_stage_commits_nothing(self):
        """A stage whose has_edge raises adds no pair, and the next read runs
        that stage again; the stub ray lists no lower neighbours, so each
        new vertex is tested, and has_edge raises once at vertex 3."""
        class FlakyRay(G.Ray):
            raised = False

            def lower_neighbors(self, v):
                return None

            def has_edge(self, a, b):
                if a == 3 and not self.raised:
                    self.raised = True
                    raise FuelExhausted("not yet")
                return super().has_edge(a, b)

        name = SP._dense_egr_name(FlakyRay())
        assert name.stream.pairs(0, 3) == [(0, 0), (1, 1), (0, 1)]
        with pytest.raises(FuelExhausted):
            SP.truncate(name, 7)
        assert name.stream._pairs == [(0, 0), (1, 1), (0, 1), (2, 2), (1, 2)]
        assert SP.truncate(name, 7) == r(4)
        assert name.stream.values(0, 12) == reference_dense_egr_name(
            G.Ray(), 12)

    @pytest.mark.parametrize("base", [G.Ray, G.TwoWayRay,
                                      G.CompleteOmega])
    def test_raising_lower_neighbors_commits_nothing(self, base):
        """A stage whose listed lower_neighbors raises adds no pair, and
        the next read gives the reference name; the stub raises once, at
        vertex 3, whose list holds one neighbour or (komega) three."""
        class Flaky(base):
            raised = False

            def lower_neighbors(self, v):
                if v == 3 and not self.raised:
                    self.raised = True
                    raise FuelExhausted("not yet")
                return super().lower_neighbors(v)

        want = [unpair(v - 1) for v in reference_dense_egr_name(base(), 40)]
        at = want.index((3, 3))   # the first position of vertex 3's stage
        stream = SP._dense_egr_name(Flaky()).stream
        assert stream.pairs(0, at) == want[:at]
        with pytest.raises(FuelExhausted):
            stream.pairs(0, at + 1)
        assert stream._pairs == want[:at]
        assert stream.pairs(0, 40) == want

    @pytest.mark.parametrize("text, coders",
                             [("omega(c4)", ("pair", "unpair")),
                              ("fbt", ("string_code",))])
    def test_read_makes_no_coding_call(self, monkeypatch, text, coders):
        """1000 positions of egr:omega(c4) call neither pair nor unpair in
        graphs, and 1000 positions of egr:fbt code no tree string: counted
        calls, not time."""
        calls = collections.Counter()

        def counted(coder):
            fn = getattr(G, coder)

            def wrapper(*args):
                calls[coder] += 1
                return fn(*args)
            return wrapper

        stream = specs.parse_name("egr:" + text).stream
        for coder in coders:
            monkeypatch.setattr(G, coder, counted(coder))
        got = stream.pairs(0, 1000)
        assert calls == {}
        monkeypatch.undo()
        want = reference_dense_egr_name(specs.parse_graph(text), 1000)
        assert got == [unpair(v - 1) for v in want]

    @pytest.mark.parametrize("text", ["cu(c4,cu(ray),c4)",
                                      "cu(c4,cu(ray,c3))",
                                      "cu(c4,cu(c5,ray))",
                                      "cu(cu(ray,c3),c4)"])
    def test_nested_connected_unions(self, text):
        name = specs.parse_name("egr:" + text)
        want = reference_dense_egr_name(specs.parse_graph(text), 40)
        assert name.stream.prefix(40) == want


# Bases of OmegaCopies, as graph specs or (path(...), fulltree) tree specs.
_OMEGA_BASES = (st.sampled_from(["c3", "c4", "c5", "k1", "k2", "k3", "k4",
                                 "l", "ray", "komega", "fbt"])
                | st.builds("du({})".format,
                            _parts(_SMALL | _LINE | st.just("fbt")))
                | _TREE)


def _base_graph(text):
    if text == "fulltree" or text.startswith("path("):
        return G.TreeAsGraph(specs.parse_tree(text))
    return specs.parse_graph(text)


class TestPinnedEnumeration:
    """OmegaCopies and the breadth-first tree pass enumerate the vertices
    and list the lower neighbours that the pairing and string_code forms
    in tests/helpers give, and the dense name follows that order. The
    dense-name reference alone reads g.iter_vertices(), so it would follow
    a changed order."""

    @settings(max_examples=60, deadline=None)
    @given(_OMEGA_BASES)
    def test_omega_copies(self, text):
        base = _base_graph(text)
        g = G.OmegaCopies(base)
        got = g.first_vertices(300)
        assert got == list(itertools.islice(reference_omega_vertices(base),
                                            300))
        assert [g.lower_neighbors(v) for v in got] == \
            [reference_omega_lower(base, v) for v in got]
        name = SP._dense_egr_name(G.OmegaCopies(_base_graph(text)))
        assert name.stream.prefix(300) == reference_dense_egr_name(
            g, 300, reference_omega_vertices(base))

    @settings(max_examples=40, deadline=None)
    @given(_TREE | st.just("fbt")
           | st.builds("{}({},{})".format, st.sampled_from(["l1", "l2"]),
                       _TREE, _LINE))
    def test_tree_breadth_first(self, text):
        """A tree's vertices and parent lists; a layered graph's vertices,
        which are its tree's."""
        g = _base_graph(text)
        tree = g.tree
        # path codes grow doubly exponentially with depth
        k = 12 if "path(" in text else 300
        got = g.first_vertices(k)
        assert got == list(itertools.islice(reference_tree_vertices(tree), k))
        if isinstance(g, G.TreeAsGraph):
            assert [g.lower_neighbors(v) for v in got] == \
                [[string_code(string_decode(v)[:-1])] if v else []
                 for v in got]
            name = SP._dense_egr_name(G.TreeAsGraph(tree))
            assert name.stream.prefix(k) == reference_dense_egr_name(
                g, k, reference_tree_vertices(tree))


class TestOneBuilder:
    """name_of builds the one name of a graph in each space: for an
    infinite graph in EGr, the dense name that egr:<spec> reads, and a
    schedule, which orders a finite graph's emissions, it refuses."""

    @pytest.mark.parametrize("text", ["ray", "l", "komega", "fbt",
                                      "omega(c4)", "cu(c4,ray)",
                                      "l1(fulltree,l)", "du(k2,ray)"])
    def test_egr_name_is_the_dense_name(self, text):
        g = specs.parse_graph(text)
        got = SP.name_of("EGr", g).stream.prefix(300)
        assert got == specs.parse_name("egr:" + text).stream.prefix(300)
        assert got == reference_dense_egr_name(g, 300)

    @pytest.mark.parametrize("text", ["ray", "komega", "du(k2,ray)"])
    def test_schedule_on_infinite_graph_refused(self, text):
        with pytest.raises(BadParam):
            SP.name_of("EGr", specs.parse_graph(text), ("random", 5, 0.3))
        with pytest.raises(BadParam):
            specs.parse_name("egr(5,0.3):" + text)


class TestGrBits:
    """A Gr name of an infinite spec graph decides each vertex once, and
    its bits are the plain formula's, in any order of reading."""

    @settings(max_examples=120, deadline=None)
    @given(_infinite(2), st.lists(st.integers(0, 1200), min_size=1,
                                  max_size=40),
           st.lists(st.tuples(st.integers(0, 1200), st.integers(0, 60)),
                    min_size=1, max_size=4))
    def test_matches_reference_in_any_order(self, text, positions, slices):
        g = specs.parse_graph(text)
        stream = specs.parse_name("gr:" + text).stream
        assert isinstance(stream, SP._GrName)
        want = {}

        def ref(n):
            if n not in want:
                want[n] = reference_gr_bit(g, n)
            return want[n]

        for _ in range(2):   # the second read gives the same values
            assert [stream.eval(n) for n in positions] == \
                [ref(n) for n in positions]
            for lo, size in slices:
                assert stream.values(lo, lo + size) == \
                    [ref(n) for n in range(lo, lo + size)]

    @pytest.mark.parametrize("text", ["fbt", "komega", "omega(c4)",
                                      "cu(c4,ray)", "l"])
    def test_each_vertex_is_decided_once(self, monkeypatch, text):
        """has_vertex is asked once per vertex, and has_edge only about
        two vertices."""
        g = specs.parse_graph(text)
        asked = collections.Counter()
        has_vertex, has_edge = g.has_vertex, g.has_edge
        ends = []

        def counting(v):
            asked[v] += 1
            return has_vertex(v)

        def edge(a, b):
            ends.extend((a, b))
            return has_edge(a, b)

        monkeypatch.setattr(g, "has_vertex", counting)
        monkeypatch.setattr(g, "has_edge", edge)
        name = SP.name_of("Gr", g)
        assert name.stream.prefix(1000) == \
            [reference_gr_bit(specs.parse_graph(text), n)
             for n in range(1000)]
        assert set(asked.values()) == {1}
        assert ends and all(has_vertex(v) for v in ends)


class TestGrMirror:
    """values(lo, hi) of a Gr name takes the bit at pair(i, j), j > i, from
    its mirror pair(j, i) where the slice holds it, so it asks has_edge
    once per vertex pair."""

    TEXTS = ["l", "komega", "fbt", "omega(c4)", "cu(c4,ray)"]

    # (lo, hi) that start and end inside a diagonal, across several
    # diagonals, within one, and right at a mirror's far end
    SLICES = [(pair(2, 5), pair(9, 4)), (pair(5, 2), pair(2, 11)),
              (pair(4, 4), pair(1, 7) + 1), (pair(3, 9), pair(12, 0)),
              (pair(6, 1), pair(40, 3)), (pair(6, 1), pair(1, 6) + 1),
              (0, 1000)]

    @pytest.mark.parametrize("text", TEXTS)
    def test_slices_match_eval(self, text):
        stream = specs.parse_name("gr:" + text).stream
        assert isinstance(stream, SP._GrName)
        for lo, hi in self.SLICES:
            assert stream.values(lo, hi) == \
                [stream.eval(n) for n in range(lo, hi)], (lo, hi)

    @pytest.mark.parametrize("text, most", [("komega", 494),
                                            ("omega(c4)", 312),
                                            ("fbt", 101)])
    def test_one_has_edge_per_vertex_pair(self, monkeypatch, text, most):
        g = specs.parse_graph(text)
        calls, has_edge = [], g.has_edge

        def counting(a, b):
            calls.append((a, b))
            return has_edge(a, b)

        monkeypatch.setattr(g, "has_edge", counting)
        assert SP.name_of("Gr", g).stream.prefix(1000) == \
            [reference_gr_bit(specs.parse_graph(text), n)
             for n in range(1000)]
        assert len(calls) <= most
        assert len({frozenset(e) for e in calls}) == len(calls)


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
        assert is_acyclic(fin)
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
    if kind == "padded":   # a pair stream whose empty stages pad
        r, vs = random.Random(rng.random()), []

        def stage():
            if r.random() < 0.3:
                return []
            vs.append(len(vs))
            return [(vs[-1], vs[-1])] + [(w, vs[-1]) for w in vs[:-1]
                                         if r.random() < 0.1]

        return SP.SpaceName("EGr", StagedPairs(stage))
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
                                            "padded", "raises"]),
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
        elif isinstance(stream, SP._GrName):   # eval and values read apart
            values = stream.values

            def checked_values(lo, hi):
                assert hi <= bound[0] and (top is None or hi <= top)
                return values(lo, hi)

            stream.values, stream.eval = checked_values, guarded(stream.eval)
        elif isinstance(stream, StagedPairs):   # a dense or a padded name
            step, pairs = stream.step, stream.pairs

            def checked_step():
                assert len(stream._pairs) < bound[0]
                return step()

            def checked_pairs(lo, hi):   # reads positions lo <= n < hi
                assert hi <= bound[0] and (top is None or hi <= top)
                return pairs(lo, hi)

            stream.step, stream.pairs = checked_step, checked_pairs
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


class TestStageLoopCalls:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["egr:l", "egr:komega", "egr:omega(c3)",
                            "egr(3,0.5):du(c4,k3)", "egr(8,0.2):k5", "gr:l",
                            "gr:c5", "indicator", "padded", "raises"]))
    def test_interleaved_calls(self, seed, kind):
        """One view through a random mix of one-position steps
        added(s, s + 1) and forward ranges from the stage where it stands,
        look-back ranges, grow(s) with nothing new, neighbors(v, s) and
        graph(s): every answer and the adjacency match first arrivals read
        one position at a time, and every graph the reference truncate. A
        position that raises once is read again."""
        name = _sliced_name(random.Random(seed), kind)
        plain = _sliced_name(random.Random(seed), kind, fail=False)
        log = _arrivals_one_at_a_time(plain, 100)
        rng = random.Random(seed + 1)
        view, stood = SP.HostView(name), 0
        for _ in range(30):
            op = rng.choice(["step", "forward", "back", "regrow",
                             "neighbors", "graph"])
            if op == "step":
                call = ("added", stood, stood + 1)
            elif op == "forward":
                call = ("added", stood, stood + rng.randrange(1, 9))
            elif op == "back":
                s1 = rng.randrange(stood + 1)
                call = ("added", rng.randrange(s1 + 1), s1)
            elif op == "regrow":
                call = ("grow", rng.randrange(stood + 1))
            elif op == "neighbors":
                call = ("neighbors", rng.randrange(12), max(0, rng.choice(
                    [stood - 1, stood, stood + 1, rng.randrange(90)])))
            else:
                call = ("graph", rng.randrange(90))
            s = min(call[-1], 90)
            call = call[:-1] + (s,)
            try:
                got = getattr(view, call[0])(*call[1:])
            except FuelExhausted:
                assert kind == "raises"
                got = getattr(view, call[0])(*call[1:])
            before = [e for e in log if e[0] < s]
            if call[0] == "added":
                new = [e for e in before if e[0] >= call[1]]
                assert got == ([i for _, i, j in new if i == j],
                               [(i, j) for _, i, j in new if i != j])
            elif call[0] == "neighbors":
                v = call[1]
                known = any(e[1:] == (v, v) for e in before)
                assert got == ([j if i == v else i for _, i, j in before
                                if i != j and v in (i, j)]
                               if known else None)
            elif call[0] == "graph":
                assert got == reference_truncate(plain, s)
            if call[0] != "graph":
                stood = max(stood, s)
            grown = [e for e in log if e[0] < stood]
            want = {i: set() for _, i, j in grown if i == j}
            for _, i, j in grown:
                if i != j:
                    want[i].add(j)
                    want[j].add(i)
            assert view.adjacency == want


def _step_name(text):
    """A name for TestOnePositionStep; "ec" is a finite EventuallyConstant
    name with padding, a repeated edge and an edge before its ends' own
    emissions."""
    if text == "ec":
        return SP.SpaceName("EGr", EventuallyConstant(
            [1, 0, pair(1, 1) + 1, pair(0, 1) + 1, 0, pair(0, 1) + 1,
             pair(2, 3) + 1, pair(3, 3) + 1, pair(1, 2) + 1], 0))
    return specs.parse_name(text)


class TestOnePositionStep:
    """A view stepped by added(s - 1, s), one position at a time, stands
    where one bulk grow puts it."""

    @pytest.mark.parametrize("text", ["gr:l", "egr(5,0.3):du(k3,c4)", "ec",
                                      "egr:omega(c5)"])
    def test_matches_one_bulk_grow(self, text):
        n = 120
        step, bulk = SP.HostView(_step_name(text)), SP.HostView(
            _step_name(text))
        added = [step.added(s - 1, s) for s in range(1, n + 1)]
        bulk.grow(n)
        assert step.adjacency == bulk.adjacency
        assert added == [bulk.added(s - 1, s) for s in range(1, n + 1)]
        vs = sorted(bulk.adjacency) + [max(bulk.adjacency) + 1]
        assert [step.arrival(v) for v in vs] == [bulk.arrival(v) for v in vs]
        for s in (0, 1, 5, n // 2, n):
            assert [step.neighbors(v, s) for v in vs] == \
                [bulk.neighbors(v, s) for v in vs]
            assert step.graph(s) == bulk.graph(s) == reference_truncate(
                _step_name(text), s)

    @staticmethod
    def _raising_name(kind, at):
        """egr:omega(c5) whose read of position `at` raises once: through
        values (a GeneratorBacked), or through a stage (a StagedPairs)."""
        plain = specs.parse_name("egr:omega(c5)").stream
        if kind == "values":
            stream = raising_once(plain, at)
        else:
            step, calls = plain.step, []

            def flaky():
                calls.append(len(calls))
                if len(calls) == at + 1:
                    raise RuntimeError("flaky stage")
                return step()

            stream = StagedPairs(flaky)
        return SP.SpaceName("EGr", stream)

    @pytest.mark.parametrize("kind", ["values", "stage"])
    def test_raising_step_changes_nothing(self, kind):
        """A step whose read raises leaves the view as it was, and the next
        step reads that position again. The stages of egr:omega(c5) emit
        one pair or more each, so the stage that raises first covers some
        position at or past `at`."""
        at, n = 9, 60
        view = SP.HostView(self._raising_name(kind, at))
        bulk = SP.HostView(specs.parse_name("egr:omega(c5)"))
        bulk.grow(n)
        s = 0
        while True:
            before = (copy.deepcopy(view.adjacency), view.added(0, s),
                      view.graph(s))
            try:
                view.added(s, s + 1)
            except RuntimeError:
                break
            s += 1
        assert at <= s < n
        assert (view.adjacency, view.added(0, s), view.graph(s)) == before
        assert view.added(s, s + 1) == bulk.added(s, s + 1)
        for s in range(s + 2, n + 1):
            assert view.added(s - 1, s) == bulk.added(s - 1, s)
        assert view.adjacency == bulk.adjacency
        assert view.graph(n) == bulk.graph(n)


def _count_window_views(monkeypatch):
    """How often each of a window's views gets built, from now on."""
    built = collections.Counter()
    for view in ("vertices", "edges", "adjacency"):
        def counting(window, build=vars(SP._Window)[view].func, view=view):
            built[view] += 1
            return build(window)

        prop = functools.cached_property(counting)
        prop.__set_name__(SP._Window, view)
        monkeypatch.setattr(SP._Window, view, prop)
    return built


class TestLazyWindow:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["egr:komega", "egr:fbt", "egr:omega(c3)",
                            "egr(3,0.5):du(c4,k3)", "egr(8,0.2):k5", "gr:l",
                            "gr:c5", "indicator", "periodic", "padded"]))
    def test_views_match_reference_in_any_order(self, seed, kind):
        """Windows of dense, scheduled (a stutter emits a code again),
        padded and Gr names (an edge bit may come before its ends' own
        bits, or without them), at shuffled stages of one view: the three
        views, == and hash, read in a random order, equal those of the
        FinGraph of the reference truncate."""
        rng = random.Random(seed)
        name = _sliced_name(rng, kind)
        plain = _sliced_name(random.Random(seed), kind)
        view = SP.HostView(name)
        for s in rng.sample(range(90), 8):
            window, want = view.graph(s), reference_truncate(plain, s)
            reads = {"vertices": lambda: window.vertices == want.vertices,
                     "edges": lambda: window.edges == want.edges,
                     "adjacency": lambda: window.adjacency == want.adjacency,
                     "eq": lambda: window == want and want == window,
                     "hash": lambda: hash(window) == hash(want)}
            for read in rng.sample(sorted(reads), len(reads)):
                assert reads[read](), (s, read)

    @pytest.mark.parametrize("pattern, mode", [
        ("k3", "s"), ("k4", "s"), ("c4", "s"), ("r3", "s"), ("k3", "is"),
        ("k5", "s")])
    def test_search_builds_no_edge_set(self, capsys, monkeypatch, pattern,
                                       mode):
        """A one-shot decide on a dense host reads the window's adjacency
        alone, for the edge count, the core and the search."""
        built = _count_window_views(monkeypatch)
        assert cli.main(["decide", "--pattern", pattern, "--host",
                         "egr:komega", "--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "found"
        assert dict(built) == {"adjacency": 1}

    @pytest.mark.parametrize("argv", [["truncate"], ["export", "json"],
                                      ["export", "dot"]])
    def test_export_builds_no_adjacency(self, capsys, monkeypatch, argv):
        built = _count_window_views(monkeypatch)
        assert cli.main(argv + ["--in", "egr:komega"]) == 0
        assert dict(built) == {"vertices": 1, "edges": 1}


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
        assert is_acyclic(fin)
        for i in range(4):
            assert fin.has_edge(i, i + 1)

    def test_random_graphs_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            fin = random_fin_graph(rng)
            egr = SP.gr_to_egr(SP.name_of("Gr", fin))
            assert SP.validate_name(egr) == "ok"
            assert SP.truncate(egr, 2000) == fin


    @settings(max_examples=80, deadline=None)
    @given(_infinite(1), st.integers(1, 1200))
    def test_matches_reference_transducer(self, text, length):
        g = specs.parse_graph(text)
        egr = SP.gr_to_egr(specs.parse_name("gr:" + text))
        assert egr.stream.prefix(length) == reference_gr_to_egr(
            lambda c: reference_gr_bit(g, c), length)

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


# Every EGr name a stage machine writes, built anew at each call.
_STAGE_MACHINE_NAMES = {
    "sigma2_gadget": lambda: GD.sigma2_gadget(
        parse_stream("ec:[0,1,0,0,1];0"), r(3)),
    "acc_gadget": lambda: GD.acc_gadget(
        EventuallyConstant([0, 0, 4], 0)).name,
    "gr_to_egr": lambda: SP.gr_to_egr(specs.parse_name("gr:fbt")),
    "find_s_components": lambda: S.find_s_components(
        [(k(2), G.OMEGA)], specs.parse_name("egr:fbt")).name,
    "restrict_to_connected": lambda: S.restrict_to_connected(
        specs.parse_name("egr:du(c4,ray)"), 0),
    "find_t3": lambda: S.find_t3(specs.parse_graph("t1")).name,
    "find_f2k2": lambda: S.find_f2k2(G.standard("ForestF", 1), 1).name,
}


class TestStageStreamFormat:
    @pytest.mark.parametrize("machine", sorted(_STAGE_MACHINE_NAMES))
    def test_values_encode_the_pairs(self, machine):
        """A stage machine's name is a StagedPairs of (min, max) pairs whose
        values are their EGr codes, and HostView reads from the pairs the
        graph that those values decide."""
        n = 150
        name = _STAGE_MACHINE_NAMES[machine]()
        assert isinstance(name.stream, StagedPairs)
        pairs = name.stream.pairs(0, n)
        assert all(p is None or p[0] <= p[1] for p in pairs)
        values = name.stream.values(0, n)
        assert values == [0 if p is None else pair(*p) + 1 for p in pairs]
        assert SP.validate_prefix("EGr", values) == "ok"
        wire = SP.SpaceName("EGr", EventuallyConstant(values, 0))
        got = SP.HostView(_STAGE_MACHINE_NAMES[machine]()).graph(n)
        assert got == SP.truncate(wire, n)


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
                replay.run_until(stage + 1)
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

    @pytest.mark.parametrize("host", ["egr:komega", "egr:omega(c4)"])
    def test_dense_names_are_read_as_pairs(self, host):
        """A dense name hands each stage its (i, j) pair: no Cantor code
        is computed, so none is inverted either."""
        def no_code(*_):
            raise AssertionError("a Cantor code was computed")

        name = specs.parse_name(host)
        name.stream.eval = name.stream.values = no_code
        out, trace = SP.f_convert(name)
        out.stream.eval(pair(39, 39))
        self._assert_matches_reference(specs.parse_name(host), out, trace,
                                       40)


class _RaisesOnce(CertifiedStream):
    """The stream `inner`, except that the first read covering position
    `at` raises; pairs(lo, hi) is there when inner has it."""

    def __init__(self, inner, at):
        self.inner, self.at, self.raised = inner, at, False
        if hasattr(inner, "pairs"):
            self.pairs = lambda lo, hi: self._read(inner.pairs, lo, hi)

    def _read(self, read, lo, hi):
        if lo <= self.at < hi and not self.raised:
            self.raised = True
            raise FuelExhausted("not yet")
        return read(lo, hi)

    def eval(self, n):
        return self.values(n, n + 1)[0]

    def values(self, lo, hi):
        return self._read(self.inner.values, lo, hi)


def _fconvert_name(kind):
    if kind.startswith("name_of:"):   # a Gr -> EGr transducer's values
        graph = G.standard(kind[len("name_of:"):])
        return SP.gr_to_egr(SP.name_of("Gr", graph))
    return specs.parse_name(kind)


class TestRunUntil:
    """run_until(k) reads the emissions of stages it has not run in one
    call, and ends with the trace of k one-stage runs."""

    KINDS = ["egr:komega", "egr:omega(c4)", "egr:fbt", "egr:cu(c3,c4)",
             "egr:du(k2,r3)", "egr(3,0.3):du(k2,r3)", "egr(8,0.5):k4",
             "name_of:Ray", "name_of:CompleteOmega"]

    @staticmethod
    def _trace(conv):
        t = conv.trace
        return (t.iota, t.first_emission, t.injuries, t.ones, t.stages_run)

    def _one_at_a_time(self, kind, k):
        conv = SP._FConvert(_fconvert_name(kind).stream)
        for s in range(k):
            conv.run_until(s + 1)
            assert conv.stage == conv.trace.stages_run == s + 1
        return self._trace(conv)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [0, 1, 7, 40])
    def test_matches_single_stages(self, kind, k):
        conv = SP._FConvert(_fconvert_name(kind).stream)
        conv.run_until(k)
        assert self._trace(conv) == self._one_at_a_time(kind, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_runs_in_several_calls(self, kind):
        conv = SP._FConvert(_fconvert_name(kind).stream)
        for k in (3, 3, 10, 2, 25, 40):
            conv.run_until(k)
        assert self._trace(conv) == self._one_at_a_time(kind, 40)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("at", [0, 5, 17])
    def test_retry_after_a_read_that_raised(self, kind, at):
        """The run that covers `at` runs none of its stages."""
        conv = SP._FConvert(_RaisesOnce(_fconvert_name(kind).stream, at))
        conv.run_until(at // 2)
        with pytest.raises(FuelExhausted):
            conv.run_until(30)
        assert conv.stage == conv.trace.stages_run == at // 2
        conv.run_until(30)
        assert self._trace(conv) == self._one_at_a_time(kind, 30)

    def test_slice_runs_its_stages_in_one_call(self):
        """Position pair(i, j) needs stage max(i, j): a slice from 0 up to
        pair(9, 9) spans diagonals 0 to 18, so it runs stages below 19 in
        one run_until."""
        name = specs.parse_name("egr:omega(c4)")
        out, trace = SP.f_convert(name)
        runs = []
        run_until = SP._FConvert.run_until

        def counting(conv, stages):
            runs.append(stages)
            return run_until(conv, stages)

        with mock.patch.object(SP._FConvert, "run_until", counting):
            out.stream.values(0, pair(9, 9) + 1)   # diagonals 0 to 18
        assert runs == [19] and trace.stages_run == 19


class TestFusedInjuryLoop:
    """The injury construction run as one loop per run_until leaves the
    trace that the stage-by-stage machine leaves."""

    @staticmethod
    def _trace(conv):
        t = conv.trace
        return (t.iota, t.first_emission, t.injuries, t.ones, t.stages_run)

    @staticmethod
    def _both(host):
        return (SP._FConvert(specs.parse_name(host).stream),
                StageByStageFConvert(specs.parse_name(host).stream))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([0, 0.3, 0.95]))
    def test_finite_schedules(self, seed, stutter):
        rng = random.Random(seed)
        fin = random_fin_graph(rng, min_v=0, max_v=9, density=rng.random())
        schedule = ("random", rng.randrange(10 ** 6), stutter)
        name = SP.name_of("EGr", fin, schedule)
        conv = SP._FConvert(name.stream)
        ref = StageByStageFConvert(SP.name_of("EGr", fin, schedule).stream)
        stages = len(name.stream.head)
        conv.run_until(stages)
        ref.run_until(stages)
        assert self._trace(conv) == self._trace(ref)

    @pytest.mark.parametrize("host", ["egr:komega", "egr:omega(c4)"])
    @pytest.mark.parametrize("stages", [24, 48, 96])
    def test_forced_in_one_run(self, host, stages):
        conv, ref = self._both(host)
        conv.run_until(stages)
        ref.run_until(stages)
        assert self._trace(conv) == self._trace(ref)
        assert conv.trace.stages_run == stages

    @pytest.mark.parametrize("host", ["egr:komega", "egr:omega(c4)"])
    @pytest.mark.parametrize("stages", [24, 48, 96])
    def test_forced_one_stage_at_a_time(self, host, stages):
        conv, ref = self._both(host)
        ref.run_until(stages)
        for s in range(1, stages + 1):
            conv.run_until(s)
        assert self._trace(conv) == self._trace(ref)

    @pytest.mark.parametrize("host", ["egr:komega", "egr(4,0.3):du(c3,k4)"])
    def test_read_that_raises_runs_no_stage(self, host):
        conv, ref = self._both(host)
        conv.stream = _RaisesOnce(conv.stream, 20)
        conv.run_until(10)
        ref.run_until(10)
        before = copy.deepcopy(self._trace(conv))
        with pytest.raises(FuelExhausted):
            conv.run_until(40)
        assert conv.stage == 10 and self._trace(conv) == before
        assert before == self._trace(ref)
        conv.run_until(40)
        ref.run_until(40)
        assert self._trace(conv) == self._trace(ref)


_SLICES = st.lists(st.tuples(st.integers(0, 400), st.integers(0, 60)),
                   min_size=1, max_size=8)


class TestDiagonalSlices:
    """Each reader that steps along the Cantor diagonals, over slices in
    random order, against a reference that decodes each position (the Gr
    names themselves: TestGrBits)."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32), _SLICES)
    def test_transducer(self, seed, slices):
        """Slices of the output against one stage per code; each input code
        is read once, in order, and none past the slice being served. The
        input is the Gr name of a spec graph or of a sparse random graph,
        whose 1s skip whole diagonals, or any 300 bits, where an edge's bit
        may come before its ends' bits or without its mirror."""
        rng = random.Random(seed)
        kind = rng.random()
        if kind < 0.4:
            text = rng.choice(["komega", "l", "fbt", "omega(c4)",
                               "cu(k4,ray)", "du(k1,r3,l)"])
            g = specs.parse_graph(text)
            src = SP.name_of("Gr", specs.parse_graph(text)).stream

            def bit(c):
                return reference_gr_bit(g, c)
        else:
            if kind < 0.7:
                labels = rng.sample(range(30), rng.randrange(1, 6))
                src = SP.name_of("Gr", G.FinGraph(labels, [
                    (a, b) for a, b in itertools.combinations(labels, 2)
                    if rng.random() < 0.4])).stream
            else:
                density = rng.choice([0.02, 0.1, 0.5])
                src = Indicator({c for c in range(300)
                                 if rng.random() < density})

            def bit(c):
                return 1 if c in src.ones else 0
        reads, real = [], src.values

        def recorded(lo, hi):
            reads.extend(range(lo, hi))
            return real(lo, hi)

        src.values = recorded
        stream = SP._GrToEgr(src)
        want, top = reference_gr_to_egr(bit, 461), 0
        for lo, size in slices:
            top = max(top, lo + size)
            assert stream.values(lo, lo + size) == want[lo:lo + size]
            assert reads == list(range(top))
        assert stream.eval(lo) == want[lo]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(TestRunUntil.KINDS), _SLICES)
    def test_f_convert(self, kind, slices):
        """A slice runs exactly the stages its largest max(i, j) needs,
        and reads what per-position eval reads."""
        conv = SP._FConvert(_fconvert_name(kind).stream)
        each = SP._FConvert(_fconvert_name(kind).stream)
        for lo, size in slices:
            hi = lo + size
            need = max([max(unpair(n)) + 1 for n in range(lo, hi)],
                       default=0)
            before = conv.stage
            assert conv.values(lo, hi) == [each.eval(n)
                                           for n in range(lo, hi)]
            assert conv.stage == max(before, need)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32))
    @example(0)
    def test_validate_gr(self, seed):
        """The first violation (or "ok") on a Gr name's prefix, as it is
        and with some positions overwritten by 0, 1 or 2."""
        rng = random.Random(seed)
        if rng.random() < 0.5:
            name = SP.name_of("Gr", random_fin_graph(rng, max_v=8))
        else:
            name = specs.parse_name("gr:" + rng.choice(
                ["komega", "l", "fbt", "omega(c4)", "c5"]))
        prefix = name.stream.prefix(rng.randrange(120))
        for _ in range(rng.choice([0, 0, 1, 3])):
            if prefix:
                prefix[rng.randrange(len(prefix))] = rng.choice([0, 1, 1, 2])
        assert SP.validate_prefix("Gr", prefix) == \
            reference_validate_gr(prefix)


class TestReadPairs:
    """read_pairs, the one decoder of Gr and EGr names, over slices in
    random order, against one eval and one unpair per position of a
    second copy of the name."""

    KINDS = ["gr:komega", "gr:l", "gr:fbt", "gr:c5", "gr:omega(c4)",
             "egr:komega", "egr:l", "egr:omega(c3)", "egr:k4",
             "egr(3,0.5):du(c4,k3)", "indicator", "ec-gr", "ec-egr",
             "padded", "name_of:CompleteOmega", "f_convert"]

    @staticmethod
    def _name(rng, kind):
        """A fresh name of the given kind; the same rng state gives the
        same name."""
        if kind in ("indicator", "padded"):
            return _sliced_name(rng, kind)
        if kind == "ec-gr":   # any values, 2s included: only a 1 carries
            return SP.SpaceName("Gr", EventuallyConstant(
                [rng.choice([0, 1, 1, 2]) for _ in range(rng.randrange(60))],
                rng.choice([0, 1])))
        if kind == "ec-egr":   # any codes with padding, unchecked
            return SP.SpaceName("EGr", EventuallyConstant(
                [rng.choice([0, rng.randrange(1, 200)])
                 for _ in range(rng.randrange(60))], rng.choice([0, 5])))
        if kind == "f_convert":
            return SP.f_convert(specs.parse_name("egr:omega(c4)"))[0]
        return _fconvert_name(kind)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(KINDS), _SLICES)
    def test_matches_one_position_at_a_time(self, seed, kind, slices):
        name = self._name(random.Random(seed), kind)
        ref = self._name(random.Random(seed), kind)
        for lo, size in slices:
            pos, pairs = SP.read_pairs(name.space, name.stream, lo, lo + size)
            assert (list(pos), pairs) == reference_read_pairs(
                ref.space, ref.stream, lo, lo + size)


class TestOneDecoder:
    """truncate, f_convert and acc --decode read their input stream only
    inside read_pairs; truncate calls it once per HostView slice."""

    @pytest.fixture
    def calls(self):
        """read_pairs, in spaces and in gadgets, recording its calls."""
        calls, real = _Calls(), SP.read_pairs

        def counting(space, stream, lo, hi):
            calls.append((lo, hi))
            calls.inside = True
            try:
                return real(space, stream, lo, hi)
            finally:
                calls.inside = False

        with mock.patch.object(SP, "read_pairs", counting), \
                mock.patch.object(GD, "read_pairs", counting):
            yield calls

    @staticmethod
    def _guard(stream, calls):
        for method in ("eval", "values", "pairs"):
            real = getattr(stream, method, None)
            if real is not None:
                setattr(stream, method, _only_inside(real, calls))

    @pytest.mark.parametrize("text", ["egr:komega", "gr:komega", "gr:l",
                                      "egr:omega(c3)", "egr(8,0.2):k5"])
    def test_truncate(self, calls, text):
        name = specs.parse_name(text)
        self._guard(name.stream, calls)
        with mock.patch.object(SP.HostView, "_SLICE", 100):
            got = SP.truncate(name, 1000)
        top = zero_from(name.stream)
        s = 1000 if top is None else min(1000, top)
        assert calls == [(lo, min(lo + 100, s)) for lo in range(0, s, 100)]
        assert got == reference_truncate(specs.parse_name(text), 1000)

    @pytest.mark.parametrize("text", ["egr:omega(c4)", "egr:komega",
                                      "egr(3,0.3):du(k2,r3)"])
    def test_f_convert(self, calls, text):
        name = specs.parse_name(text)
        self._guard(name.stream, calls)
        out, _ = SP.f_convert(name)
        got = out.stream.prefix(pair(9, 9) + 1)   # stages below 19
        top = zero_from(name.stream)
        assert calls == [(0, 19 if top is None else top)]
        want, _ = SP.f_convert(specs.parse_name(text))
        assert got == want.stream.prefix(pair(9, 9) + 1)

    @pytest.mark.parametrize("spec", ["ec:[0,0,0,3];0", "ec:[2];0",
                                      "per:[0];[0,0,4]"])
    def test_acc_decode(self, calls, spec, capsys):
        argv = ["gadget", "--name", "acc", "--in", spec, "--decode",
                "--fuel", "20"]
        real = GD.acc_canonical_solution

        def guarded(p):
            sol = real(p)
            self._guard(sol.stream, calls)
            return sol

        with mock.patch.object(GD, "acc_canonical_solution", guarded):
            assert cli.main(argv) == 0
        got = capsys.readouterr().out
        assert calls and calls == [(t, t + 1) for t in range(len(calls))]
        calls.clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == got


class _Calls(list):
    """The (lo, hi) of each read_pairs call; inside while one runs."""
    inside = False


def _only_inside(read, calls):
    def checked(*args):
        assert calls.inside, "a read outside read_pairs"
        return read(*args)
    return checked
