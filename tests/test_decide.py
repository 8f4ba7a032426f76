import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import random_fin_graph

from streamgraphs import decide as D
from streamgraphs import graphs as G
from streamgraphs import spaces as SP
from streamgraphs import specs
from streamgraphs import trees as T
from streamgraphs.errors import (BadParam, PredicateUnsupported,
                                 UndecidableWithoutCertificate)
from streamgraphs.streams import EventuallyConstant, Periodic
from streamgraphs.suites import _naive_embeddings, _naive_least_embedding


def k(n):
    return G.standard("CompleteN", n).materialize()


def r(n):
    return G.standard("RayN", n).materialize()


def c(n):
    return G.standard("CycleN", n).materialize()


class TestFinSubgraph:
    def test_c3_into_k3(self):
        assert D.fin_subgraph(c(3), k(3)) is not None

    def test_r3_not_induced_in_k3(self):
        assert D.fin_subgraph(r(3), k(3), induced=True) is None
        assert D.fin_subgraph(r(3), k(3), induced=False) is not None

    def test_empty_host(self):
        empty = G.FinGraph([])
        assert D.fin_subgraph(k(1), empty) is None
        for induced in (False, True):
            assert list(D.embeddings(empty, empty, induced)) == [{}]
            assert list(D.embeddings(k(1), empty, induced)) == []
            assert list(D.embeddings(r(4), r(3), induced)) == []

    def test_witness_is_checkable(self):
        emb = D.fin_subgraph(r(3), c(5), induced=True)
        assert emb is not None
        assert emb.check(r(3), c(5), induced=True)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans())
    @example(3, False)
    def test_matches_naive_enumeration(self, seed, induced):
        """The engine against the brute-force oracle of `suites`, first hit
        and enumerating, on non-contiguous labels; min_v=0 brings empty
        graphs and patterns larger than the host."""
        rng = random.Random(seed)
        g = random_fin_graph(rng, min_v=0, max_v=5, density=rng.random())
        h = random_fin_graph(rng, min_v=0, max_v=7, density=rng.random())
        assert (list(D.embeddings(g, h, induced))
                == list(_naive_embeddings(g, h, induced)))
        got = D.fin_subgraph(g, h, induced)
        assert ((None if got is None else got.mapping)
                == _naive_least_embedding(g, h, induced))

    def test_deterministic(self):
        a = D.fin_subgraph(r(4), c(6))
        b = D.fin_subgraph(r(4), c(6))
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(0, 4))
    def test_core_outside_matches_definition(self, seed, kk):
        """The k-core is what is left after deleting, in any order, a vertex
        with fewer than k neighbours left, until none is."""
        rng = random.Random(seed)
        h = random_fin_graph(rng, min_v=0, max_v=12, density=rng.random())
        left = set(h.vertices)
        while True:
            low = [v for v in sorted(left)
                   if len(h.adjacency[v] & left) < kk]
            if not low:
                break
            left.remove(rng.choice(low))
        assert set(h.vertices) - D.core_outside(h.adjacency, kk) == left
        for least in range(len(h.vertices) + 2):
            out = D.core_outside(h.adjacency, kk, least)
            assert (out is None) == (len(left) < least)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans())
    def test_matches_naive_where_the_core_is_smaller(self, seed, induced):
        """Patterns of minimum degree >= 2 in hosts with pendant trees,
        which the search skips: the least embedding is the oracle's."""
        rng = random.Random(seed)
        g, h = _min_degree_2_pattern(rng), _cored_host(rng)
        got = D.fin_subgraph(g, h, induced)
        assert ((None if got is None else got.mapping)
                == _naive_least_embedding(g, h, induced))

    def test_cored_hosts_are_peeled(self):
        """The generator above reaches the peel: most hosts lose vertices
        and still hold a copy often enough."""
        peeled = hits = 0
        for seed in range(200):
            rng = random.Random(seed)
            g, h = _min_degree_2_pattern(rng), _cored_host(rng)
            peeled += bool(D.core_outside(h.adjacency, 2))
            hits += D.fin_subgraph(g, h) is not None
        assert peeled > 150 and 20 < hits < 180

    @pytest.mark.parametrize("pattern, host", [
        (c(3), "egr:l"), (k(3), "egr:fbt"), (k(4), "egr:l")])
    def test_absent_on_a_forest_window_backtracks_nowhere(
            self, monkeypatch, pattern, host):
        fin = SP.truncate(specs.parse_name(host), 1000)
        calls = []
        extend = D._extend

        def counting(*args, **kwargs):
            calls.append(args)
            return extend(*args, **kwargs)

        monkeypatch.setattr(D, "_extend", counting)
        assert D.fin_subgraph(pattern, fin) is None
        assert D.fin_subgraph(pattern, fin, induced=True) is None
        assert calls == []


def _min_degree_2_pattern(rng):
    """A cycle, a clique or a random graph of minimum degree >= 2."""
    kind = rng.randrange(3)
    if kind == 0:
        return c(rng.randrange(3, 6))
    if kind == 1:
        return k(rng.randrange(3, 5))
    n = rng.randrange(4, 6)
    es = {(a, b) for a in range(n) for b in range(a + 1, n)
          if rng.random() < 0.4}
    for v in range(n):
        while sum(v in e for e in es) < 2:
            w = rng.choice([w for w in range(n) if w != v])
            es.add((min(v, w), max(v, w)))
    return G.FinGraph(range(n), es)


def _cored_host(rng):
    """A random graph on 3-5 vertices with 1-3 more vertices hung on it one
    at a time, each joined to one earlier vertex (pendant paths and trees),
    on shuffled, non-contiguous labels."""
    n = rng.randrange(3, 6)
    m = n + rng.randrange(1, 4)
    es = [(a, b) for a in range(n) for b in range(a + 1, n)
          if rng.random() < 0.6]
    es += [(rng.randrange(v), v) for v in range(n, m)]
    labels = rng.sample(range(3 * m), m)
    return G.FinGraph(labels, [(labels[a], labels[b]) for a, b in es])


class TestSemidecide:
    def test_k2_in_c3_enumeration(self):
        host = SP.name_of("EGr", c(3))
        v = D.semidecide_s(k(2), host, fuel=20)
        assert v.kind == "found"
        assert v.witness.check(k(2), SP.truncate(host, 20))

    def test_refuted_on_certified_empty(self):
        host = SP.SpaceName("Gr", EventuallyConstant([], 0))
        assert D.semidecide_s(k(2), host, fuel=10).kind == "refuted"

    def test_unknown_without_certificate(self):
        host = SP.name_of("EGr", G.standard("Ray"))
        assert D.semidecide_s(k(4), host, fuel=50).kind == "unknown"

    def test_monotone_in_fuel(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_fin_graph(rng, max_v=3)
            h = random_fin_graph(rng, max_v=6)
            host = SP.name_of("EGr", h, ("random", rng.randrange(10**6), 0.3))
            fuels = [5, 20, 80, 2000]
            verdicts = [D.semidecide_s(g, host, fuel=f) for f in fuels]
            seen_found = False
            for v in verdicts:
                if seen_found:
                    assert v.kind == "found"
                seen_found = seen_found or v.kind == "found"
                if v.kind == "found":
                    assert v.witness.check(g, SP.truncate(host, 4000))


class TestSigma2Decider:
    def test_complete_pattern_rejected(self):
        with pytest.raises(BadParam):
            D.decide_is_egr_noncomplete(k(2), SP.name_of("EGr", k(3)))

    def test_certified_finite_host(self):
        host = SP.name_of("EGr", G.disjoint_union(
            [G.standard("CompleteN", 3), G.standard("RayN", 3)]).materialize())
        assert D.decide_is_egr_noncomplete(r(3), host) is True
        assert D.decide_is_egr_noncomplete(r(5), host) is False

    def test_komega_host(self):
        host = SP.name_of("EGr", G.standard("CompleteOmega"))
        assert D.decide_is_egr_noncomplete(r(3), host) is False

    def test_k5_plus_omega_r3(self):
        target = G.disjoint_union(
            [G.standard("CompleteN", 5),
             G.OmegaCopies(G.standard("RayN", 3))])
        host = SP.name_of("EGr", target)
        assert D.decide_is_egr_noncomplete(r(3), host) is True
        # a two-component pattern needs two R_3 copies; omega replication has them
        two_paths = G.disjoint_union(
            [G.standard("RayN", 3), G.standard("RayN", 3)]).materialize()
        assert D.decide_is_egr_noncomplete(two_paths, host) is True

    def test_no_certificate(self):
        from streamgraphs.streams import GeneratorBacked
        host = SP.SpaceName("EGr", GeneratorBacked(lambda n: 0))
        with pytest.raises(UndecidableWithoutCertificate):
            D.decide_is_egr_noncomplete(r(3), host)


class TestPredicateTF:
    def test_treet_identity(self):
        assert D.predicate_tf("T", 1, G.standard("TreeT", 1)) is True

    def test_finite_star_fails(self):
        star = G.FinGraph(range(6), [(0, i) for i in range(1, 6)])
        assert D.predicate_tf("T", 1, star) is False
        assert D.predicate_tf("T", 0, star) is True

    def test_f2_in_omega_k1(self):
        assert D.predicate_tf("F", 0, G.OmegaCopies(k(1))) is True

    def test_hierarchy_table(self):
        for kk in range(3):
            assert D.predicate_tf("T", kk, G.standard("TreeT", kk)) is True
            assert D.predicate_tf("T", kk + 1, G.standard("TreeT", kk)) is False
            assert D.predicate_tf("F", kk, G.standard("ForestF", kk)) is True
            assert D.predicate_tf("F", kk + 1, G.standard("ForestF", kk)) is False
            assert D.predicate_tf("T", kk, G.standard("ForestF", kk)) is True
            # the next tree level contains the forest level below its root
            assert D.predicate_tf("F", kk, G.standard("TreeT", kk + 1)) is True

    def test_empty_graph(self):
        assert D.predicate_tf("T", 0, G.FinGraph([])) is False

    def test_unsupported_host(self):
        host = G.FromGrName(SP.name_of("Gr", G.standard("Ray")))
        with pytest.raises(PredicateUnsupported):
            D.predicate_tf("T", 0, host)


class TestCertForest:
    def test_rank_of_chain(self):
        for kk in range(4):
            assert D._chain_tree(kk).rank() == kk

    def test_stream_children_certificate(self):
        leaf = D.CertTree()
        inf = D.CertTree(stream_children=(Periodic([], [0, 1]), leaf))
        fin = D.CertTree(stream_children=(EventuallyConstant([0, 0, 0], 1), leaf))
        assert inf.rank() == 1
        assert fin.rank() == 0
        assert fin.node_count() == 4

    def test_counting(self):
        t = D._chain_tree(2)
        forest = D.CertForest([(t, 1)])
        assert forest.count_rank_ge(2) == 1
        assert forest.count_rank_ge(1) == D.OMEGA


class TestWF2:
    def test_root_only(self):
        assert D.wf2(T.FiniteTree([()])) is True

    def test_single_path(self):
        assert D.wf2(T.SinglePath(EventuallyConstant([], 0))) is False

    def test_full_binary(self):
        assert D.wf2(T.FullBinary()) is False

    def test_cut_binary(self):
        cut = T.LevelRule(lambda s: [0, 1] if len(s) < 3 else [],
                          depth_bound=3)
        assert D.wf2(cut) is True

    def test_unbounded_rule_rejected(self):
        unbounded = T.LevelRule(lambda s: [0, 1])
        with pytest.raises(PredicateUnsupported):
            D.wf2(unbounded)

    def test_union(self):
        good = T.DisjointTreeUnion([T.FiniteTree([()]), T.FiniteTree([(), (0,)])])
        bad = T.DisjointTreeUnion([T.FiniteTree([()]),
                                   T.SinglePath(EventuallyConstant([], 1))])
        assert D.wf2(good) is True
        assert D.wf2(bad) is False

    def test_random_finite_binary_trees(self):
        rng = random.Random(12)
        for _ in range(200):
            nodes = {()}
            for _ in range(rng.randrange(12)):
                base = rng.choice(sorted(nodes))
                if len(base) < 6:
                    nodes.add(base + (rng.randrange(2),))
            tree = T.FiniteTree(nodes)
            depth = max(len(s) for s in nodes)
            as_rule = T.LevelRule(
                lambda s, ns=frozenset(nodes): [d for d in (0, 1)
                                                if s + (d,) in ns],
                depth_bound=depth)
            # oracle: a finite tree has an empty level right past its depth
            assert not any(len(s) == depth + 1 for s in nodes)
            assert D.wf2(tree) is True
            assert D.wf2(as_rule) is True
