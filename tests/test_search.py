import itertools
import random

import pytest

from helpers import random_fin_graph

from streamgraphs import graphs as G
from streamgraphs import search as S
from streamgraphs import spaces as SP
from streamgraphs import trees as T
from streamgraphs.errors import (BadParam, CensusUnstable, FuelExhausted,
                                 NoInfiniteDegreeVertex, PatternNeverSeen,
                                 PredicateUnsupported, PromiseViolation)
from streamgraphs.streams import EventuallyConstant, pair, unpair
from streamgraphs.suites import _naive_least_embedding


def k(n):
    return G.standard("CompleteN", n).materialize()


def r(n):
    return G.standard("RayN", n).materialize()


def c(n):
    return G.standard("CycleN", n).materialize()


class TestFindSFinite:
    def test_k2_in_c3(self):
        sol = S.find_s_finite(k(2), SP.name_of("EGr", c(3)))
        fin = SP.gr_window(sol.name, 8)
        assert G.isomorphic(fin, k(2))

    def test_identity_copy(self):
        sol = S.find_s_finite(r(3), SP.name_of("EGr", r(3)))
        assert dict(sol.inclusion_pairs()) == {0: 0, 1: 1, 2: 2}

    def test_false_promise_exhausts_fuel(self):
        with pytest.raises(FuelExhausted):
            S.find_s_finite(k(3), SP.name_of("EGr", G.standard("Ray")),
                            fuel=500)

    def test_deterministic(self):
        host = SP.name_of("EGr", c(5), ("random", 4, 0.3))
        a = S.find_s_finite(r(3), host)
        b = S.find_s_finite(r(3), host)
        assert a.inclusion_pairs() == b.inclusion_pairs()

    def test_random_promises(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_fin_graph(rng, min_v=1, max_v=4, spread=1)
            junk = random_fin_graph(rng, min_v=1, max_v=3, spread=1)
            host_fin = G.disjoint_union(
                [G.Finite(g), G.Finite(junk)]).materialize()
            host = SP.name_of("EGr", host_fin,
                              ("random", rng.randrange(10**6), 0.2))
            sol = S.find_s_finite(g, host)
            image = SP.gr_window(sol.name, 4 * (max(host_fin.vertices) + 1))
            assert _naive_least_embedding(g, image) is not None
            # re-validation: the copy's edges exist in the host
            big = SP.truncate(host, 4000)
            assert set(image.edges) <= set(big.edges)
            inc = dict(sol.inclusion_pairs())
            assert len(set(inc.values())) == len(inc)


    def test_empty_pattern_at_stage_one_on_padding(self):
        host = SP.SpaceName("EGr", EventuallyConstant([], 0))
        sol = S.find_s_finite(G.FinGraph([]), host, fuel=1)
        assert sol.inclusion_pairs() == []


class TestFindIsViaCn:
    def test_avoids_complete_part(self):
        host_fin = G.disjoint_union(
            [G.standard("CompleteN", 2), G.standard("RayN", 3)]).materialize()
        host = SP.name_of("EGr", host_fin)
        sol = S.find_is_via_cn(r(3), host, S.cn_by_stabilization)
        image = SP.gr_window(sol.name, 30)
        assert G.isomorphic(image, r(3))
        # induced in the host: the K_2 part cannot host an induced R_3
        inc = dict(sol.inclusion_pairs())
        for a, b in itertools.combinations(sorted(inc.values()), 2):
            assert host_fin.has_edge(a, b) == image.has_edge(a, b)

    def test_identity(self):
        sol = S.find_is_via_cn(r(3), SP.name_of("EGr", r(3)),
                               S.cn_by_stabilization)
        assert G.isomorphic(SP.gr_window(sol.name, 20), r(3))

    def test_emitted_ones_match_chosen_embedding(self):
        host = SP.name_of("EGr", r(3))
        sol = S.find_is_via_cn(r(3), host, S.cn_by_stabilization)
        inc = dict(sol.inclusion_pairs())
        expected = {pair(v, v) for v in inc.values()}
        for a, b in r(3).edges:
            x, y = inc[a], inc[b]
            expected |= {pair(x, y), pair(y, x)}
        ones = {n for n in range(200) if sol.name.stream.eval(n) == 1}
        assert ones == expected

    def test_complete_pattern_rejected(self):
        with pytest.raises(BadParam):
            S.find_is_via_cn(k(2), SP.name_of("EGr", k(3)),
                             S.cn_by_stabilization)


class TestFindSComponents:
    def _claimed(self, sol, fuel):
        machine = sol.name.meta["components"]
        for t in range(fuel):
            sol.name.stream.eval(t)
        return machine.claimed

    def test_omega_k2_in_omega_k2(self):
        host = SP.name_of("EGr", G.OmegaCopies(G.standard("CompleteN", 2)))
        sol = S.find_s_components([(k(2), G.OMEGA)], host)
        claimed = self._claimed(sol, 500)
        assert len(claimed) >= 3
        seen = set()
        for comp, mapping in claimed:
            assert comp == k(2)
            vals = set(mapping.values())
            assert not (vals & seen)
            seen |= vals

    def test_omega_k2_in_omega_k3(self):
        host = SP.name_of("EGr", G.OmegaCopies(G.standard("CompleteN", 3)))
        sol = S.find_s_components([(k(2), G.OMEGA)], host)
        claimed = self._claimed(sol, 500)
        assert len(claimed) >= 3
        big = SP.truncate(host, sol.name.meta["components"].fuel + 1)
        seen = set()
        for comp, mapping in claimed:
            a, b = mapping[0], mapping[1]
            assert big.has_edge(a, b)
            assert not ({a, b} & seen)
            seen |= {a, b}

    def test_exceptional_component_first(self):
        target = G.disjoint_union(
            [G.standard("CompleteN", 3), G.OmegaCopies(G.standard("CompleteN", 1))])
        host = SP.name_of("EGr", target)
        sol = S.find_s_components([(k(3), 1), (k(1), G.OMEGA)], host)
        claimed = self._claimed(sol, 400)
        assert claimed[0][0] == k(3)
        assert all(comp == k(1) for comp, _ in claimed[1:])
        assert len(claimed) >= 4


class TestRayFollow:
    def _check_walk(self, walk, host, fuel=4000):
        assert len(set(walk)) == len(walk)
        big = SP.truncate(host, fuel)
        for a, b in zip(walk, walk[1:]):
            assert big.has_edge(a, b)

    def test_two_way_ray(self):
        host = SP.name_of("EGr", G.standard("TwoWayRay"))
        walk = S.ray_follow("TwoWayRay", host, steps=10)
        self._check_walk(walk, host)

    def _tail_host(self, m):
        # clique/cycle on 0..m-1, ray m, m+1, ... attached at m-1
        return SP.name_of("EGr", G.CustomGraph(
            lambda v: True,
            lambda a, b, m=m: (max(a, b) < m)
            or (max(a, b) == min(a, b) + 1 and min(a, b) >= m - 1)))

    def test_cycle_tail(self):
        host = self._tail_host(3)
        walk = S.ray_follow(("CycleTailRay", 3), host, fuel=6000, steps=8)
        self._check_walk(walk, host, fuel=8000)
        assert walk[0] >= 3  # starts at the pendant, outside the cycle

    def test_complete_tail(self):
        host = self._tail_host(4)
        walk = S.ray_follow(("CompleteTailRay", 4), host, fuel=8000, steps=6)
        self._check_walk(walk, host, fuel=10000)
        assert walk[0] >= 4

    def test_full_binary_tree(self):
        host = SP.name_of("EGr", G.standard("FullBinaryTree"))
        walk = S.ray_follow("FullBinaryTree", host, fuel=6000, steps=6)
        self._check_walk(walk, host, fuel=6000)
        nodes = [T.string_decode(v) for v in walk]
        for s, sigma in enumerate(nodes):
            assert len(sigma) == s
            if s:
                assert T.is_prefix(nodes[s - 1], sigma)

    def test_pattern_never_seen(self):
        host = SP.name_of("EGr", G.standard("Ray"))
        with pytest.raises(PatternNeverSeen):
            S.ray_follow(("CycleTailRay", 3), host, fuel=80)

    def test_bad_kind(self):
        with pytest.raises(BadParam):
            S.ray_follow("Spiral", SP.name_of("EGr", G.standard("Ray")))


class TestEmbRayR:
    def test_standard_ray(self):
        host = SP.name_of("Gr", G.standard("Ray"))
        walk = S.emb_ray_r(host, lambda q: q.eval(60), steps=10)
        assert len(set(walk)) == 10
        ray = G.standard("Ray")
        for a, b in zip(walk, walk[1:]):
            assert ray.has_edge(a, b)

    def test_random_relabelings(self):
        for seed in range(10):
            rng = random.Random(seed)
            perm = list(range(24))
            rng.shuffle(perm)
            inv = {perm[i]: i for i in range(24)}

            def back(v, inv=inv):
                return inv.get(v, v)

            relabeled = G.CustomGraph(
                lambda v: True,
                lambda a, b, back=back: abs(back(a) - back(b)) == 1)
            host = SP.name_of("Gr", relabeled)
            walk = S.emb_ray_r(host, lambda q: q.eval(80), steps=8)
            assert len(set(walk)) == 8
            for a, b in zip(walk, walk[1:]):
                assert relabeled.has_edge(a, b)


class TestPathFromSolution:
    def _chain_solution(self, graph, fuel=3000):
        host = G.construction("L1", T.SinglePath(EventuallyConstant([], 0)),
                              graph)
        name = SP.name_of("EGr", host)
        return S.SolutionStream(name, lambda v: v), fuel

    def test_l1_zero_blocks(self):
        sol, fuel = self._chain_solution(G.standard("CompleteOmega"))
        out = S.path_from_solution(("L1", 0), sol, fuel=fuel, steps=4)
        assert len(out) >= 3
        for s, sigma in enumerate(out):
            assert set(sigma) == {0} or sigma == ()
            if s:
                assert T.is_prefix(out[s - 1], sigma) and sigma != out[s - 1]

    def test_l2_extension_counts(self):
        host = G.construction("L2", T.SinglePath(EventuallyConstant([], 0)),
                              G.standard("TreeT", 1))
        sol = S.SolutionStream(SP.name_of("EGr", host), lambda v: v)
        out = S.path_from_solution(("L2", 1), sol, fuel=4000, steps=4)
        assert len(out) >= 3
        fin = SP.truncate(sol.name, 4000)
        nodes = {v: T.string_decode(v) for v in fin.vertices}
        for s, sigma in enumerate(out):
            exts = [w for w in fin.vertices
                    if T.is_prefix(sigma, nodes[w]) and nodes[w] != sigma]
            assert len(exts) >= 2
            assert len(sigma) >= s

    def test_l2_oracle_mode(self):
        host = G.construction("L2", T.SinglePath(EventuallyConstant([], 0)),
                              G.standard("TreeT", 1))
        sol = S.SolutionStream(SP.name_of("EGr", host), lambda v: v)
        out = S.path_from_solution(("L2O", lambda s: 1), sol,
                                   fuel=4000, steps=4)
        assert len(out) >= 3
        for s, sigma in enumerate(out):
            assert len(sigma) >= s

    def test_promise_violation(self):
        # two incomparable stars: high-degree picks off any one path
        nodes = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        codes = {s: T.string_code(s) for s in nodes}
        fake = G.FinGraph(codes.values(),
                          [(codes[(0,)], codes[(0, 0)]),
                           (codes[(0,)], codes[(0, 1)]),
                           (codes[(1,)], codes[(1, 0)]),
                           (codes[(1,)], codes[(1, 1)])])
        sol = S.SolutionStream(SP.name_of("EGr", fake), lambda v: v)
        with pytest.raises(PromiseViolation):
            S.path_from_solution(("L1", 1), sol, fuel=600, steps=4)

    def test_bad_mode(self):
        sol, fuel = self._chain_solution(G.standard("CompleteOmega"))
        with pytest.raises(BadParam):
            S.path_from_solution(("L9", 0), sol, fuel=100)


class TestRestrictToConnected:
    def test_picks_component(self):
        host_fin = G.disjoint_union(
            [G.standard("CompleteN", 2), G.standard("CompleteN", 2)]).materialize()
        host = SP.name_of("EGr", host_fin)
        first = sorted(host_fin.vertices)[0]
        out = S.restrict_to_connected(host, first)
        assert SP.validate_name(out, horizon=200) == "ok"
        fin = SP.truncate(out, 200)
        assert G.isomorphic(fin, k(2))

    def test_connected_host_unchanged(self):
        host = SP.name_of("EGr", c(4))
        out = S.restrict_to_connected(host, 0)
        assert G.isomorphic(SP.truncate(out, 300), c(4))

    def test_isolated_vertex(self):
        host_fin = G.FinGraph([0, 1, 2], [(1, 2)])
        host = SP.name_of("EGr", host_fin)
        fin = SP.truncate(S.restrict_to_connected(host, 0), 200)
        assert fin == G.FinGraph([0])

    def test_infinite_component(self):
        target = G.disjoint_union(
            [G.standard("CompleteN", 2), G.standard("Ray")])
        host = SP.name_of("EGr", target)
        ray_v = pair(1, 0)
        fin = SP.truncate(S.restrict_to_connected(host, ray_v), 400)
        assert fin.is_acyclic() and fin.is_connected()
        assert len(fin.vertices) > 5


class TestFindT3:
    def test_tree_t1(self):
        sol = S.find_t3(G.standard("TreeT", 1))
        fin = SP.truncate(sol.name, 40)
        center = sol.inclusion["center"]
        assert all(center in e for e in fin.edges)
        assert len(fin.edges) >= 8

    def test_komega(self):
        sol = S.find_t3(G.standard("CompleteOmega"))
        assert sol.inclusion["center"] == 0
        fin = SP.truncate(sol.name, 40)
        assert all(0 in e for e in fin.edges)

    def test_no_infinite_degree(self):
        with pytest.raises(NoInfiniteDegreeVertex):
            S.find_t3(G.standard("RayN", 5))


class TestFindF2k2:
    def _audit(self, sol, host, fuel):
        machine = sol.name.meta["f2k2"]
        for t in range(fuel):
            sol.name.stream.eval(t)
        vs = [v for v, _ in machine.nodes]
        assert len(set(vs)) == len(vs)
        return machine

    def test_k0_omega_k1(self):
        host = G.OmegaCopies(G.standard("CompleteN", 1))
        sol = S.find_f2k2(host, 0)
        emissions = [sol.name.stream.eval(t) for t in range(30)]
        for e in emissions:
            i, j = unpair(e - 1)
            assert i == j  # vertices only, never an edge
        self._audit(sol, host, 30)

    def test_k1_forest_f1(self):
        host = G.standard("ForestF", 1)
        sol = S.find_f2k2(host, 1)
        machine = self._audit(sol, host, 120)
        roots = [v for v, d in machine.nodes if d == 0]
        assert len(roots) >= 3
        for v, d in machine.nodes:
            if d == 0:
                assert host.degree(v) == G.OMEGA
        fin = SP.truncate(sol.name, 120)
        for a, b in fin.edges:
            assert host.has_edge(a, b)

    def test_k1_tree_t2(self):
        host = G.standard("TreeT", 2)
        sol = S.find_f2k2(host, 1)
        machine = self._audit(sol, host, 120)
        fin = SP.truncate(sol.name, 120)
        for a, b in fin.edges:
            assert host.has_edge(a, b)
        assert len([v for v, d in machine.nodes if d == 0]) >= 3

    def test_promise_refuted(self):
        with pytest.raises(PredicateUnsupported):
            S.find_f2k2(G.standard("RayN", 5), 1)


class TestCantorUniquePath:
    def _path_name(self, nodes):
        bits = {}
        for sigma in nodes:
            code = T.string_code(sigma)
            bits[pair(code, code)] = 1
        top = max(bits) + 1
        return SP.SpaceName(
            "Gr", EventuallyConstant([bits.get(i, 0) for i in range(top)], 0))

    def test_zero_path(self):
        chain = [(0,) * n for n in range(6)]
        sol = self._path_name(chain)
        out = S.cantor_unique_path(sol, 6)
        assert out == chain

    def test_census_two_levels_skipped(self):
        nodes = [(), (0,), (1,), (0, 0)]
        out = S.cantor_unique_path(self._path_name(nodes), 3)
        assert out == [(), (0, 0)]

    def test_prefix_increasing(self):
        chain = [(0, 1)[n % 2:n % 2 + 1] * 0 or (0,) * n for n in range(5)]
        out = S.cantor_unique_path(self._path_name(chain), 5)
        for a, b in zip(out, out[1:]):
            assert T.is_prefix(a, b)

    def test_empty_level(self):
        sol = self._path_name([()])
        with pytest.raises(CensusUnstable):
            S.cantor_unique_path(sol, 3)

    def test_egr_refused(self):
        with pytest.raises(BadParam):
            S.cantor_unique_path(SP.name_of("EGr", k(2)), 2)
