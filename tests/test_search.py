import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (anchored_pendant, is_acyclic, is_connected,
                     raising_once, random_fin_graph, reference_co_enum,
                     reference_components, reference_find_s_finite,
                     reference_ray_follow, reference_restrict_to_connected)

from streamgraphs import decide as D
from streamgraphs import graphs as G
from streamgraphs import search as S
from streamgraphs import spaces as SP
from streamgraphs import specs
from streamgraphs import trees as T
from streamgraphs.decide import semidecide_s
from streamgraphs.errors import (BadParam, FuelExhausted,
                                 NoInfiniteDegreeVertex, OracleRefused,
                                 PatternNeverSeen, PredicateUnsupported)
from streamgraphs.streams import (EventuallyConstant, GeneratorBacked,
                                  StagedPairs, pair, unpair, zero_from)
from streamgraphs.suites import _naive_least_embedding


def k(n):
    return G.standard("CompleteN", n).materialize()


def r(n):
    return G.standard("RayN", n).materialize()


def c(n):
    return G.standard("CycleN", n).materialize()


_SPEC_HOSTS = ["egr:l", "gr:l", "egr:fbt", "gr:fbt", "egr:omega(c4)",
               "gr:omega(k3)", "egr:cu(c4,ray)", "gr:cu(k4,ray)",
               "egr:du(k1,r3,l)", "gr:komega", "egr:omega(du(k1,k2))"]


def _random_host(rng):
    """A Gr or EGr name: a spec name, or a random finite graph named in code
    order (Gr) or by a seeded schedule with padding and repeats (EGr)."""
    kind = rng.randrange(3)
    if kind == 0:
        return specs.parse_name(rng.choice(_SPEC_HOSTS))
    fin = random_fin_graph(rng, min_v=0, max_v=10, density=rng.random(),
                           spread=3)
    if kind == 1:
        return SP.name_of("Gr", fin)
    return SP.name_of("EGr", fin, ("random", rng.randrange(10 ** 6),
                                   rng.choice([0.0, 0.3, 0.6])))


def _random_pattern(rng, max_v=4):
    """Small pattern, often with isolated vertices."""
    return random_fin_graph(rng, min_v=1, max_v=max_v,
                            density=rng.choice([0.2, 0.5, 1.0]), spread=2)


def _outcome(call):
    try:
        return call()
    except (FuelExhausted, OracleRefused, PatternNeverSeen) as exc:
        return type(exc).__name__


def _record_reads(name):
    """The positions the name's stream hands out, in the order of the
    reads, recorded at the method each stream kind reads them through."""
    stream, reads = name.stream, []
    ranged = ("pairs" if isinstance(stream, StagedPairs) else
              "values" if isinstance(stream, (GeneratorBacked, SP._GrName))
              else None)
    if ranged is not None:
        real = getattr(stream, ranged)

        def read(lo, hi):
            reads.extend(range(lo, hi))
            return real(lo, hi)

        setattr(stream, ranged, read)
    real_eval = stream.eval

    def one(n):
        reads.append(n)
        return real_eval(n)

    stream.eval = one
    return reads


class TestPeekGuard:
    """The stage loops read each position once and in order, and none at
    or past the stage where they stop or past their fuel; the reads are
    counted through the stream."""

    @staticmethod
    def _read_below(name, stop):
        top = zero_from(name.stream)
        return list(range(stop if top is None else min(stop, top)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_find_s_finite(self, seed):
        """A found copy stops at the first stage whose window holds one,
        an absent one at the fuel."""
        rng = random.Random(seed)
        host, g = _random_host(rng), _random_pattern(rng)
        fuel = rng.randrange(60)
        plain = _random_host(random.Random(seed))
        reads = _record_reads(host)
        try:
            S.find_s_finite(g, host, fuel)
            stop = next(s for s in range(fuel + 1) if D.fin_subgraph(
                g, SP.truncate(plain, s)) is not None)
        except FuelExhausted:
            stop = fuel
        assert reads == self._read_below(host, stop)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_ray_follow(self, seed):
        """The furthest stage a follower asks its view for is within the
        fuel, and it reads nothing past it."""
        rng = random.Random(seed)
        host = _random_host(rng)
        kind = rng.choice(["TwoWayRay", "FullBinaryTree",
                           ("CycleTailRay", 3), ("CompleteTailRay", 3)])
        fuel, steps = rng.randrange(300), rng.randrange(1, 9)
        reads, asked = _record_reads(host), [0]
        grow = SP.HostView.grow

        def recording(view, s):
            asked[0] = max(asked[0], s)
            return grow(view, s)

        with mock.patch.object(SP.HostView, "grow", recording):
            _outcome(lambda: S.ray_follow(kind, host, fuel, steps))
        assert asked[0] <= fuel
        assert reads == self._read_below(host, asked[0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_find_s_components(self, seed):
        """Each step of the machine reads the next 10 positions."""
        rng = random.Random(seed)
        host = specs.parse_name(rng.choice(
            ["egr:omega(k3)", "egr:omega(c4)", "egr:omega(du(k1,k2))",
             "gr:omega(k2)", "egr(5,0.3):du(k3,k3,c4)"]))
        reads = _record_reads(host)
        sol = S.find_s_components([(k(rng.choice([2, 3])), G.OMEGA)], host)
        sol.name.stream.prefix(rng.randrange(1, 40))
        machine = sol.name.meta["components"]
        assert reads == self._read_below(host, machine.fuel)


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
            host_fin = G.disjoint_union([g, junk]).materialize()
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

    def test_new_vertex_anchors_every_pattern_vertex(self):
        # the isolated vertex 0 lands on host vertex 2, which arrives with
        # the edge (0, 2) in the same position as the copy's last edge
        sol = S.find_s_finite(specs.parse_pattern("du(k1,r3)"),
                              specs.parse_name("gr:fbt"), fuel=20)
        assert sol.inclusion == {0: 2, 1: 1, 4: 0, 8: 3}

    @staticmethod
    def _pattern_setups(monkeypatch):
        """Record the pattern-side setup of the searches (the placement
        orders given to `_tables`, the pins given to `_distances` on a
        pattern adjacency, as host balls pass a radius) and count the
        searches (`_extend` calls)."""
        orders, pins, searches = [], [], []
        tables, distances, extend = D._tables, D._distances, D._extend

        def counting_tables(g, gs, induced):
            orders.append(tuple(gs))
            return tables(g, gs, induced)

        def counting_distances(adj, sources, radius=None):
            if radius is None:
                pins.append((id(adj), tuple(sources)))
            return distances(adj, sources, radius)

        def counting_extend(*args):
            searches.append(len(args[0][0]))
            return extend(*args)

        monkeypatch.setattr(D, "_tables", counting_tables)
        monkeypatch.setattr(D, "_distances", counting_distances)
        monkeypatch.setattr(D, "_extend", counting_extend)
        return orders, pins, searches

    @pytest.mark.parametrize("pattern, host, fuel", [
        ("k3", "egr:omega(c5)", 48), ("c4", "egr:omega(c5)", 60),
        ("r4", "egr:omega(k3)", 60), ("du(k2,c3)", "egr:omega(c4)", 60)])
    def test_each_pin_set_is_set_up_once(self, monkeypatch, pattern, host,
                                         fuel):
        """One plan serves every stage: each pin set's order, tables and
        distances are built once, however many searches pin it."""
        orders, pins, searches = self._pattern_setups(monkeypatch)
        try:
            S.find_s_finite(specs.parse_pattern(pattern),
                            specs.parse_name(host), fuel)
        except FuelExhausted:
            pass
        assert len(set(orders)) == len(orders) == len(pins) == len(set(pins))
        assert len(searches) > 3 * len(orders) > 0

    def test_absent_component_stops_the_joint_search(self, monkeypatch):
        """du(k1,c3) on a path: c3 never shows, so no stage searches the
        whole pattern, and the work is that of k1 and c3 alone."""
        orders, _, searches = self._pattern_setups(monkeypatch)
        g = specs.parse_pattern("du(k1,c3)")
        with pytest.raises(FuelExhausted):
            S.find_s_finite(g, specs.parse_name("egr:l"), 200)
        assert searches
        assert max(searches + [len(gs) for gs in orders]) < len(g.vertices)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_matches_full_search_of_every_stage(self, seed):
        rng = random.Random(seed)
        g, host = _random_pattern(rng), _random_host(rng)
        fuel = rng.randrange(1, 120)

        def found():
            sol = S.find_s_finite(g, host, fuel=fuel)
            return sol.name.stream.head, sol.inclusion

        want = _outcome(lambda: reference_find_s_finite(g, host, fuel))
        got = _outcome(found)
        if isinstance(want, tuple):
            want = (want[0].stream.head, want[1])
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_more_fuel_keeps_the_found_copy(self, seed):
        rng = random.Random(seed)
        g, host = _random_pattern(rng), _random_host(rng)
        verdicts = []
        for fuel in sorted(rng.sample(range(1, 150), 4)):
            got = _outcome(lambda: S.find_s_finite(g, host, fuel).inclusion)
            if verdicts and verdicts[-1] != "FuelExhausted":
                assert got == verdicts[-1]
            verdicts.append(got)


class TestSemidecideMonotone:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_verdict_only_moves_from_unknown_to_found(self, seed):
        # the witness is the least copy of a longer prefix, so only the
        # verdict is fixed once found, not the witness
        rng = random.Random(seed)
        g, host = _random_pattern(rng), _random_host(rng)
        kinds = []
        for fuel in sorted(rng.sample(range(0, 150), 4)):
            v = semidecide_s(g, host, fuel=fuel)
            if v.kind == "found":
                fin = SP.truncate(host, fuel)
                assert v.witness.check(g, fin)
            kinds.append(v.kind)
        assert kinds == sorted(kinds, key=["unknown", "found",
                                           "refuted"].index)
        assert "found" not in kinds or "refuted" not in kinds


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_co_enumeration_matches_reference(self, seed):
        rng = random.Random(seed)
        host = _random_host(rng)
        g = _random_pattern(rng)
        n = len(g.vertices)
        if len(g.edges) == n * (n - 1) // 2:
            g = G.FinGraph(list(g.vertices) + [max(g.vertices) + 1], g.edges)
        cap = rng.randrange(1, 40)
        ts = rng.sample(range(cap), cap)   # any order of calls
        seen = []

        def recording(co_enum, stage_cap):
            seen.extend(co_enum(t) for t in ts)
            return S.cn_by_stabilization(co_enum, stage_cap)

        got = _outcome(lambda: S.find_is_via_cn(g, host, recording,
                                                cap).inclusion)
        reference = reference_co_enum(g, host)
        assert seen == [reference(t) for t in ts]
        assert got == _outcome(lambda: S.find_is_via_cn(
            g, host, S.cn_by_stabilization, cap).inclusion)


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

    def test_host_read_that_raises_changes_nothing(self):
        """The step whose read of the host raises commits nothing, so the
        retry claims at the same stage as a clean run."""
        host = specs.parse_name("egr:fbt")
        flaky = SP.SpaceName("EGr", raising_once(host.stream, 15))
        sol = S.find_s_components([(k(2), G.OMEGA)], flaky)
        with pytest.raises(RuntimeError):
            sol.name.stream.prefix(60)
        clean = S.find_s_components([(k(2), G.OMEGA)], host)
        assert sol.name.stream.prefix(60) == clean.name.stream.prefix(60)


    @pytest.mark.parametrize("host, comp", [
        ("egr:omega(k3)", "k3"), ("egr:omega(c4)", "c4"), ("egr:l", "k2")])
    def test_first_vertex_candidates_do_not_grow(self, monkeypatch, host,
                                                  comp):
        """A step's full search draws the first pattern vertex from the
        machine's sorted unclaimed vertices, so it reads no claimed vertex
        and reads no more in later steps than in the first ones. (Drawn
        from every host vertex, a step read each claimed one: 475 at the
        160th step on egr:omega(k3).)"""
        drawn, extend = [], D._extend

        def counted(vs):
            for u in vs:
                drawn[-1] += 1
                yield u

        def counting(tables, hadj, start, exclude=(), near=None, hosts=None):
            if not start:
                drawn.append(0)
                hosts = counted(sorted(hadj) if hosts is None else hosts)
            return extend(tables, hadj, start, exclude, near, hosts)

        monkeypatch.setattr(D, "_extend", counting)
        sol = S.find_s_components([(specs.parse_pattern(comp), G.OMEGA)],
                                  specs.parse_name(host))
        machine = sol.name.meta["components"]
        for _ in range(160):
            machine.step()
        assert len(machine.claimed) >= 150 and len(drawn) >= 150
        assert max(drawn[20:]) <= max(drawn[:20]) <= 10

class TestComponentsMatchFullSearch:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_same_copies_as_the_induced_free_part(self, seed):
        # at most one exceptional part: a failed search for several
        # disjoint parts is exponential in both implementations
        rng = random.Random(seed)
        host = _random_host(rng)
        exceptional = [_random_pattern(rng, 3)] if rng.random() < 0.5 else []
        recurring = [_random_pattern(rng, 3)
                     for _ in range(rng.randrange(0 if exceptional else 1, 3))]
        length = rng.randrange(1, 60)
        sol = S.find_s_components([(comp, 1) for comp in exceptional]
                                  + [(comp, G.OMEGA) for comp in recurring],
                                  host)
        want, claimed = reference_components(exceptional, recurring, host,
                                             length)
        assert sol.name.stream.prefix(length) == want
        assert sol.name.meta["components"].claimed == claimed


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

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_matches_snapshot_probes(self, seed):
        rng = random.Random(seed)
        host = _random_host(rng)
        kind = rng.choice(["TwoWayRay", "FullBinaryTree",
                           ("CycleTailRay", 3), ("CycleTailRay", 4),
                           ("CompleteTailRay", 3), ("CompleteTailRay", 4)])
        fuel, steps = rng.randrange(0, 300), rng.randrange(1, 9)
        assert _outcome(lambda: S.ray_follow(kind, host, fuel, steps)) == \
            _outcome(lambda: reference_ray_follow(kind, host, fuel, steps))

    # the ray kinds and hosts of the search-staged bench workload
    RAYS = [("TwoWayRay", "egr:l"), (("CycleTailRay", 4), "egr:cu(c4,ray)"),
            (("CycleTailRay", 5), "egr:cu(c5,ray)"),
            (("CompleteTailRay", 4), "egr:cu(k4,ray)")]

    @pytest.mark.parametrize("steps", [10, 20, 25])
    @pytest.mark.parametrize("kind, host", RAYS)
    def test_long_walks_match_snapshot_probes(self, kind, host, steps):
        assert S.ray_follow(kind, specs.parse_name(host), steps=steps) == \
            reference_ray_follow(kind, specs.parse_name(host), steps=steps)

    @pytest.mark.parametrize("kind, host", RAYS[:2])
    def test_300_step_walks_match_snapshot_probes(self, kind, host):
        """One `seen` set carried along a long walk bans what the set
        rebuilt at every step banned."""
        walk = S.ray_follow(kind, specs.parse_name(host), steps=300)
        assert len(walk) == 300
        assert walk == reference_ray_follow(kind, specs.parse_name(host),
                                            steps=300)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_pendant_matches_anchored_probe(self, seed):
        """The pendant probe's one search of its whole prefix finds the
        mapping that the probe searching only the copies that use what
        arrived since the previous probe found, or neither finds one."""
        rng = random.Random(seed)
        host = _random_host(rng)
        kind = rng.choice([("CycleTailRay", 3), ("CycleTailRay", 4),
                           ("CompleteTailRay", 3), ("CompleteTailRay", 4)])
        fuel = rng.randrange(0, 300)
        found, wait_for = [], S._wait_for

        def recording(predicate, fuel, after=0):
            found.append(wait_for(predicate, fuel, after))
            return found[-1]

        with mock.patch.object(S, "_wait_for", recording):
            got = _outcome(lambda: S.ray_follow(kind, host, fuel, steps=1))
        want = _outcome(lambda: anchored_pendant(kind, host, fuel))
        assert (found[0] if found else got) == want

    @pytest.mark.parametrize("steps, fuel", [(4, 200), (6, 200), (8, 200),
                                             (10, 2000), (12, 2000)])
    def test_tree_walks_match_snapshot_probes(self, steps, fuel):
        def walk(follow):
            return _outcome(lambda: follow("FullBinaryTree",
                                           specs.parse_name("egr:fbt"),
                                           fuel, steps))

        assert walk(S.ray_follow) == walk(reference_ray_follow)

    @pytest.mark.parametrize("kind, host, calls", [
        RAYS[0] + (32,), RAYS[1] + (27,), RAYS[3] + (27,)])
    def test_walk_probes_start_past_the_tip(self, kind, host, calls):
        """A step's probes start at the least stage of the doubling schedule
        past the tip's arrival, so none answers None: a 25-step walk asks
        `calls` times (161, 154 and 156 times from stage 1 at every step)."""
        answers = []
        neighbors = SP.HostView.neighbors

        def recording(view, v, s):
            answers.append(neighbors(view, v, s))
            return answers[-1]

        with mock.patch.object(SP.HostView, "neighbors", recording):
            S.ray_follow(kind, specs.parse_name(host), steps=25)
        assert len(answers) == calls and None not in answers


class TestEmbRayR:
    def test_standard_ray(self):
        host = SP.name_of("Gr", G.standard("Ray"))
        walk = S.emb_ray_r(host, lambda q: q.eval(60), steps=10)
        assert len(set(walk)) == 10
        ray = G.standard("Ray")
        for a, b in zip(walk, walk[1:]):
            assert ray.has_edge(a, b)

    def test_egr_walk_probes_start_past_the_tip(self):
        """On an EGr host a step's probes start past the tip's arrival, as
        in ray_follow: on the transducer name, a 25-step walk asks 38 times
        (218 from stage 1 at every step). The first two vertices come from
        graph(s), which grows nothing, so only the first step's first probe
        answers None."""
        answers = []
        neighbors = SP.HostView.neighbors

        def recording(view, v, s):
            answers.append(neighbors(view, v, s))
            return answers[-1]

        with mock.patch.object(SP.HostView, "neighbors", recording):
            walk = S.emb_ray_r(
                SP.gr_to_egr(SP.name_of("Gr", G.standard("Ray"))),
                lambda q: q.eval(60), steps=25)
        assert walk == list(range(25))
        assert len(answers) == 38 and answers.count(None) == 1

    def test_each_vertex_window_is_built_once(self, monkeypatch):
        """The walk probes the same window sizes at every step."""
        tops, real = [], S.gr_window

        def counting(name, top):
            tops.append(top)
            return real(name, top)

        monkeypatch.setattr(S, "gr_window", counting)
        walk = S.emb_ray_r(SP.name_of("Gr", G.standard("Ray")),
                           lambda q: q.eval(60), steps=10)
        assert len(walk) == 10 and len(tops) == len(set(tops))

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
        # the transducer's padding: a 400-position window of the dense name
        # can end between a stage's vertex and its edge, and is disconnected
        host = SP.gr_to_egr(SP.name_of("Gr", target))
        ray_v = pair(1, 0)
        fin = SP.truncate(S.restrict_to_connected(host, ray_v), 400)
        assert is_acyclic(fin) and is_connected(fin)
        assert len(fin.vertices) > 5

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_matches_snapshot_components(self, seed):
        rng = random.Random(seed)
        host = _random_host(rng)
        v, length = rng.randrange(12), rng.randrange(1, 120)
        got = S.restrict_to_connected(host, v).stream.prefix(length)
        assert got == reference_restrict_to_connected(host, v, length)

    def test_host_read_that_raises_changes_nothing(self):
        """The step whose read of the host raises commits nothing, so the
        retry still sees the edges of those positions."""
        host = specs.parse_name("egr:c4")
        flaky = SP.SpaceName("EGr", raising_once(host.stream, 6))
        out = S.restrict_to_connected(flaky, 0)
        with pytest.raises(RuntimeError):
            out.stream.prefix(40)
        clean = S.restrict_to_connected(host, 0).stream.prefix(40)
        assert out.stream.prefix(40) == clean


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

    def test_has_edge_that_raises_changes_nothing(self):
        """A stage whose has_edge raises runs again at the next read, from
        the vertex it was asking about."""
        g = specs.parse_graph("komega")
        calls, has_edge = [], g.has_edge

        def flaky(a, b):
            calls.append((a, b))
            if len(calls) == 5:
                raise RuntimeError("flaky input")
            return has_edge(a, b)

        g.has_edge = flaky
        sol = S.find_t3(g)
        with pytest.raises(RuntimeError):
            sol.name.stream.prefix(20)
        clean = S.find_t3(specs.parse_graph("komega")).name.stream.prefix(20)
        assert clean[:6] == [1, 5, 3, 13, 6, 25]
        assert sol.name.stream.prefix(20) == clean


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

    def test_scan_exhaustion_keeps_the_failed_rounds_claims(self):
        stream = S.find_f2k2(G.standard("ForestF", 1), 1, scan=3).name.stream
        assert stream.prefix(3) == [5, 13, 9]
        with pytest.raises(PatternNeverSeen):
            stream.eval(3)
        assert stream.eval(3) == 25
