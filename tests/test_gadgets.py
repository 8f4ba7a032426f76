import random
import sys
import threading
from collections import Counter
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (BareTree, cycles_box_stage_log, is_acyclic, is_connected,
                     raising_once, random_certified_stream, random_fin_graph,
                     reference_enuminf_decode, reference_ray_solution)

from streamgraphs import decide as D
from streamgraphs import gadgets as GD
from streamgraphs import graphs as G
from streamgraphs import spaces as SP
from streamgraphs import trees as T
from streamgraphs.errors import (BadParam, HeightExceeded, MalformedInstance,
                                 NoIllFoundedCertificate, NotInB,
                                 PredicateUnsupported)
from streamgraphs.streams import (EventuallyConstant, GeneratorBacked,
                                  Periodic, StagedPairs, exists_one,
                                  infinitely_often, limit, pair,
                                  parse_stream)
from streamgraphs.suites import _naive_least_embedding


def k(n):
    return G.standard("CompleteN", n).materialize()


def r(n):
    return G.standard("RayN", n).materialize()


def c(n):
    return G.standard("CycleN", n).materialize()


class TestSigma1:
    def test_all_zero_is_empty(self):
        name = GD.sigma1_gadget(EventuallyConstant([], 0), k(2))
        assert SP.gr_window(name, 12) == G.FinGraph([])

    def test_one_hit_places_copy(self):
        name = GD.sigma1_gadget(EventuallyConstant([0, 0, 1], 0), c(3))
        fin = SP.gr_window(name, 12)
        assert sorted(fin.vertices) == [2, 3, 4]
        assert G.isomorphic(fin, c(3))

    def test_certified_and_generator_agree(self):
        p = EventuallyConstant([0, 1, 0], 0)
        certified = GD.sigma1_gadget(p, r(3))
        blind = GD.sigma1_gadget(GeneratorBacked(p.eval), r(3))
        assert certified.stream.prefix(120) == blind.stream.prefix(120)

    def test_empty_pattern_rejected(self):
        with pytest.raises(BadParam):
            GD.sigma1_gadget(EventuallyConstant([], 0), G.FinGraph([]))

    def test_containment_tracks_exists_one(self):
        rng = random.Random(41)
        for _ in range(50):
            g = random_fin_graph(rng, min_v=1, max_v=4, spread=1)
            p = random_certified_stream(rng)
            name = GD.sigma1_gadget(p, g)
            window = 8 + len(g.vertices)
            fin = SP.gr_window(name, window)
            found = D.fin_subgraph(g, fin, induced=True) is not None
            assert found == exists_one(p, 1)

    def test_names_validate(self):
        for p in (EventuallyConstant([], 0), Periodic([0], [1, 0])):
            name = GD.sigma1_gadget(p, r(2))
            assert SP.validate_prefix("Gr", name.stream.prefix(60)) == "ok"


class TestSigma2:
    def test_complete_pattern_rejected(self):
        with pytest.raises(BadParam):
            GD.sigma2_gadget(EventuallyConstant([], 0), k(3))

    def test_validates_as_egr(self):
        name = GD.sigma2_gadget(Periodic([], [1]), r(3))
        assert SP.validate_prefix("EGr", name.stream.prefix(200)) == "ok"

    def test_stable_fuel_metadata(self):
        p = EventuallyConstant([0, 1], 0)
        name = GD.sigma2_gadget(p, r(3))
        fuel = name.meta["sigma2_stable_fuel"]
        core = SP.truncate(name, fuel)
        # driver went quiet after stage 1: two spawned copies, completed
        assert len(core.vertices) >= 6
        sub = core.induced(range(6))
        assert len(sub.edges) == 15  # K_6

    def test_infinitely_many_ones_collapse(self):
        name = GD.sigma2_gadget(Periodic([], [1]), r(3))
        assert "sigma2_stable_fuel" not in name.meta
        fin = SP.truncate(name, 800)
        sub = fin.induced(range(9))
        assert len(sub.edges) == 36  # K_9 so far

    def test_copies_keep_spawning(self):
        p = EventuallyConstant([1], 0)
        name = GD.sigma2_gadget(p, c(4))
        fin = SP.truncate(name, 600)
        # beyond the frozen core, vertices come in aligned C_4 blocks
        blocks = 0
        for base in range(4, max(fin.vertices) - 3, 4):
            block = fin.induced(range(base, base + 4))
            if len(block.vertices) == 4:
                assert G.isomorphic(block, c(4))
                blocks += 1
        assert blocks >= 3

    def test_driver_read_that_raises_changes_nothing(self):
        driver = GeneratorBacked(lambda t: t % 2)
        name = GD.sigma2_gadget(raising_once(driver, 1), r(3))
        with pytest.raises(RuntimeError):
            name.stream.prefix(40)
        clean = GD.sigma2_gadget(driver, r(3))
        assert name.stream.prefix(40) == clean.stream.prefix(40)

    def test_decider_round_trip(self):
        host_true = GD.sigma2_gadget(EventuallyConstant([1, 0], 0), r(3))
        assert D.decide_is_egr_noncomplete(r(3), host_true) is True
        host_false = GD.sigma2_gadget(Periodic([], [1]), r(3))
        assert D.decide_is_egr_noncomplete(r(3), host_false) is False

    def test_random_against_naive_window(self):
        rng = random.Random(52)
        for _ in range(12):
            g = random_fin_graph(rng, min_v=2, max_v=3, spread=1)
            n = len(g.vertices)
            if len(g.edges) == n * (n - 1) // 2:
                continue
            p = random_certified_stream(rng, max_prefix=4)
            host = GD.sigma2_gadget(p, g)
            got = D.decide_is_egr_noncomplete(g, host)
            if infinitely_often(p, 1):
                assert got is False
            else:
                fuel = host.meta["sigma2_stable_fuel"]
                window = SP.truncate(host, fuel + 20 * (2 * n + n * n))
                assert got == (_naive_least_embedding(g, window, True)
                               is not None)


class TestForestsLift:
    def test_base_infinite_zeros(self):
        # the root is (); the leaf for p(n) = 0 is the string (n,)
        f = GD.forests_lift(Periodic([], [0, 1]))
        leaves = [T.string_code((n,)) for n in (0, 2, 4)]
        assert leaves == [1, 6, 15]
        assert f.vertex_count() == G.OMEGA
        assert f.degree(0) == G.OMEGA
        assert all(f.has_edge(0, c) for c in leaves)
        assert not f.has_edge(1, 6)
        assert not f.has_vertex(T.string_code((1,)))

    def test_base_finite_zeros(self):
        f = GD.forests_lift(EventuallyConstant([0, 0], 1))
        assert f.vertex_count() == 3
        assert [v for v in range(50) if f.has_vertex(v)] == [0, 1, 3]
        assert list(f.iter_vertices()) == [0, 1, 3]
        assert f.degree(0) == 2
        assert f.degree(1) == 1

    def test_bit_preserved_by_one_lift(self):
        for p in (Periodic([], [0, 1]), EventuallyConstant([0, 1, 0], 1),
                  EventuallyConstant([1], 1), Periodic([1, 1], [0])):
            bit = infinitely_often(p, 0)
            base = GD.forests_lift(p)
            assert D.predicate_tf("T", 1, base) == bit
            lifted = GD.forests_lift([("omega", base)])
            assert D.predicate_tf("F", 1, lifted) == bit

    def test_two_level_lift(self):
        true_base = GD.forests_lift(Periodic([], [0]))
        false_base = GD.forests_lift(EventuallyConstant([], 1))
        # omega copies of a true part push the witness up a rank
        up_true = GD.forests_lift([("omega", true_base)])
        up2 = GD.forests_lift([("omega", up_true)])
        assert D.predicate_tf("F", 1, up_true) is True
        assert D.predicate_tf("F", 2, up2) is True
        assert D.predicate_tf("F", 2,
                              GD.forests_lift([("omega", false_base)])) is False

    def test_height_audit(self):
        base = GD.forests_lift(Periodic([], [0]))
        with pytest.raises(HeightExceeded):
            GD.forests_lift([base], k=0)
        GD.forests_lift([base], k=1)  # fits

    def test_mixed_parts(self):
        a = GD.forests_lift(EventuallyConstant([0], 1))
        b = GD.forests_lift(Periodic([], [0]))
        f = GD.forests_lift([a, ("omega", b)])
        assert f.vertex_count() == G.OMEGA
        assert D.predicate_tf("F", 1, f) is True

    def test_deterministic_expansion(self):
        mk = lambda: GD.forests_lift(Periodic([0], [0, 1]))
        f1, f2 = mk(), mk()
        e1 = [(a, b) for a in range(12) for b in range(a)
              if f1.has_edge(a, b)]
        e2 = [(a, b) for a in range(12) for b in range(a)
              if f2.has_edge(a, b)]
        assert e1 == e2

    def test_bad_tag(self):
        with pytest.raises(BadParam):
            GD.forests_lift([("omegas", GD.forests_lift(Periodic([], [0])))])


class TestAcc:
    def test_no_removal_is_plain_ray(self):
        out = GD.acc_gadget(EventuallyConstant([], 0))
        assert SP.validate_prefix("EGr", out.name.stream.prefix(100)) == "ok"
        fin = SP.truncate(out.name, 40)
        assert is_acyclic(fin)
        assert fin.has_edge(1, 2) and fin.has_edge(2, 3)
        assert not fin.has_vertex(0)

    def test_removal_reroutes_through_zero(self):
        out = GD.acc_gadget(EventuallyConstant([0, 0, 3], 0))
        fin = SP.truncate(out.name, 60)
        assert fin.has_edge(2, 0)  # removed 2, detour to 0
        assert out.decoder_hint.removed == 2

    def test_two_distinct_removals_rejected(self):
        with pytest.raises(MalformedInstance):
            GD.acc_gadget(EventuallyConstant([2, 3], 0))

    def test_input_read_that_raises_changes_nothing(self):
        """The stage whose read of the removal raises commits nothing, so
        the retry still sees the removal."""
        ce = EventuallyConstant([0, 0, 4], 0)
        out = GD.acc_gadget(raising_once(ce, 2))
        with pytest.raises(RuntimeError):
            out.name.stream.prefix(40)
        clean = GD.acc_gadget(ce).name.stream.prefix(40)
        assert out.name.stream.prefix(40) == clean

    def test_decode_avoids_removed_number(self):
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randrange(6)
            delay = rng.randrange(1, 9)
            ce = EventuallyConstant([0] * delay + [n + 1], 0)
            out = GD.acc_gadget(ce)
            machine = out.decoder_hint
            machine.value(300)  # drive the construction far enough
            if n == 0:
                solutions = [GD.ray_solution(lambda t: t + 1)]
            else:
                top = machine.top
                up = list(range(1, n + 1)) + [0] \
                    + list(range(top + 1, top + 400))
                down = list(range(top, n - 1, -1)) + [0] \
                    + list(range(top + 1, top + 400))
                solutions = [GD.ray_solution(lambda t, s=up: s[t]),
                             GD.ray_solution(lambda t, s=down: s[t])]
            for sol in solutions:
                answer = GD.acc_decode(sol)
                assert answer != n

    def test_decode_terminates_without_removal(self):
        out = GD.acc_gadget(EventuallyConstant([], 0))
        assert GD.acc_decode(GD.ray_solution(lambda t: t + 1)) >= 2
        assert isinstance(GD.acc_decode(out.name), int)

    @staticmethod
    def _edges_solution(edges):
        return SP.SpaceName("EGr", EventuallyConstant(
            [pair(v, v) + 1 for v in range(6)]
            + [pair(a, b) + 1 for a, b in edges], 0))

    def test_decode_answers_the_least_middle(self):
        # (2, 3) completes both 1-2-3 and 2-3-4
        sol = self._edges_solution([(3, 4), (0, 1), (1, 2), (2, 3)])
        assert GD.acc_decode(sol) == 2
        # (2, 3) completes only 2-3-4
        assert GD.acc_decode(self._edges_solution([(3, 4), (2, 3)])) == 3
        # the detour edge (0, 1) never makes a triple
        with pytest.raises(MalformedInstance):
            GD.acc_decode(self._edges_solution([(0, 1), (1, 2), (3, 4)]),
                          fuel=40)


class TestRaySolution:
    """ray_solution is a stage machine with the values of the one-value-
    per-position encoder: v0, then v_t and its edge to v_(t-1)."""

    @pytest.mark.parametrize("vertex", [
        lambda t: t + 1, lambda t: 3 * t, lambda t: (7, 2, 0)[t] if t < 3
        else t + 5, lambda t: 40 - t if t < 20 else t + 21])
    def test_values_match_reference(self, vertex):
        name = GD.ray_solution(vertex)
        assert isinstance(name.stream, StagedPairs)
        assert name.stream.values(0, 60) == \
            reference_ray_solution(vertex).stream.values(0, 60)

    @pytest.mark.parametrize("spec", ["ec:[];0", "ec:[0,0,4];0",
                                      "ec:[0,1];0", "per:[3];[0,3]",
                                      "ec:[0,0,0,0,0,0,2];0"])
    def test_acc_canonical_values_match_reference(self, monkeypatch, spec):
        vertices, real = [], GD.ray_solution

        def recording(vertex):
            vertices.append(vertex)
            return real(vertex)

        monkeypatch.setattr(GD, "ray_solution", recording)
        name = GD.acc_canonical_solution(parse_stream(spec))
        assert isinstance(name.stream, StagedPairs)
        assert name.stream.values(0, 60) == \
            reference_ray_solution(vertices[0]).stream.values(0, 60)


class TestLim2:
    def test_validates_as_gr(self):
        name = GD.lim2_to_embR(EventuallyConstant([1, 0], 0))
        assert SP.validate_prefix("Gr", name.stream.prefix(200)) == "ok"

    def test_graph_is_a_ray(self):
        name = GD.lim2_to_embR(EventuallyConstant([1], 0))
        fin = SP.gr_window(name, 14)
        assert is_acyclic(fin) and is_connected(fin)
        assert all(fin.degree(v) <= 2 for v in fin.vertices)

    def test_canonical_solution_is_embedding(self):
        rng = random.Random(63)
        for _ in range(50):
            head = [rng.randrange(2) for _ in range(rng.randrange(6))]
            q = EventuallyConstant(head, rng.randrange(2))
            name = GD.lim2_to_embR(q)
            sol = GD.embR_canonical_solution(q)
            seen = set()
            for t in range(8):
                v = sol.eval(t)
                assert v not in seen
                seen.add(v)
                assert name.stream.eval(pair(v, v)) == 1
                if t:
                    prev = sol.eval(t - 1)
                    assert name.stream.eval(pair(prev, v)) == 1

    def test_decode_all_subrays(self):
        rng = random.Random(64)
        for _ in range(50):
            head = [rng.randrange(2) for _ in range(rng.randrange(6))]
            q = EventuallyConstant(head, rng.randrange(2))
            sol = GD.embR_canonical_solution(q)
            # every suffix of the canonical ray is also a valid solution
            for offset in range(6):
                shifted = GeneratorBacked(
                    lambda t, o=offset: sol.eval(t + o))
                assert GD.embR_decode(shifted) == limit(q)


class TestCyclesBox:
    def setup_method(self):
        self.tree = T.SinglePath(EventuallyConstant([], 0))
        self.box = GD.cycles_box(self.tree)

    def test_graph_interface(self):
        assert self.box.has_vertex(0)
        self.box.run_stage()
        cyc = self.box._components[("P", 0, 0)]
        assert self.box.has_edge(cyc[0], cyc[1])
        assert self.box.has_edge(cyc[-1], cyc[0])
        assert not self.box.has_edge(cyc[0], cyc[0])

    def test_nonmembers_get_attached(self):
        log = cycles_box_stage_log(self.box, 3)
        assert len(log) == 3
        for s, sigma, attachments in log:
            assert not self.tree.contains(sigma[1:]) or sigma[0] != 0
            assert len(attachments) == min(len(sigma), (3 * s + 4) // 2)
            docks = [self.box._docks[key] for key in attachments]
            assert len(set(docks)) == len(docks)

    def test_docks_are_consumed_once(self):
        log = cycles_box_stage_log(self.box, 3)
        used = [key for entry in log for key in entry[2]]
        assert len(used) == len(set(used))
        for key in used:
            assert self.box._dock_free[key] is False

    def test_deterministic(self):
        other = GD.cycles_box(T.SinglePath(EventuallyConstant([], 0)))
        assert (cycles_box_stage_log(self.box, 2)
                == cycles_box_stage_log(other, 2))
        assert ([self.box.lower_neighbors(v) for v in range(300)]
                == [other.lower_neighbors(v) for v in range(300)])
        assert self.box.window(40) == other.window(40)

    def test_lower_neighbors_settle_once_the_vertex_exists(self):
        early = [self.box.lower_neighbors(v) for v in range(300)]
        self.box.lower_neighbors(3000)   # runs many more stages
        assert [self.box.lower_neighbors(v) for v in range(300)] == early
        for v in range(300):
            assert all(w < v and self.box.has_edge(w, v)
                       and self.box.has_edge(v, w) for w in early[v])
            assert not self.box.has_edge(v, v)

    @pytest.mark.parametrize("positions", [1000, 2000])
    def test_dense_name_lists_edges_without_edge_tests(self, positions):
        calls = []
        has_edge = GD.CyclesBox.has_edge

        def counting(box, a, b):
            calls.append((a, b))
            return has_edge(box, a, b)
        with mock.patch.object(GD.CyclesBox, "has_edge", counting):
            SP.name_of("EGr", self.box).stream.prefix(positions)
        assert calls == []


def _decoded(chi, n):
    """chi's bit at each index below n, or the NotInB message it raises."""
    out = []
    for i in range(n):
        try:
            out.append(chi.eval(i))
        except NotInB as e:
            out.append(str(e))
    return out


class TestEnumInf:
    def test_round_trip_evens(self):
        a = GD.CertifiedPiSet(lambda n: 0 if n % 2 == 0 else 1)
        chi = GD.enuminf_decode(GD.enuminf_encode(a))
        for n in range(8):
            assert chi.eval(n) == (1 if n % 2 == 0 else 0)

    def test_full_set_collapse(self):
        a = GD.CertifiedPiSet(lambda n: 0)
        enum = GD.enuminf_encode(a)
        values = [enum.eval(t) for t in range(5)]
        assert len(set(values)) == 5  # B stays infinite even for A = N
        chi = GD.enuminf_decode(enum)
        assert all(chi.eval(n) == 1 for n in range(6))

    def test_subset_enumeration_suffices(self):
        a = GD.CertifiedPiSet(lambda n: [0, 2, 0, 1][n % 4])
        enum = GD.enuminf_encode(a)
        sparse = GeneratorBacked(lambda t: enum.eval(3 * t + 2))
        chi = GD.enuminf_decode(sparse)
        for n in range(6):
            assert chi.eval(n) == a.chi(n)

    def test_not_in_b(self):
        bogus = GeneratorBacked(lambda t: 10)  # 2 * 5, gap at 3
        with pytest.raises(NotInB):
            GD.enuminf_decode(bogus).eval(0)

    def test_random_sets(self):
        rng = random.Random(90)
        for _ in range(50):
            table = [rng.randrange(3) for _ in range(10)]
            a = GD.CertifiedPiSet(lambda n, t=table: t[n % 10])
            chi = GD.enuminf_decode(GD.enuminf_encode(a))
            for n in range(7):
                assert chi.eval(n) == a.chi(n)

    def test_zero_element_is_not_in_b(self):
        with pytest.raises(NotInB):
            GD.enuminf_decode(GeneratorBacked(lambda t: 0)).eval(0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8),
           st.integers(1, 3), st.integers(0, 3))
    def test_same_bits_as_reference(self, levels, stride, offset):
        """On any level table, read in full or as a sparse subsequence,
        the decoder gives the bits of the decoder that re-read every
        position for every index."""
        a = GD.CertifiedPiSet(lambda n: levels[n % len(levels)])
        enum = GD.enuminf_encode(a)
        sparse = GeneratorBacked(lambda t: enum.eval(stride * t + offset))
        assert (_decoded(GD.enuminf_decode(sparse), 12)
                == _decoded(reference_enuminf_decode(sparse), 12)
                == [a.chi(n) for n in range(12)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
               st.lists(st.integers(0, 3), max_size=8).map(
                   lambda es: prod(p ** e for p, e in
                                   zip(GD._first_primes(8), es))),
               st.integers(1, 10 ** 6),
               # all 64 primes of the table, then one past it or not
               st.sampled_from([prod(GD._first_primes(64)) * q
                                for q in (1, 2, 313)])),
               min_size=1, max_size=6),
           st.integers(1, 12))
    def test_same_not_in_b_as_reference(self, values, fuel):
        """On enumerations that are sparse or malformed (a gap in the
        prime support, a prime past the table, too few elements within
        fuel), every index gives the reference's bit or its NotInB."""
        enum = GeneratorBacked(lambda t: values[t % len(values)])
        assert (_decoded(GD.enuminf_decode(enum, fuel), 10)
                == _decoded(reference_enuminf_decode(enum, fuel), 10))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_each_position_read_once(self, stride):
        """Decoding indices 0..12 reads each position of a non-memoizing
        enumeration at most once (the reference read position t once for
        every index it scanned past)."""
        a = GD.CertifiedPiSet(lambda n: [0, 2, 1][n % 3])
        element = GD.enuminf_encode(a).step
        reads = Counter()

        class Counting:
            def eval(self, t):
                reads[t] += 1
                return element(stride * t)

        chi = GD.enuminf_decode(Counting())
        assert chi.prefix(13) == [a.chi(n) for n in range(13)]
        assert set(reads) == set(range(12 // stride + 1))
        assert max(reads.values()) == 1

    def test_prime_table_grows_under_concurrent_readers(self, monkeypatch):
        want = [n for n in range(2, 400) if all(n % d for d in range(2, n))]
        seen = []

        def read(start):
            start.wait(timeout=30)
            seen.append(GD._first_primes(len(want)) == want)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                monkeypatch.setattr(GD, "_PRIMES", [2])
                start = threading.Barrier(4)
                threads = [threading.Thread(target=read, args=(start,))
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                # a doubled append would show as a repeated prime
                assert GD._PRIMES == want
        finally:
            sys.setswitchinterval(interval)
        assert seen == [True] * 120


class TestSigma11Choice:
    def test_decode_projects_index(self):
        trees = [T.FiniteTree([()]),
                 T.SinglePath(EventuallyConstant([], 0))]
        g = GD.sigma11_choice_gadget(trees)
        path_node = T.string_code((0, 0, 0))
        v = pair(1, path_node)
        assert g.has_vertex(v)
        assert GD.choice_decode(v) == 1

    def test_requires_certificate(self):
        with pytest.raises(NoIllFoundedCertificate):
            GD.sigma11_choice_gadget([T.FiniteTree([()])])

    def test_uncertified_tree_kind_rejected(self):
        with pytest.raises(PredicateUnsupported):
            GD.sigma11_choice_gadget([T.FiniteTree([()]), BareTree()])

    def test_empty_rejected(self):
        with pytest.raises(BadParam):
            GD.sigma11_choice_gadget([])

    def test_union_certificate(self):
        trees = [T.DisjointTreeUnion([T.FiniteTree([()]), T.FullBinary()])]
        g = GD.sigma11_choice_gadget(trees)
        assert GD.choice_decode(pair(0, 0)) == 0
