import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (random_certified_stream, random_fin_graph,
                     reference_f_convert, reference_gr_head)
from streamgraphs import specs
from streamgraphs import streams as S
from streamgraphs.errors import (NotConvergent, ParseError,
                                 UndecidableWithoutCertificate)
from streamgraphs.gadgets import sigma1_gadget
from streamgraphs.spaces import f_convert, name_of


def brute_unpair(n):
    for i in range(n + 1):
        for j in range(n + 1 - i):
            if S.pair(i, j) == n:
                return (i, j)
    raise AssertionError("no preimage for %d" % n)


class TestPairing:
    def test_fixed_values(self):
        assert S.pair(0, 0) == 0
        assert S.pair(1, 0) == 1
        assert S.pair(0, 1) == 2
        assert S.unpair(14) == (0, 4)

    def test_unpair_matches_brute_force(self):
        for n in range(60):
            assert S.unpair(n) == brute_unpair(n)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_round_trip(self, i, j):
        assert S.unpair(S.pair(i, j)) == (i, j)

    def test_monotone_in_each_argument(self):
        for i in range(20):
            for j in range(20):
                assert S.pair(i + 1, j) > S.pair(i, j)
                assert S.pair(i, j + 1) > S.pair(i, j)


class TestEval:
    def test_eventually_constant(self):
        s = S.EventuallyConstant([1, 0], 0)
        assert s.eval(0) == 1
        assert s.eval(5) == 0

    def test_periodic(self):
        assert S.Periodic([], [0, 1]).eval(7) == 1

    def test_generator(self):
        assert S.GeneratorBacked(lambda n: n * n).eval(3) == 9

    def test_generator_memoized_and_lazy(self):
        calls = []
        s = S.GeneratorBacked(lambda n: calls.append(n) or n)
        s.prefix(4)
        s.prefix(4)
        assert sorted(calls) == [0, 1, 2, 3]
        assert max(calls) <= 3  # forced-prefix bound

    def test_eval_forces_only_requested_index(self):
        calls = []
        s = S.GeneratorBacked(lambda n: calls.append(n) or 0)
        s.eval(10)
        assert calls == [10]

    def test_values_step_each_index_once_in_order(self):
        calls = []

        def step(n):
            calls.append(n)
            if n == 6 and calls.count(6) == 1:
                raise ValueError("not yet")
            return n * n

        s = S.GeneratorBacked(step)
        assert s.eval(3) == 9
        with pytest.raises(ValueError):
            s.values(2, 9)
        assert calls == [3, 2, 4, 5, 6]
        assert s.values(1, 8) == [n * n for n in range(1, 8)]
        assert calls == [3, 2, 4, 5, 6, 1, 6, 7]
        assert s.values(4, 4) == [] and s.eval(7) == 49
        assert calls[-1] == 7 and len(calls) == 8


class TestStagedPairs:
    def _machine(self, stages):
        """StagedPairs stream over the given stage outputs, plus its call
        log."""
        calls = []

        def step():
            calls.append(len(calls))
            return list(stages[len(calls) - 1])
        return S.StagedPairs(step), calls

    def test_codes_are_computed_from_the_pairs(self):
        s, calls = self._machine([[(0, 0)], [], [(1, 1), (0, 1)], [(3, 7)]])
        assert s.pairs(0, 5) == [(0, 0), None, (1, 1), (0, 1), (3, 7)]
        want = [1, 0, S.pair(1, 1) + 1, S.pair(0, 1) + 1, S.pair(3, 7) + 1]
        assert s.values(0, 5) == want
        assert [s.eval(n) for n in (4, 1, 0, 3)] == [want[n]
                                                     for n in (4, 1, 0, 3)]
        assert calls == [0, 1, 2, 3]

    def test_reads_run_no_stage_past_the_covering_one(self):
        s, calls = self._machine([[(0, 0), (1, 1)], [(2, 2)], [(3, 3)]])
        assert s.eval(1) == S.pair(1, 1) + 1 and calls == [0]
        assert s.pairs(1, 3) == [(1, 1), (2, 2)] and calls == [0, 1]
        assert s.values(3, 3) == [] and calls == [0, 1]

    def test_raising_stage_adds_nothing_and_is_retried(self):
        state = {"stage": 0, "failed": False}

        def step():
            k = state["stage"]
            if k == 1 and not state["failed"]:
                state["failed"] = True
                raise RuntimeError("flaky")
            state["stage"] += 1
            return [(k, k), (k, k + 1)]
        s = S.StagedPairs(step)
        assert s.pairs(0, 2) == [(0, 0), (0, 1)]
        with pytest.raises(RuntimeError):
            s.eval(2)
        assert s._pairs == [(0, 0), (0, 1)]
        assert s.pairs(0, 6) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2),
                                 (2, 3)]

    def test_refused_by_quantifiers(self):
        with pytest.raises(UndecidableWithoutCertificate):
            S.exists_one(S.StagedPairs(lambda: [(0, 0)]), 1)


class TestQuantifiers:
    def test_exists_one(self):
        assert S.exists_one(S.EventuallyConstant([0, 0, 1], 0), 1)
        assert not S.exists_one(S.EventuallyConstant([], 0), 1)
        assert S.exists_one(S.Periodic([], [0, 1]), 1)

    def test_infinitely_often(self):
        assert not S.infinitely_often(S.EventuallyConstant([1], 0), 1)
        assert S.infinitely_often(S.EventuallyConstant([], 1), 1)
        assert S.infinitely_often(S.Periodic([1, 1], [0, 2]), 2)

    def test_limit(self):
        assert S.limit(S.EventuallyConstant([5, 3], 7)) == 7
        assert S.limit(S.Periodic([], [4])) == 4
        with pytest.raises(NotConvergent):
            S.limit(S.Periodic([], [0, 1]))

    def test_generator_refused(self):
        g = S.GeneratorBacked(lambda n: 0)
        with pytest.raises(UndecidableWithoutCertificate):
            S.exists_one(g, 0)
        with pytest.raises(UndecidableWithoutCertificate):
            S.infinitely_often(g, 0)
        with pytest.raises(NotConvergent):
            S.limit(g)

    def test_quantifiers_agree_with_scans(self):
        # oracle: scan prefix plus three full periods / a tail sample
        import random
        rng = random.Random(1)
        for _ in range(200):
            if rng.random() < 0.5:
                s = S.EventuallyConstant(
                    [rng.randrange(3) for _ in range(rng.randrange(6))],
                    rng.randrange(3))
                horizon = len(s.head) + 3
            else:
                s = S.Periodic(
                    [rng.randrange(3) for _ in range(rng.randrange(6))],
                    [rng.randrange(3) for _ in range(rng.randrange(1, 4))])
                horizon = len(s.head) + 3 * len(s.period)
            for v in range(3):
                scan = [s.eval(n) for n in range(horizon)]
                assert S.exists_one(s, v) == (v in scan)
                tail_scan = scan[len(s.head):] or [s.eval(len(s.head))]
                assert S.infinitely_often(s, v) == (v in tail_scan)

    def test_eventually_always(self):
        assert S.eventually_always(S.EventuallyConstant([1], 0), 0)
        assert not S.eventually_always(S.Periodic([], [0, 1]), 0)
        assert S.eventually_always(S.Periodic([9], [2, 2]), 2)

    def test_first_index(self):
        s = S.EventuallyConstant([0, 3, 0], 5)
        assert S.first_index(s, 3) == 1
        assert S.first_index(s, 5) == 3
        assert S.first_index(s, 7) is None
        p = S.Periodic([9], [0, 4])
        assert S.first_index(p, 4) == 2
        assert S.first_index(p, 4, start=3) == 4


class TestEventuallyConstantIsPeriodic:
    @given(st.lists(st.integers(0, 2), max_size=6), st.integers(0, 2))
    def test_same_answers_as_periodic_with_one_value_period(self, head, tail):
        ec, per = S.EventuallyConstant(head, tail), S.Periodic(head, [tail])
        assert ec.period == per.period and ec.cert_start == per.cert_start
        assert S.limit(ec) == S.limit(per) == tail
        assert S.is_binary(ec) == S.is_binary(per)
        assert S.zero_from(ec) == S.zero_from(per)
        for v in range(3):
            for q in (S.exists_one, S.infinitely_often, S.eventually_always):
                assert q(ec, v) == q(per, v)
            for start in range(len(head) + 3):
                assert S.first_index(ec, v, start) == S.first_index(
                    per, v, start)
            if v != tail:
                assert S.occurrences(ec, v) == S.occurrences(per, v)

    def test_zero_from(self):
        assert S.zero_from(S.EventuallyConstant([0, 1], 0)) == 2
        assert S.zero_from(S.Periodic([1], [0, 0])) == 1
        assert S.zero_from(S.Indicator({4})) == 5
        assert S.zero_from(S.EventuallyConstant([0], 1)) is None
        assert S.zero_from(S.Periodic([], [0, 1])) is None
        assert S.zero_from(S.GeneratorBacked(lambda n: 0)) is None


def _gr_ones(vertices, edges):
    """The codes of a finite graph's Gr name, found by decoding every code
    up to the largest vertex code."""
    vertices = set(vertices)
    edges = {frozenset(e) for e in edges}
    top = S.pair(max(vertices), max(vertices)) + 1 if vertices else 0
    ones = set()
    for n in range(top):
        i, j = S.unpair(n)
        if (i in vertices) if i == j else frozenset((i, j)) in edges:
            ones.add(n)
    return ones


class TestIndicator:
    """The sparse Gr names agree with the dense heads they replace."""

    @staticmethod
    def _assert_matches_dense(s, ones):
        dense = S.EventuallyConstant(reference_gr_head(ones), 0)
        assert isinstance(s, S.Indicator)
        assert s.head == dense.head
        assert s.cert_start == len(dense.head)
        assert s.prefix(s.cert_start + 3) == dense.prefix(s.cert_start + 3)
        assert s == dense and dense == s

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_name_of_finite_graph(self, seed):
        g = random_fin_graph(random.Random(seed), min_v=0, max_v=7)
        self._assert_matches_dense(name_of("Gr", g).stream,
                                   _gr_ones(g.vertices, g.edges))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_copy_name(self, seed):
        rng = random.Random(seed)
        g = random_fin_graph(rng, min_v=0, max_v=6)
        labels = sorted(g.vertices)
        mapping = dict(zip(labels, rng.sample(range(30), len(labels))))
        self._assert_matches_dense(
            name_of("Gr", g.relabel(mapping)).stream,
            _gr_ones(mapping.values(),
                     [(mapping[a], mapping[b]) for a, b in g.edges]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_certified_sigma1(self, seed):
        rng = random.Random(seed)
        p = random_certified_stream(rng)
        g = random_fin_graph(rng, min_v=1, max_v=5)
        hits = [n for n in range(20) if p.eval(n) == 1]
        ones = set()
        if hits:
            at = {v: hits[0] + r for r, v in enumerate(sorted(g.vertices))}
            ones = _gr_ones(at.values(),
                            [(at[a], at[b]) for a, b in g.edges])
        self._assert_matches_dense(sigma1_gadget(p, g).stream, ones)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(["0", "0.3", "0.6"]),
           st.sampled_from(["k1", "r3", "c4", "k4", "du(c3,k3)",
                            "cu(c3,c4)", "du(k2,r3)"]))
    def test_finite_f_convert(self, seed, stutter, graph):
        name = specs.parse_name("egr(%d,%s):%s" % (seed, stutter, graph))
        ref = reference_f_convert(name.stream, len(name.stream.head))
        out, trace = f_convert(name)
        self._assert_matches_dense(
            out.stream, {n for n, bit in ref.decided.items() if bit == 1})
        assert out.stream.ones is trace.ones


class TestTextFormat:
    def test_parse_ec(self):
        s = S.parse_stream("ec:[1,0,1];0")
        assert s.head == (1, 0, 1) and s.tail == 0

    def test_parse_per(self):
        s = S.parse_stream("per:[1];[0,1]")
        assert s.head == (1,) and s.period == (0, 1)

    def test_round_trip(self):
        for text, head, tail, period in (("ec:[1,0,1];0", (1, 0, 1), 0, (0,)),
                                         ("per:[1];[0,1]", (1,), None, (0, 1)),
                                         ("ec:[];2", (), 2, (2,)),
                                         ("per:[];[7]", (), None, (7,))):
            s = S.parse_stream(text)
            assert (s.head, s.period) == (head, period)
            assert getattr(s, "tail", None) == tail

    def test_errors(self):
        for bad in ("xx:[1];0", "ec:[1]", "per:[];[]", "ec:[a];0"):
            with pytest.raises(ParseError):
                S.parse_stream(bad)
