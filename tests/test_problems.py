import itertools
import random

import pytest

from helpers import BareTree

from streamgraphs import gadgets as GD
from streamgraphs import graphs as G
from streamgraphs import problems as P
from streamgraphs import trees as T
from streamgraphs.errors import (HarnessContractViolation, MalformedInstance,
                                 UndecidableWithoutCertificate)
from streamgraphs.streams import EventuallyConstant as EC
from streamgraphs.streams import GeneratorBacked, Periodic


class TestLPO:
    def test_all_zero(self):
        assert P.oracle_call(P.LPO, EC([], 0)) == 1

    def test_late_one(self):
        assert P.oracle_call(P.LPO, EC([0, 0, 0, 1], 0)) == 0

    def test_tail_one(self):
        assert P.oracle_call(P.LPO, EC([0], 1)) == 0

    def test_periodic(self):
        assert P.oracle_call(P.LPO, Periodic([], [0, 1])) == 0

    def test_uncertified_refused(self):
        with pytest.raises(UndecidableWithoutCertificate):
            P.oracle_call(P.LPO, GeneratorBacked(lambda n: 0))

    def test_nonbinary_refused(self):
        with pytest.raises(MalformedInstance):
            P.oracle_call(P.LPO, EC([2], 0))


class TestLPOTower:
    def test_depth_zero_is_lpo(self):
        assert P.oracle_call(P.LPO_N, EC([0, 1], 0)) == 0

    def test_depth_two(self):
        tower = P.LimitTower([EC([1], 1),
                              P.LimitTower([EC([1], 0), EC([], 0)])])
        assert P.tower_depth(tower) == 2
        assert P.oracle_call(P.LPO_N, tower) == 1

    def test_depth_three_refused(self):
        deep = P.LimitTower([P.LimitTower([P.LimitTower([EC([], 0)])])])
        with pytest.raises(MalformedInstance):
            P.oracle_call(P.LPO_N, deep)

    def test_agrees_with_direct_evaluation(self):
        rng = random.Random(5)
        for _ in range(100):
            def stream():
                return EC([rng.randint(0, 1) for _ in range(rng.randint(0, 4))],
                          rng.randint(0, 1))
            tower = P.LimitTower([
                P.LimitTower([stream() for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(1, 3))])
            base = P.tower_collapse(tower)
            want = 1 if all(base.eval(i) == 0 for i in range(40)) \
                and base.tail == 0 else 0
            assert P.oracle_call(P.LPO_N, tower) == want


class TestLim:
    def test_lim_value(self):
        assert P.oracle_call(P.LIM, EC([5, 3, 3], 7)) == 7

    def test_lim2_paper_case(self):
        assert P.oracle_call(P.LIM2, EC([0, 1], 1)) == 1

    def test_lim2_oscillation_refused(self):
        from streamgraphs.errors import NotConvergent
        with pytest.raises(NotConvergent):
            P.oracle_call(P.LIM2, Periodic([], [0, 1]))


class TestCN:
    def test_least_survivor(self):
        # co-enumeration excludes 0,1,3,2 -> least member is 4
        assert P.oracle_call(P.CN, EC([1, 2, 4, 0, 3], 0)) == 4

    def test_empty_exclusion(self):
        assert P.oracle_call(P.CN, EC([], 0)) == 0

    def test_uncertified_refused(self):
        with pytest.raises(UndecidableWithoutCertificate):
            P.oracle_call(P.CN, Periodic([], [1]))

    def test_answer_never_excluded(self):
        rng = random.Random(1)
        for _ in range(50):
            head = [rng.randint(0, 8) for _ in range(rng.randint(0, 10))]
            out = P.oracle_call(P.CN, EC(head, 0))
            assert (out + 1) not in head


class TestCCantor:
    def test_single_path_exact(self):
        tree = T.SinglePath(Periodic([1, 1, 0], [0, 1]))
        path = P.oracle_call(P.CCANTOR, tree)
        assert path.prefix(6) == [1, 1, 0, 0, 1, 0]

    def test_full_binary_leftmost(self):
        path = P.oracle_call(P.CCANTOR, T.FullBinary())
        assert path.prefix(4) == [0, 0, 0, 0]

    def test_union_skips_wellfounded_part(self):
        tree = T.DisjointTreeUnion(
            [T.FiniteTree([(), (0,)]), T.SinglePath(EC([], 1))])
        path = P.oracle_call(P.CCANTOR, tree)
        assert path.prefix(4) == [1, 1, 1, 1]

    def test_uncertified_tree_kind_refused(self):
        with pytest.raises(UndecidableWithoutCertificate):
            P.oracle_call(P.CCANTOR, BareTree())

    def test_wellfounded_rejected(self):
        with pytest.raises(MalformedInstance):
            P.oracle_call(P.CCANTOR, T.FiniteTree([(), (0,)]))

    def test_checker_runs_deep(self):
        # 50-deep membership audit happens on every call
        tree = T.SinglePath(GeneratorBacked(lambda n: n % 3))
        path = P.oracle_call(P.CCANTOR, tree)
        sigma = tuple(path.prefix(50))
        assert tree.contains(sigma)


class TestCBaire:
    def test_single_path_exact(self):
        tree = T.SinglePath(EC([4, 2], 9))
        path = P.oracle_call(P.CBAIRE, tree)
        assert path.prefix(4) == [4, 2, 9, 9]

    def test_uncertified_tree_kind_refused(self):
        # no digit is guessed from contains and children
        with pytest.raises(UndecidableWithoutCertificate):
            P.oracle_call(P.CBAIRE, BareTree())


class TestWF:
    def test_single_path_illfounded(self):
        assert P.oracle_call(P.WF, T.SinglePath(EC([], 0))) == 0

    def test_finite_wellfounded(self):
        assert P.oracle_call(P.WF, T.FiniteTree([(), (0,), (1,)])) == 1


class TestRegistry:
    def test_lookup(self):
        assert P.problem_by_name("lpo") is P.LPO
        assert P.problem_by_name("CBAIRE") is P.CBAIRE

    def test_unknown(self):
        from streamgraphs.errors import BadParam
        with pytest.raises(BadParam):
            P.problem_by_name("nosuch")


class TestCompose:
    def test_sigma1_with_presence_oracle(self):
        k2 = G.FinGraph([0, 1], [(0, 1)])
        harness = P.ReductionHarness(
            lambda p: GD.sigma1_gadget(p, k2),
            lambda _x, answer: answer)
        oracle = P.subgraph_presence_problem(k2)
        assert P.compose(harness, oracle, EC([], 0)) == 0
        assert P.compose(harness, oracle, EC([0, 1], 0)) == 1

    def test_lim2_gadget_roundtrip(self):
        harness = P.ReductionHarness(
            lambda q: GD.lim2_to_embR(q),
            lambda _x, walk: GD.embR_decode(walk))
        oracle = P.ray_embedding_problem()
        assert P.compose(harness, oracle, EC([1], 0)) == 0
        assert P.compose(harness, oracle, EC([0, 0, 1], 1)) == 1

    def test_lim2_gadget_every_short_head(self):
        # the direction probe must wait until the infinite side has
        # outgrown the finite one, whatever the head
        harness = P.ReductionHarness(
            lambda q: GD.lim2_to_embR(q),
            lambda _x, walk: GD.embR_decode(walk))
        oracle = P.ray_embedding_problem(fuel=50)
        for length in range(5):
            for head in itertools.product((0, 1), repeat=length):
                for tail in (0, 1):
                    q = EC(list(head), tail)
                    assert P.compose(harness, oracle, q) == tail, q

    def test_strong_mode_violation(self):
        harness = P.ReductionHarness(
            lambda p: p,
            lambda x, _answer: x.eval(0),
            strength="strong")
        identity = P.Problem("id", lambda p: None, lambda p, fuel: p)
        with pytest.raises(HarnessContractViolation):
            P.compose(harness, identity, EC([3], 0))

    def test_weak_mode_may_read_input(self):
        harness = P.ReductionHarness(
            lambda p: p,
            lambda x, answer: (x.eval(0), answer))
        identity = P.Problem("id", lambda p: None, lambda p, fuel: 7)
        assert P.compose(harness, identity, EC([3], 0)) == (3, 7)


class TestPathChoiceRoundtrip:
    def test_twenty_single_paths(self):
        rng = random.Random(3)
        for _ in range(20):
            head = [rng.randint(0, 2) for _ in range(rng.randint(0, 5))]
            tree = T.SinglePath(EC(head, rng.randint(0, 2)))
            path = P.path_choice_roundtrip(tree)
            digits = path.prefix(10)
            for k in range(11):
                assert tree.contains(tuple(digits[:k]))

    def test_matches_branch(self):
        tree = T.SinglePath(Periodic([2], [0, 1]))
        path = P.path_choice_roundtrip(tree)
        assert path.prefix(7) == [2, 0, 1, 0, 1, 0, 1]
