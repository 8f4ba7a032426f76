"""Certified oracle problems and the reduction-composition harness.

A Problem bundles a name, an instance validator, a solver over certified
instances, a fuel policy and a solution checker; every oracle_call runs all
of them, so an answer that fails the problem's own checker never escapes.

compose() is the generic reduction engine: a forward transducer turns the
input into an oracle instance, the oracle answers, and a backward transducer
turns (input, answer) into the output.  In strong mode the backward side is
handed a sealed stand-in instead of the input, so any attempt to read the
input trips HarnessContractViolation structurally rather than by convention.
"""

from .decide import wf2
from .errors import (BadParam, HarnessContractViolation, MalformedInstance,
                     OracleRefused, PromiseViolation,
                     UndecidableWithoutCertificate)
from .graphs import construction, standard
from .spaces import SpaceName, name_of
from .streams import (CertifiedStream, EventuallyConstant, GeneratorBacked,
                      Periodic, exists_one, is_binary, limit)
from .trees import (DisjointTreeUnion, FiniteTree, FullBinary, SinglePath,
                    TreeGen, string_code, string_decode)


# ---------------------------------------------------------------------------
# Problem objects
# ---------------------------------------------------------------------------

class Problem:
    """A named multi-valued problem over certified instances."""

    def __init__(self, name, validator, solver, checker=None,
                 fuel_policy=None):
        self.name = name
        self.validator = validator
        self.solver = solver
        self.checker = checker
        self.fuel_policy = fuel_policy

    def solve(self, instance, fuel=None):
        self.validator(instance)
        budget = fuel if fuel is not None else self.fuel_policy
        out = self.solver(instance, budget)
        if self.checker is not None and not self.checker(instance, out):
            raise PromiseViolation(
                "%s produced an answer failing its own checker" % self.name)
        return out

    def __repr__(self):
        return "Problem(%r)" % (self.name,)


def oracle_call(problem, instance, fuel=None):
    return problem.solve(instance, fuel)


# ---------------------------------------------------------------------------
# Instance validators
# ---------------------------------------------------------------------------

def _certified(p):
    if not isinstance(p, Periodic):
        raise UndecidableWithoutCertificate(
            "instance must be EventuallyConstant or Periodic")


def _certified_binary(p):
    _certified(p)
    if not is_binary(p):
        raise MalformedInstance("binary stream expected")


def _certified_tree(t):
    if not isinstance(t, TreeGen):
        raise MalformedInstance("tree expected")


# ---------------------------------------------------------------------------
# LPO and its certified jumps
# ---------------------------------------------------------------------------

class LimitTower:
    """A certified n-fold limit tower: a finite run of stage values whose
    last entry is the stage the tower has converged to."""

    def __init__(self, stages):
        stages = list(stages)
        if not stages:
            raise MalformedInstance("a limit tower needs at least one stage")
        self.stages = stages

    @property
    def settled(self):
        return self.stages[-1]

    def __repr__(self):
        return "LimitTower(%d stages)" % len(self.stages)


def tower_depth(x):
    if isinstance(x, LimitTower):
        return 1 + tower_depth(x.settled)
    return 0


def tower_collapse(x):
    while isinstance(x, LimitTower):
        x = x.settled
    return x


def _tower_leaves(x):
    if isinstance(x, LimitTower):
        for stage in x.stages:
            for leaf in _tower_leaves(stage):
                yield leaf
    else:
        yield x


def _validate_lpo_n(instance):
    depth = tower_depth(instance)
    if depth > 2:
        raise MalformedInstance("limit towers supported up to depth 2")
    for leaf in _tower_leaves(instance):
        if not isinstance(leaf, CertifiedStream):
            raise MalformedInstance("tower leaves must be streams")
    _certified_binary(tower_collapse(instance))


def _lpo_value(p):
    return 0 if exists_one(p, 1) else 1


LPO = Problem(
    "lpo", _certified_binary,
    lambda p, fuel: _lpo_value(p),
    checker=lambda p, out: out in (0, 1))

LPO_N = Problem(
    "lpo^(n)", _validate_lpo_n,
    lambda inst, fuel: _lpo_value(tower_collapse(inst)),
    checker=lambda inst, out: out in (0, 1))


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------

LIM = Problem(
    "lim", _certified,
    lambda p, fuel: limit(p),
    checker=lambda p, out: isinstance(out, int) and out >= 0)

LIM2 = Problem(
    "lim2", _certified_binary,
    lambda p, fuel: limit(p),
    checker=lambda p, out: out in (0, 1))


# ---------------------------------------------------------------------------
# Closed choice on the naturals (negative-information instances)
# ---------------------------------------------------------------------------

def _validate_cn(e):
    if not isinstance(e, EventuallyConstant):
        raise UndecidableWithoutCertificate(
            "C_N needs a co-enumeration with a stability certificate")
    if e.tail != 0:
        raise MalformedInstance("co-enumeration tail must be padding (0)")


def _cn_excluded(e):
    return {v - 1 for v in e.head if v}


def _cn_solve(e, fuel):
    excluded = _cn_excluded(e)
    n = 0
    while n in excluded:
        n += 1
    return n


CN = Problem("cn", _validate_cn, _cn_solve,
             checker=lambda e, out: out not in _cn_excluded(e))


# ---------------------------------------------------------------------------
# Choice on Cantor and Baire space (paths through ill-founded trees)
# ---------------------------------------------------------------------------

def _single_path_stream(tree):
    return GeneratorBacked(lambda n: tree.branch_prefix(n + 1)[n])


def _prepend(digit, rest):
    return GeneratorBacked(lambda n: digit if n == 0 else rest.eval(n - 1))


def _path_solve(tree):
    """A path through an ill-founded tree, read off the tree's own
    certificate: a single path is its branch, the full binary tree has the
    all-zeros path, and a disjoint union descends into a part that wf2
    shows ill-founded. Any other tree kind is refused, not guessed."""
    if isinstance(tree, FiniteTree):
        raise MalformedInstance("well-founded instance has no path")
    if isinstance(tree, SinglePath):
        return _single_path_stream(tree)
    if isinstance(tree, FullBinary):
        return GeneratorBacked(lambda n: 0)
    if isinstance(tree, DisjointTreeUnion):
        for i, part in enumerate(tree.parts):
            if not wf2(part):
                return _prepend(i, _path_solve(part))
        raise MalformedInstance("every part is well-founded")
    raise UndecidableWithoutCertificate("tree kind carries no certificate")


def _path_in_tree(tree, path, depth):
    sigma = tuple(path.eval(i) for i in range(depth))
    return all(tree.contains(sigma[:k]) for k in range(depth + 1))


CCANTOR = Problem("ccantor", _certified_tree,
                  lambda t, fuel: _path_solve(t),
                  checker=lambda t, out: _path_in_tree(t, out, 50))


CBAIRE = Problem("cbaire", _certified_tree, lambda t, fuel: _path_solve(t))


# ---------------------------------------------------------------------------
# Well-foundedness
# ---------------------------------------------------------------------------

WF = Problem("wf", _certified_tree,
             lambda t, fuel: 1 if wf2(t) else 0,
             checker=lambda t, out: out in (0, 1))


_REGISTRY = {p.name: p for p in
             (LPO, LPO_N, LIM, LIM2, CN, CCANTOR, CBAIRE, WF)}


def problem_by_name(name):
    key = name.lower()
    if key not in _REGISTRY:
        raise BadParam("unknown problem %r" % (name,))
    return _REGISTRY[key]


# ---------------------------------------------------------------------------
# The reduction-composition harness
# ---------------------------------------------------------------------------

class _SealedInput:
    """Strong-mode stand-in for the input: any attribute access (including
    eval/stream/meta) trips the contract."""

    def __getattr__(self, item):
        raise HarnessContractViolation(
            "backward transducer read the input in strong mode (.%s)" % item)

    def __getitem__(self, item):
        raise HarnessContractViolation(
            "backward transducer indexed the input in strong mode")


class ReductionHarness:
    """forward: input -> oracle instance; backward: (input, answer) -> output.
    In strong mode backward receives a sealed stand-in for the input."""

    def __init__(self, forward, backward, strength="weak"):
        if strength not in ("weak", "strong"):
            raise BadParam("strength must be 'weak' or 'strong'")
        self.forward = forward
        self.backward = backward
        self.strength = strength


def compose(harness, oracle, instance, fuel=None):
    oracle_instance = harness.forward(instance)
    answer = oracle.solve(oracle_instance, fuel)
    handed = _SealedInput() if harness.strength == "strong" else instance
    return harness.backward(handed, answer)


# ---------------------------------------------------------------------------
# Ready-made oracle problems over graph names
# ---------------------------------------------------------------------------

def _validate_host_name(host):
    if not isinstance(host, SpaceName):
        raise MalformedInstance("a space name is required")


def subgraph_presence_problem(g, induced=False, fuel=200):
    """Does the host contain a copy of the finite graph g?  Backed by
    `decide.decide`, as `sgraph decide` is; refuses rather than guessing."""
    from .decide import decide

    def solve(host, budget):
        verdict = decide(g, host, induced=induced, fuel=budget)
        if verdict.kind == "found":
            return 1
        if verdict.kind == "refuted":
            return 0
        raise OracleRefused("presence not settled within fuel %d" % budget)

    return Problem("contains(%d vertices)" % len(g.vertices),
                   _validate_host_name, solve,
                   checker=lambda host, out: out in (0, 1),
                   fuel_policy=fuel)


def ray_embedding_problem(fuel=2000, steps=4):
    """Find a ray embedding into a host built by the double-ray gadget; the
    direction choice is a lim2 oracle call on the gadget's driving stream."""
    from .search import emb_ray_r

    def solve(host, budget):
        driver = host.meta.get("lim2")
        if isinstance(driver, Periodic):   # refuse what LIM2 refuses
            _certified_binary(driver)
            limit(driver)

        def lim_oracle(q):
            if isinstance(driver, Periodic):
                # q(t) compares the two sides within the vertices below t.
                # The finite side lies below vertex 2 * cert_start + 2, so
                # from t = 4 * cert_start + 4 on the infinite side holds
                # more vertices there and q(t) has reached its limit: the
                # tail of q from that probe is constant, with q's limit.
                probe_at = 4 * driver.cert_start + 4
                return oracle_call(
                    LIM2, EventuallyConstant([], q.eval(probe_at)))
            return q.eval(budget // 8)

        walk = emb_ray_r(host, lim_oracle, fuel=budget, steps=steps)
        return EventuallyConstant(walk, walk[-1])

    return Problem("emb_ray", _validate_host_name, solve, fuel_policy=fuel)


# ---------------------------------------------------------------------------
# Path choice through a single-branch tree, via ray search in the
# comparability layering (the round-trip pipeline)
# ---------------------------------------------------------------------------

def finds_ray_problem():
    """Find a one-way ray inside an L1(T, Ray) layering.  Exact when the
    underlying tree is a certified single path: the layering is itself a ray
    on the codes of the branch prefixes."""

    def validate(host):
        _validate_host_name(host)
        lay = host.meta.get("denotes")
        if lay is None or not isinstance(getattr(lay, "tree", None),
                                         SinglePath):
            raise UndecidableWithoutCertificate(
                "ray search needs a certified single-branch layering")

    def solve(host, budget):
        from .search import SolutionStream
        tree = host.meta["denotes"].tree

        def include(n):
            return string_code(tree.branch_prefix(n))

        return SolutionStream(host, include)

    return Problem("finds_ray", validate, solve)


FINDS_RAY = finds_ray_problem()


def _l1_ray_decode(_tree, solution):
    """Digits of the tree path from a ray solution in L1(T, Ray).  The walk
    direction is settled by one lim2 call on the comparability indicator
    (does the next picked node extend the previous one?)."""
    include = solution.inclusion

    def extends(k):
        return 1 if len(string_decode(include(k + 1))) > \
            len(string_decode(include(k))) else 0

    probe = 4
    orient = oracle_call(
        LIM2, EventuallyConstant([extends(k) for k in range(probe)],
                                 extends(probe)))
    if orient != 1:
        raise PromiseViolation("ray solution does not climb the branch")
    return GeneratorBacked(lambda n: string_decode(include(n + 1))[n])


def path_choice_roundtrip(tree, fuel=None):
    """Path through a certified single-branch tree, computed the long way
    round: lay the tree against a ray, find the ray, decode the digits."""
    harness = ReductionHarness(
        lambda t: name_of("Gr", construction("L1", t, standard("Ray"))),
        _l1_ray_decode)
    return compose(harness, FINDS_RAY, tree, fuel)
