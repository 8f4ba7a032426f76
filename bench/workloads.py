"""The four closed-loop query workloads.

Each builder takes a `random.Random` seeded from `--seed` and returns the
query list of one pass. A query builds its names from spec text, through
`cli.main` or `specs.parse_*`, so no stream cache carries over between
queries, as in a fresh `sgraph` process.

Input-generation rules and their reasons:

* Every workload is a fixed number of queries per class. The seed picks the
  finite hosts, their emission schedules, the patterns on them and the
  order; the infinite-host classes use a fixed multiset of (host, pattern)
  pairs in seeded order. Per-query cost on infinite hosts differs by an
  order of magnitude between pairs, so letting the seed pick them would
  move the percentiles from seed to seed.
* Class shares keep the p50 and p90 ranks inside one class, away from its
  edges, so a percentile does not flip between a cheap and an expensive
  class from run to run.
* `egr(SEED,STUTTER)` stutter is drawn from [0, 1): at stutter >= 1
  `spaces._random_schedule` never ends, and `specs.parse_name` accepts any
  float. Stutter is stratified over the class so every seed sees the same
  spread of schedule lengths, and written rounded down to 3 decimals.
* Heavy-tailed hosts stay in the mix at sizes that do not swamp a run:
  `egr:cu(c4,ray)` (a cycle with a ray glued on; absent `c3` takes 0.3 s at
  fuel 100 and 97 s at fuel 400) at fuel 70, and `egr:fbt` (vertex codes
  grow exponentially) at fuel <= 200 and at few ray steps.
* Sizes are small enough that a pass takes about 1.5 to 2 s on a quiet
  machine, so a run makes enough passes for each query's lower quartile
  to be steady.
* Only honest `FuelExhausted`, `PatternNeverSeen` and `OracleRefused` count
  as an answer besides a result, and only where the check expects them.
"""

import contextlib
import io
import json
import math

from streamgraphs import cli, gadgets, search, spaces, specs, streams
from streamgraphs.errors import FuelExhausted, OracleRefused, PatternNeverSeen
from streamgraphs.graphs import OMEGA

import checks

HONEST = (FuelExhausted, PatternNeverSeen, OracleRefused)

DECIDE_FUELS = (50, 100, 200)
FINDS_FUELS = (12, 24, 48)
RAY_STEPS = (10, 20, 25)
F_CONVERT_STAGES = (24, 48, 96)

# Size-swept functions: metric prefix -> sizes.
SWEPT = {
    "decide.semidecide_s": DECIDE_FUELS,
    "search.find_s_finite": FINDS_FUELS,
    "search.ray_follow": RAY_STEPS,
    "spaces.f_convert": F_CONVERT_STAGES,
}


class Unknown:
    """An honest unknown raised by a library call."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return "Unknown(%s)" % type(self.exc).__name__


class Query:
    """run() does the work and returns the answer; check(answer) returns
    None or the reason the answer is wrong. sizes maps a swept function to
    the size this query runs it at."""

    def __init__(self, cls, label, run, check, sizes=None):
        self.cls = cls
        self.label = label
        self.run = run
        self.check = check
        self.sizes = sizes or {}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def library(call):
    """Library query: honest unknowns become an Unknown answer."""
    def run():
        try:
            return call()
        except HONEST as exc:
            return Unknown(exc)
    return run


def _spread(rng, count, low=0.0, high=1.0):
    """count values stratified over [low, high), in seeded order."""
    width = (high - low) / count
    out = [low + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(out)
    return out


def _schedule_name(seed, stutter, body):
    """EGr spec text of a seeded emission schedule. The stutter is written
    rounded down to 3 decimals: rounded to nearest, a draw just below 1
    would read 1.000, at which the schedule never ends."""
    return "egr(%d,%.3f):%s" % (seed, math.floor(stutter * 1000) / 1000,
                                body)


def _fixed(options, count):
    """count items cycling through options: the same multiset, and the same
    pairing with any size cycled alongside, for every seed."""
    return [options[i % len(options)] for i in range(count)]


# ---------------------------------------------------------------------------
# Hosts and patterns
# ---------------------------------------------------------------------------

# Infinite hosts: spec -> parts for checks.presence, and whether an induced
# query on it is decided from its certificate (decide_is_egr_noncomplete).
INFINITE = {
    "egr:l": ([("L",)], False),
    "gr:l": ([("L",)], False),
    "egr:omega(c4)": ([("c", 4)], True),
    "egr:omega(c5)": ([("c", 5)], True),
    "egr:omega(c6)": ([("c", 6)], True),
    "gr:omega(c4)": ([("c", 4)], False),
    "egr:komega": ([("Kw",)], True),
    "gr:komega": ([("Kw",)], False),
    "egr:fbt": ([("T",)], False),
    "egr:cu(c4,ray)": ([("cu", 4)], False),
}


def _pattern(spec):
    return spec[0], int(spec[1:])


def _random_finite_host(rng):
    """A disjoint union of 2-3 small cycles, cliques and paths."""
    parts = []
    for _ in range(rng.randrange(2, 4)):
        fam = rng.choice("ckr")
        n = rng.randrange(3, 7) if fam != "k" else rng.randrange(2, 5)
        parts.append((fam, n))
    text = "du(%s)" % ",".join("%s%d" % p for p in parts)
    return text, parts


def decide_allowed(pattern, host, mode, fuel, parts, certified_is):
    """Verdict kinds the generator accepts, from its knowledge of the host.

    The host is a spec text; certified-finite hosts are refuted only when
    the fuel covers their whole emission prefix."""
    p = _pattern(pattern)
    induced = mode == "is"
    present = checks.presence(p, parts, induced)
    name = specs.parse_name(host)
    head = getattr(name.stream, "head", None)
    finite = head is not None and getattr(name.stream, "tail", None) == 0
    if induced and name.space == "EGr" and not checks.is_complete(p) and (
            finite or certified_is):
        return {"found"} if present else {"refuted"}
    if finite:
        exhausted = fuel >= len(head)
        if present:
            return {"found"} if exhausted else {"found", "unknown"}
        return {"refuted"} if exhausted else {"unknown"}
    return {"found"} if present else {"unknown"}


def _decide_query(cls, pattern, host, mode, fuel, parts, certified_is,
                  swept=False):
    q = {"pattern": pattern, "host": host, "mode": mode, "fuel": fuel,
         "allowed": decide_allowed(pattern, host, mode, fuel, parts,
                                   certified_is)}
    argv = ["decide", "--pattern", pattern, "--host", host, "--mode", mode,
            "--fuel", str(fuel)]
    return Query(cls, " ".join(argv), lambda: run_cli(argv),
                 lambda ans: checks.decide_error(q, *ans),
                 {"decide.semidecide_s": fuel} if swept else None)


# ---------------------------------------------------------------------------
# decide-oneshot
# ---------------------------------------------------------------------------

# Absent patterns on sparse infinite EGr hosts: each reads the whole fuel and
# ends unknown. Costs of other pairs differ by up to 4x (c5 in egr:l), so
# these are pairs of about equal cost, which keeps the percentiles that fall
# inside these classes from depending on which pair sits at the rank.
ABSENT = [("egr:l", "c3", "s"), ("egr:l", "k3", "is"), ("egr:l", "k4", "s"),
          ("egr:omega(c4)", "c3", "s"), ("egr:omega(c5)", "k4", "s"),
          ("egr:fbt", "k3", "s")]

PRESENT = [("egr:l", "r4", "s"), ("egr:l", "r3", "is"),
           ("egr:omega(c4)", "c4", "s"), ("egr:omega(c5)", "r4", "is"),
           ("egr:omega(c6)", "c6", "is"), ("egr:komega", "k4", "s"),
           ("egr:komega", "c5", "s"), ("egr:komega", "k3", "is"),
           ("gr:l", "r3", "s"), ("gr:komega", "k4", "s"),
           ("gr:omega(c4)", "r3", "s"), ("egr:fbt", "r3", "s")]

CHEAP_ABSENT = [("gr:l", "c4", "s"), ("gr:l", "k3", "s"),
                ("gr:omega(c4)", "c5", "s"), ("gr:komega", "c4", "is"),
                ("egr:omega(c4)", "c5", "is"), ("egr:omega(c5)", "r5", "is"),
                ("egr:komega", "c4", "is"), ("egr:komega", "r3", "is")]


def build_decide_oneshot(rng):
    queries = []

    def infinite(cls, triples, count, fuels, swept):
        for (host, pattern, mode), fuel in zip(
                _fixed(triples, count), fuels * count):
            parts, cert = INFINITE[host]
            queries.append(_decide_query(cls, pattern, host, mode, fuel,
                                         parts, cert, swept))

    # cheap, 44%: present patterns, cheap absent ones, finite hosts
    infinite("present", PRESENT, 24, list(DECIDE_FUELS), False)
    infinite("cheap-absent", CHEAP_ABSENT, 8, list(DECIDE_FUELS), False)
    stutters = _spread(rng, 16)
    for i in range(16):
        text, parts = _random_finite_host(rng)
        host = _schedule_name(rng.randrange(10 ** 6), stutters[i], text)
        pattern = rng.choice(["c3", "c4", "c5", "k3", "k4", "r3", "r4"])
        queries.append(_decide_query(
            "finite-host", pattern, host, ("s", "is")[i % 2],
            DECIDE_FUELS[i % 3], parts, False))
    # absent on infinite hosts: 27% / 15% / 13% at the three fuels, so p50
    # falls inside the first and p90 inside the last of these classes
    infinite("absent-%d" % DECIDE_FUELS[0], ABSENT, 30, [DECIDE_FUELS[0]],
             True)
    infinite("absent-%d" % DECIDE_FUELS[1], ABSENT, 16, [DECIDE_FUELS[1]],
             True)
    infinite("absent-%d" % DECIDE_FUELS[2], ABSENT, 14, [DECIDE_FUELS[2]],
             True)
    heavy = [("egr:cu(c4,ray)", "k3", "s"), ("egr:cu(c4,ray)", "c5", "s")]
    infinite("absent-heavy", heavy, 2, [70], False)
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# search-staged
# ---------------------------------------------------------------------------

# find_s_finite: (host, pattern). Early ones appear within 10-15 stages,
# late ones within 26-37 (both inside the smallest fuel they are used at,
# 24 and 48);
# absent ones read every stage up to the fuel and end in FuelExhausted.
FINDS_PRESENT = [("egr:l", "r8"), ("egr:komega", "k5"), ("egr:fbt", "r5"),
                 ("egr:cu(c4,ray)", "c4")]
FINDS_LATE = [("egr:omega(c6)", "c6"), ("egr:omega(c5)", "c5")]
FINDS_ABSENT = [("egr:l", "c3"), ("egr:omega(c5)", "k3"), ("egr:fbt", "c3")]

# ray_follow kinds and hosts; tail rays must avoid the host's core (part 0
# of the connected union).
RAYS = [("TwoWayRay", "egr:l", None),
        (("CycleTailRay", 4), "egr:cu(c4,ray)", 4),
        (("CycleTailRay", 5), "egr:cu(c5,ray)", 5),
        (("CompleteTailRay", 4), "egr:cu(k4,ray)", 4)]


def _finds_query(cls, host, pattern, fuel, present):
    def run():
        sol = search.find_s_finite(specs.parse_pattern(pattern),
                                   specs.parse_name(host), fuel=fuel)
        return dict(sol.inclusion_pairs())

    def check(ans):
        if not present:
            if isinstance(ans, Unknown) and isinstance(ans.exc,
                                                       FuelExhausted):
                return None
            return "absent pattern gave %r" % (ans,)
        if isinstance(ans, Unknown):
            return "present pattern gave %r" % (ans,)
        return checks.embedding_error(specs.parse_pattern(pattern), ans,
                                      specs.parse_name(host).meta["denotes"])

    return Query(cls, "find_s_finite %s in %s fuel %d" % (pattern, host, fuel),
                 library(run), check, {"search.find_s_finite": fuel})


def _ray_query(cls, kind, host, core, steps, fuel=2000, may_run_out=False):
    def run():
        return search.ray_follow(kind, specs.parse_name(host), fuel=fuel,
                                 steps=steps)

    def check(ans):
        if isinstance(ans, Unknown):
            return None if may_run_out and isinstance(
                ans.exc, PatternNeverSeen) else "gave %r" % (ans,)
        g = specs.parse_name(host).meta["denotes"]
        return checks.walk_error(ans, g, steps,
                                 checks.cycle_core(g, core) if core else ())

    sizes = None if may_run_out else {"search.ray_follow": steps}
    return Query(cls, "ray_follow %s in %s steps %d fuel %d" % (
        kind, host, steps, fuel), library(run), check, sizes)


def _components_query(cls, part, host, length):
    def run():
        sol = search.find_s_components([(specs.parse_pattern(part), OMEGA)],
                                       specs.parse_name(host))
        return sol.name.stream.prefix(length)

    def check(ans):
        g = specs.parse_name(host).meta["denotes"]
        k = len(specs.parse_pattern(part).vertices)
        degree = {}
        for v in ans:
            if v:
                i, j = checks.unpair(v - 1)
                if i != j:
                    for x in (i, j):
                        degree[x] = degree.get(x, 0) + 1
        if any(d > k - 1 for d in degree.values()):
            return "claimed copies overlap"
        return checks.egr_prefix_error(ans, g)

    return Query(cls, "find_s_components %s in %s prefix %d" % (
        part, host, length), library(run), check)


# lim2 -> embray compositions run on every binary stream with a 3-bit head,
# so the pass holds the same inputs for every seed: the composed answer is
# wrong on some of them, and a seeded draw would move that count.
LIMIT_STREAMS = [("ec:[%d,%d,%d];%d" % (a, b, c, t), t)
                 for a in (0, 1) for b in (0, 1) for c in (0, 1)
                 for t in (0, 1)]


def _compose_query(cls, stream, want, fuel):
    argv = ["compose", "--gadget", "lim2", "--oracle", "embray", "--in",
            stream, "--fuel", str(fuel)]

    def check(ans):
        rc, out = ans
        if rc == 2:
            return None  # honest unknown: the ray search ran out of fuel
        if rc != 0:
            return "exit %s" % rc
        got = json.loads(out)["answer"]
        return None if got == want else "answer %r, limit is %r" % (got, want)

    return Query(cls, " ".join(argv), lambda: run_cli(argv), check)


def build_search_staged(rng):
    queries = []
    add = queries.append
    small, mid, large = FINDS_FUELS
    # Below the p50 block (~48%): composed oracle calls, early finds, the
    # shortest rays and absent patterns at the smallest fuel.
    for i, (stream, want) in enumerate(LIMIT_STREAMS):
        add(_compose_query("compose", stream, want, DECIDE_FUELS[i % 3]))
    for i, (host, pattern) in enumerate(_fixed(FINDS_PRESENT, 8)):
        add(_finds_query("finds-early", host, pattern, (mid, large)[i % 2],
                         True))
    for host, pattern in _fixed(FINDS_ABSENT, 6):
        add(_finds_query("finds-absent-%d" % small, host, pattern, small,
                         False))
    for kind, host, core in _fixed(RAYS, 8):
        for steps in RAY_STEPS[:2]:
            add(_ray_query("ray", kind, host, core, steps))
    for i in range(8):
        add(_ray_query("ray-fbt", "FullBinaryTree", "egr:fbt", None,
                       (4, 6, 8, 8)[i % 4], fuel=200, may_run_out=True))
    # The p50 block (~23%): absent patterns at the middle fuel and the late
    # finds, all about equally slow, with as many queries above as below.
    for host, pattern in _fixed(FINDS_ABSENT, 22):
        add(_finds_query("finds-absent-%d" % mid, host, pattern, mid, False))
    for host, pattern in _fixed(FINDS_LATE, 4):
        add(_finds_query("finds-late", host, pattern, large, True))
    # Above it (~29%): the longer component solutions and tail rays, and
    # the p90 block of absent patterns at the largest fuel.
    for i, (part, host) in enumerate(_fixed(
            [("k3", "egr:omega(k3)"), ("c4", "egr:omega(c4)")], 12)):
        add(_components_query("components", part, host,
                              (100, 200, 400)[i % 3]))
    for kind, host, core in _fixed(RAYS[1:], 6):
        add(_ray_query("ray-long", kind, host, core, RAY_STEPS[2]))
    for host, pattern in _fixed(FINDS_ABSENT, 15):
        add(_finds_query("finds-absent-%d" % large, host, pattern, large,
                         False))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# convert-stages
# ---------------------------------------------------------------------------

# Dense infinite EGr names: K_omega forces many injuries, omega(C4) few.
CONVERT_INFINITE = ["egr:komega", "egr:omega(c4)"]
GR_HOSTS = ["gr:l", "gr:komega", "gr:fbt", "gr:omega(c4)"]


def _f_convert_query(cls, host, stages, swept):
    def run():
        out, trace = spaces.f_convert(specs.parse_name(host))
        if stages is not None:
            out.stream.eval(streams.pair(stages - 1, stages - 1))
        return out, trace

    def check(ans):
        out, trace = ans
        source = specs.parse_name(host)
        n = stages if stages is not None else len(source.stream.head)
        if trace.stages_run != n:
            return "ran %d stages, forced %d" % (trace.stages_run, n)
        return checks.f_convert_error(
            source, out.stream.eval, dict(trace.iota),
            [old for old, _ in trace.abandoned()], n)

    label = "f_convert %s stages %s" % (host, stages)
    return Query(cls, label, library(run), check,
                 {"spaces.f_convert": stages} if swept else None)


def _finite_schedule_host(rng, stutter, items):
    """Seeded EGr schedule of a union of a cycle, a clique and a path with
    about `items` vertices and edges."""
    k = rng.randrange(3, 6)
    rest = max(items - k * (k + 1) // 2, 8)
    c = max(3, rest // 4)
    r = max(2, (rest - 2 * c + 1) // 2)
    return _schedule_name(rng.randrange(10 ** 6), stutter,
                          "du(c%d,k%d,r%d)" % (c, k, r))


def _gr_to_egr_query(cls, host, length):
    def run():
        return spaces.gr_to_egr(specs.parse_name(host)).stream.prefix(length)

    return Query(cls, "gr_to_egr %s prefix %d" % (host, length),
                 library(run), lambda ans: checks.egr_prefix_error(
                     ans, specs.parse_name(host).meta["denotes"]))


def _ray_solution(path_vertex):
    """EGr name of the ray path_vertex(0) - path_vertex(1) - ..."""
    def emission(n):
        if n == 0:
            v = path_vertex(0)
            return checks.pair(v, v) + 1
        step, phase = divmod(n - 1, 2)
        a, b = path_vertex(step), path_vertex(step + 1)
        if phase == 0:
            return checks.pair(b, b) + 1
        return checks.pair(min(a, b), max(a, b)) + 1
    return spaces.SpaceName("EGr", streams.GeneratorBacked(emission))


def _acc_query(cls, removed, delay):
    """ACC round trip: gadget for the set N minus {removed}, the ray through
    it that a solver would return (1..removed, the detour vertex 0, then the
    fresh tail), and the decoder, which must answer a member of the set."""
    spec = "ec:[%s];0" % ",".join(["0"] * delay + [str(removed + 1)])

    def run():
        out = gadgets.acc_gadget(streams.parse_stream(spec))
        machine = out.decoder_hint
        machine.value(300)
        if removed == 0:
            ray = [t + 1 for t in range(600)]
        else:
            ray = list(range(1, removed + 1)) + [0] + list(
                range(machine.top + 1, machine.top + 600))
        return gadgets.acc_decode(_ray_solution(ray.__getitem__))

    def check(ans):
        if isinstance(ans, int) and ans >= 0 and ans != removed:
            return None
        return "decoded %r from a set without %d" % (ans, removed)

    return Query(cls, "acc %s" % spec, library(run), check)


def _enuminf_query(cls, table):
    def run():
        a = gadgets.CertifiedPiSet(lambda n, t=tuple(table): t[n % len(t)])
        return gadgets.enuminf_decode(gadgets.enuminf_encode(a)).prefix(13)

    want = [1 if table[n % len(table)] == 0 else 0 for n in range(13)]
    return Query(cls, "enuminf %s" % table, library(run),
                 lambda ans: None if ans == want else "chi %r, want %r" % (
                     ans, want))


def _convert_cli_query(cls, host, fuel):
    argv = ["convert", "--f", "--in", host]
    if fuel is not None:
        argv += ["--fuel", str(fuel)]
    return Query(cls, " ".join(argv), lambda: run_cli(argv),
                 lambda ans: checks.convert_report_error(*ans))


def build_convert_stages(rng):
    queries = []
    small, mid, large = F_CONVERT_STAGES
    # cheap (~45%): Gr -> EGr prefixes, ACC round trips, convert --f
    # reports (the infinite names expose the empty image/injuries report),
    # seeded finite schedules of about the smallest stage count (stutter in
    # [0, 0.5) keeps the schedule length within twice the item count) and
    # the smallest forced conversions
    for i, host in enumerate(_fixed(GR_HOSTS, 8)):
        queries.append(_gr_to_egr_query("gr-to-egr", host,
                                        (250, 500, 1000)[i % 3]))
    for _ in range(6):
        queries.append(_acc_query("acc", rng.randrange(8),
                                  rng.randrange(1, 9)))
    for i, host in enumerate(_fixed(CONVERT_INFINITE, 8)):
        queries.append(_convert_cli_query("convert-cli-infinite", host,
                                          (200, 500, None, 1000)[i % 4]))
    stutters = _spread(rng, 6, 0.0, 0.5)
    for i in range(6):
        host = _finite_schedule_host(rng, stutters[i], 20)
        queries.append(_convert_cli_query("convert-cli-finite", host,
                                          (200, None)[i % 2]))
    stutters = _spread(rng, 10, 0.0, 0.5)
    for i in range(10):
        host = _finite_schedule_host(rng, stutters[i], int(small * (
            1 - stutters[i])))
        queries.append(_f_convert_query("f-convert-finite", host, None,
                                        False))
    for host in _fixed(CONVERT_INFINITE, 8):
        queries.append(_f_convert_query("f-convert-%d" % small, host, small,
                                        True))
    # p50 (~33%): forced conversions at the middle stage count, all of
    # about the same cost, clear of the cheap block
    for host in _fixed(CONVERT_INFINITE, 34):
        queries.append(_f_convert_query("f-convert-%d" % mid, host, mid,
                                        True))
    # EnumInf round trips, between the p50 and p90 blocks
    for _ in range(10):
        table = [rng.randrange(3) for _ in range(rng.randrange(4, 17))]
        queries.append(_enuminf_query("enuminf", table))
    # top (~13%), holding the p90 rank
    for host in _fixed(CONVERT_INFINITE, 14):
        queries.append(_f_convert_query("f-convert-%d" % large, host, large,
                                        True))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

# Names that answer quickly at the default fuel (dense EGr names of sparse
# infinite graphs take ~0.1 s there and form the medium class instead).
QUICK_NAMES = ["egr:komega", "gr:l", "gr:komega", "gr:omega(c4)", "gr:fbt"]
# Suites that run in under 0.05 s, at a seeded suite seed.
LIGHT_SUITES = ["l1l2", "roundtrip", "tf-predicates"]
# Suites of 0.1 to 0.3 s, at suite seed 0: their cost moves by up to 2x with
# the suite seed, which would move queries_per_s from seed to seed. The
# pairing, bruteforce and enuminf suites (0.4 to 1.6 s each) are left out:
# they would take most of a pass, and too few passes would fit in a run to
# give each query a steady fastest time.
HEAVY_SUITES = ["gadget-soundness", "f-convert", "search-witnesses"]
# ACC and lim2 decoding through the CLI are wrong on some inputs, so their
# inputs are fixed rather than drawn, to keep the failure count per pass.
ACC_INPUTS = [(2, 3), (3, 1)]
LIMIT_INPUTS = LIMIT_STREAMS[:2]


def _ec(rng, values=2, tail=None):
    head = [rng.randrange(values) for _ in range(rng.randrange(1, 6))]
    tail = rng.randrange(values) if tail is None else tail
    return "ec:[%s];%d" % (",".join(map(str, head)), tail), head, tail


def _cli_query(cls, argv, check):
    def wrapped(ans):
        rc, out = ans
        if rc not in (0, 2):
            return "exit %s" % rc
        return check(rc, out)
    return Query(cls, " ".join(argv), lambda: run_cli(argv), wrapped)


def _expect(got, want, what):
    return None if got == want else "%s %r, want %r" % (what, got, want)


def _graph_json_error(obj, host, fuel):
    win = checks.window(specs.parse_name(host), fuel)
    want = {"v": sorted(win.vertices), "e": [list(e) for e in
                                             sorted(win.edges)]}
    return _expect(obj, want, "graph")


def _dot_error(text, host, fuel):
    vs, es = [], []
    for line in text.splitlines()[1:-1]:
        parts = line.strip().rstrip(";").split(" -- ")
        if len(parts) == 1:
            vs.append(int(parts[0]))
        else:
            es.append([int(parts[0]), int(parts[1])])
    return _graph_json_error({"v": vs, "e": es}, host, fuel)


def _ok_only(rc, out, check):
    if rc != 0:
        return "exit %d" % rc
    return check(json.loads(out))


def _finite_name(rng, max_stutter=0.9):
    text, _ = _random_finite_host(rng)
    return _schedule_name(rng.randrange(10 ** 6), rng.random() * max_stutter,
                          text)


def build_cli_mix(rng):
    queries = []
    fuel = 1000   # the CLI default, which every query here uses
    add = queries.append

    def name_pool(count):
        pool = QUICK_NAMES + [_finite_name(rng)]
        return _fixed(pool, count)

    # light (~87%)
    for host in name_pool(8):
        add(_cli_query("validate", ["validate", "--in", host],
                       lambda rc, out: _ok_only(rc, out, lambda r: _expect(
                           (r["verdict"], r["ok"]), ("ok", True), "verdict"))))
    for host in name_pool(8):
        add(_cli_query("truncate", ["truncate", "--in", host],
                       lambda rc, out, h=host: _ok_only(
                           rc, out, lambda r: _graph_json_error(
                               r["graph"], h, fuel))))
    for i, host in enumerate(name_pool(8)):
        kind = ("json", "dot")[i % 2]
        if kind == "json":
            check = (lambda rc, out, h=host: _graph_json_error(
                json.loads(out), h, fuel))
        else:
            check = (lambda rc, out, h=host: _dot_error(out, h, fuel))
        add(_cli_query("export", ["export", kind, "--in", host], check))
    for host in _fixed(GR_HOSTS, 6):
        add(_cli_query("convert", ["convert", "--in", host],
                       lambda rc, out, h=host: _ok_only(
                           rc, out, lambda r: checks.egr_prefix_error(
                               r["prefix"],
                               specs.parse_name(h).meta["denotes"]))))
    # f_convert runs every stage of a finite schedule eagerly, at cubic
    # cost in its length, so these schedules keep stutter below 0.5
    for host in CONVERT_INFINITE + [_finite_name(rng, 0.5),
                                    _finite_name(rng, 0.5)]:
        add(_cli_query("convert-f", ["convert", "--f", "--in", host],
                       lambda rc, out: checks.convert_report_error(rc, out)))
    for _ in range(2):
        spec, head, tail = _ec(rng)
        add(_cli_query("gadget", ["gadget", "--name", "sigma1", "--in", spec,
                                  "--pattern", "k2"],
                       lambda rc, out, w=(1 in head or tail == 1): _ok_only(
                           rc, out, lambda r: _expect(r["contains"], w,
                                                      "contains"))))
        spec, head, tail = _ec(rng)
        add(_cli_query("gadget", ["gadget", "--name", "sigma2", "--in", spec,
                                  "--pattern", "r3"],
                       lambda rc, out, w=(tail != 1): _ok_only(
                           rc, out, lambda r: _expect(r["contains"], w,
                                                      "contains"))))
        spec, head, tail = _ec(rng)
        add(_cli_query("gadget", ["gadget", "--name", "forests", "--in",
                                  spec],
                       lambda rc, out, w=(tail == 0): _ok_only(
                           rc, out, lambda r: _expect(r["predicate_t1"], w,
                                                      "predicate_t1"))))
        spec, head, tail = _ec(rng)
        add(_cli_query("gadget", ["gadget", "--name", "lim2", "--in", spec,
                                  "--decode"],
                       lambda rc, out, w=tail: _ok_only(
                           rc, out, lambda r: _expect(r["decoded"], w,
                                                      "decoded"))))
        spec, _, _ = _ec(rng)
        add(_cli_query("gadget", ["gadget", "--name", "cyclesbox", "--in",
                                  "path(%s)" % spec],
                       lambda rc, out: _ok_only(rc, out, lambda r: None if all(
                           a in r["graph"]["v"] and b in r["graph"]["v"]
                           for a, b in r["graph"]["e"]) else "edge outside")))
        table = [rng.randrange(3) for _ in range(rng.randrange(2, 8))]
        add(_cli_query("gadget", ["gadget", "--name", "enuminf", "--in",
                                  json.dumps(table), "--decode"],
                       lambda rc, out, w=[1 if table[n % len(table)] == 0
                                          else 0 for n in range(13)]:
                       _ok_only(rc, out, lambda r: _expect(
                           r["decoded"], w, "decoded"))))
        trees = rng.randrange(2, 4)
        add(_cli_query("gadget", ["gadget", "--name", "s11choice", "--in",
                                  ",".join(["path(%s)" % _ec(rng)[0]]
                                           + ["fintree:[[],[0]]"]
                                           * (trees - 1))],
                       lambda rc, out, w=trees: _ok_only(
                           rc, out, lambda r: _expect(r["trees"], w,
                                                      "trees"))))
    for removed, delay in ACC_INPUTS:
        spec = "ec:[%s];0" % ",".join(["0"] * delay + [str(removed + 1)])
        add(_cli_query("gadget", ["gadget", "--name", "acc", "--in", spec,
                                  "--decode"],
                       lambda rc, out, n=removed: _ok_only(
                           rc, out, lambda r: None if r["decoded"] != n
                           else "decoded the removed number %d" % n)))
    for _ in range(2):
        spec, head, tail = _ec(rng)
        add(_cli_query("oracle", ["oracle", "--problem", "lpo", "--in", spec],
                       lambda rc, out, w=0 if (1 in head or tail == 1) else 1:
                       _ok_only(rc, out, lambda r: _expect(r["answer"], w,
                                                           "answer"))))
        spec, head, tail = _ec(rng, values=4)
        add(_cli_query("oracle", ["oracle", "--problem", "lim", "--in", spec],
                       lambda rc, out, w=tail: _ok_only(
                           rc, out, lambda r: _expect(r["answer"], w,
                                                      "answer"))))
        spec, head, tail = _ec(rng)
        add(_cli_query("oracle", ["oracle", "--problem", "lim2", "--in",
                                  spec],
                       lambda rc, out, w=tail: _ok_only(
                           rc, out, lambda r: _expect(r["answer"], w,
                                                      "answer"))))
        spec, head, _ = _ec(rng, values=4, tail=0)
        excluded = {v - 1 for v in head if v}
        least = min(n for n in range(len(head) + 1) if n not in excluded)
        add(_cli_query("oracle", ["oracle", "--problem", "cn", "--in", spec],
                       lambda rc, out, w=least: _ok_only(
                           rc, out, lambda r: _expect(r["answer"], w,
                                                      "answer"))))
        tree, wf = rng.choice([("fulltree", 0), ("fintree:[[],[0],[1]]", 1),
                               ("path(%s)" % _ec(rng)[0], 0)])
        add(_cli_query("oracle", ["oracle", "--problem", "wf", "--in", tree],
                       lambda rc, out, w=wf: _ok_only(
                           rc, out, lambda r: _expect(r["answer"], w,
                                                      "answer"))))
        for problem, values in (("ccantor", 2), ("cbaire", 4)):
            spec, head, tail = _ec(rng, values=values)
            digits = (head + [tail] * 12)[:12]
            add(_cli_query("oracle", ["oracle", "--problem", problem, "--in",
                                      "path(%s)" % spec],
                           lambda rc, out, w=digits: _ok_only(
                               rc, out, lambda r: _expect(r["answer"], w,
                                                          "answer"))))
    for _ in range(2):
        spec, head, tail = _ec(rng)
        has_one = 1 in head or tail == 1
        add(_cli_query("compose", ["compose", "--gadget", "sigma1",
                                   "--oracle", "contains", "--in", spec],
                       lambda rc, out, w=has_one: (
                           None if rc == 2 and not w else _ok_only(
                               rc, out, lambda r: _expect(
                                   r["answer"], int(w), "answer")))))
        spec, head, tail = _ec(rng, values=3)
        add(_cli_query("compose", ["compose", "--gadget", "l1", "--oracle",
                                   "findsray", "--in", "path(%s)" % spec],
                       lambda rc, out, w=(head + [tail] * 10)[:10]: _ok_only(
                           rc, out, lambda r: _expect(r["answer"], w,
                                                      "answer"))))
    for spec, tail in LIMIT_INPUTS:
        add(_cli_query("compose", ["compose", "--gadget", "lim2", "--oracle",
                                   "embray", "--in", spec],
                       lambda rc, out, w=tail: None if rc == 2 else _ok_only(
                           rc, out, lambda r: _expect(r["answer"], w,
                                                      "answer"))))
    for _ in range(6):
        add(_cli_query("search", ["search", "--solver", "rayfollow:L",
                                  "--host", "egr:l"],
                       lambda rc, out: _ok_only(rc, out, lambda r: (
                           checks.walk_error(r["vertices"], specs.parse_name(
                               "egr:l").meta["denotes"], 10)))))
    for suite in LIGHT_SUITES:
        add(_suite_query("suite-light", suite, rng.randrange(1000)))
    # found-early decides on K_omega, all of about the same cost, and as
    # many as hold the p50 rank in their middle: the seeded queries on
    # either side of them then move the p50 rank by a query or two within
    # this flat block, not from one cost to another
    for pattern, mode in _fixed([("k3", "s"), ("k4", "s"), ("c4", "s"),
                                      ("r3", "s"), ("k3", "is"),
                                      ("k5", "s")], 25):
        add(_decide_default("decide-komega", pattern, "egr:komega", mode))
    # medium (~10%), holding the p90 rank: calls that read 1000 positions of
    # a dense omega(cN) name, all about equally slow
    for _ in range(3):
        add(_decide_default("dense-read", "c4", "egr:omega(c4)", "s"))
        add(_decide_default("dense-read", "r4", "egr:omega(c5)", "is"))
        add(_cli_query("dense-read", ["truncate", "--in", "egr:omega(c4)"],
                       lambda rc, out: _ok_only(
                           rc, out, lambda r: _graph_json_error(
                               r["graph"], "egr:omega(c4)", fuel))))
        add(_cli_query("dense-read", ["validate", "--in", "egr:omega(c4)"],
                       lambda rc, out: _ok_only(rc, out, lambda r: _expect(
                           (r["verdict"], r["ok"]), ("ok", True), "verdict"))))
    # heavy (~3%): the slower suites
    for suite in HEAVY_SUITES:
        add(_suite_query("suite", suite, 0))
    rng.shuffle(queries)
    return queries


def _decide_default(cls, pattern, host, mode):
    q = {"pattern": pattern, "host": host, "mode": mode, "fuel": 1000,
         "allowed": {"found"}}
    argv = ["decide", "--pattern", pattern, "--host", host, "--mode", mode]
    return Query(cls, " ".join(argv), lambda: run_cli(argv),
                 lambda ans: checks.decide_error(q, *ans))


def _suite_query(cls, suite, seed):
    def check(rc, out):
        report = json.loads(out)
        if rc != 0 or not report["ok"] or report["failures"]:
            return "suite failures %r" % (report["failures"],)
        return _expect(report["suite"], suite, "suite")
    return _cli_query(cls, ["suite", suite, "--seed", str(seed)], check)
