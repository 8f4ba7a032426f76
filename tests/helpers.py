"""Shared random instance factories and reference decoders for the tests.

The brute-force embedding oracle is `streamgraphs.suites._naive_embeddings`
(and its first hit, `_naive_least_embedding`): the shipped `bruteforce`
suite needs it, so the tests import it from there."""

from streamgraphs import graphs as G
from streamgraphs.streams import unpair


def reference_truncate(name, fuel):
    """The finite graph the first `fuel` positions of a Gr or EGr name
    decide, read from position 0 with one plain loop per space."""
    vertices = set()
    edges = []
    if name.space == "Gr":
        for n in range(fuel):
            if name.stream.eval(n) != 1:
                continue
            i, j = unpair(n)
            vertices.add(i)
            vertices.add(j)
            if i != j:
                edges.append((i, j))
        return G.FinGraph(vertices, edges)
    for n in range(fuel):
        v = name.stream.eval(n)
        if v == 0:
            continue
        i, j = unpair(v - 1)
        vertices.add(i)
        vertices.add(j)
        if i != j:
            edges.append((i, j))
    return G.FinGraph(vertices, edges)


def random_fin_graph(rng, min_v=1, max_v=6, density=0.4, spread=2):
    n = rng.randrange(min_v, max_v + 1)
    vs = sorted(rng.sample(range(spread * max_v), n))
    es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
          if rng.random() < density]
    return G.FinGraph(vs, es)


def random_certified_stream(rng, values=(0, 1), max_prefix=6):
    """A random EventuallyConstant or Periodic stream over the given values."""
    from streamgraphs.streams import EventuallyConstant, Periodic
    prefix = [rng.choice(values) for _ in range(rng.randrange(max_prefix))]
    if rng.random() < 0.5:
        return EventuallyConstant(prefix, rng.choice(values))
    period = [rng.choice(values) for _ in range(rng.randrange(1, 4))]
    return Periodic(prefix, period)
