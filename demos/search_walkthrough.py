"""Finding structure inside lazily presented graphs.

Hosts here are infinite (or at least unbounded) graphs presented as edge
streams; the solvers only ever look at finite prefixes, spending fuel, and
return frozen witnesses you can audit.

Run with:  python3 demos/search_walkthrough.py
"""

from streamgraphs import (EventuallyConstant, find_s_finite,
                          path_choice_roundtrip, ray_follow, standard)
from streamgraphs.specs import parse_name
from streamgraphs.trees import SinglePath


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def ray_demo():
    banner("following the two-way ray")
    host = parse_name("egr:L")
    walk = ray_follow("TwoWayRay", host, fuel=200, steps=10)
    print("  visited:", walk)
    g = host.meta["denotes"]
    assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))
    print("  every consecutive pair is an edge of the host: ok")


def triangle_demo():
    banner("first triangle inside K_omega")
    host = parse_name("egr:komega")
    k3 = standard("CompleteN", 3)
    sol = find_s_finite(k3, host, fuel=400)
    print("  inclusion:", dict(sol.inclusion_pairs()))


def roundtrip_demo():
    banner("recovering a branch by searching a layered ray")
    digits = EventuallyConstant([1, 0, 1, 1], 0)
    tree = SinglePath(digits)
    found = path_choice_roundtrip(tree)
    prefix = [found.eval(i) for i in range(6)]
    print("  hidden branch starts", [digits.eval(i) for i in range(6)])
    print("  recovered branch     ", prefix)


if __name__ == "__main__":
    ray_demo()
    triangle_demo()
    roundtrip_demo()
