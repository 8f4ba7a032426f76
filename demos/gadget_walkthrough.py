"""A guided tour of the reduction gadgets.

Each gadget turns a hard question about a certified stream into an innocent
question about a graph name, and ships a decoder that turns the graph answer
back into the stream answer.  This script runs three of them end to end and
prints both directions so you can see the information survive the trip.

Run with:  python3 demos/gadget_walkthrough.py
"""

from streamgraphs import (EventuallyConstant, enuminf_decode, enuminf_encode,
                          embR_decode, exists_one, limit, lim2_to_embR,
                          semidecide_s, sigma1_gadget, standard)
from streamgraphs.gadgets import CertifiedPiSet, embR_canonical_solution


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def sigma1_demo():
    banner("sigma1: 'does the stream ever show a 1?' as graph containment")
    k2 = standard("CompleteN", 2)
    for bits, tail in (([0, 0, 0], 0), ([0, 0, 1], 0)):
        p = EventuallyConstant(bits, tail)
        name = sigma1_gadget(p, k2)
        verdict = semidecide_s(k2, name, fuel=200)
        print("  stream %s...%d  exists_one=%d  K2-in-gadget=%s"
              % (bits, tail, exists_one(p, 1), verdict.kind))


def lim2_demo():
    banner("lim2: 'what does this 0/1 stream converge to?' as ray following")
    for bits, tail in (([1, 0, 1], 0), ([0, 1, 0], 1)):
        q = EventuallyConstant(bits, tail)
        lim2_to_embR(q)  # the name exists; the canonical ray solves it
        walk = embR_canonical_solution(q)
        start = [walk.eval(0), walk.eval(1)]
        print("  stream %s...%d  limit=%d  ray starts %s  decoded=%d"
              % (bits, tail, limit(q), start, embR_decode(walk)))


def enuminf_demo():
    banner("enuminf: recovering a characteristic function from an enumeration")
    for lam, label in ((lambda n: n % 2, "evens"), (lambda n: 0, "all of N")):
        a = CertifiedPiSet(lam)
        chi = enuminf_decode(enuminf_encode(a))
        got = [chi.eval(i) for i in range(8)]
        want = [a.chi(i) for i in range(8)]
        print("  %-8s  chi=%s  recovered=%s  match=%s"
              % (label, want, got, got == want))


if __name__ == "__main__":
    sigma1_demo()
    lim2_demo()
    enuminf_demo()
