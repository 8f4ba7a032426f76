"""Trees over ℕ^{<ℕ} with finite presentations.

Nodes are tuples of naturals. Every node has a numeric code:
code(()) = 0 and code(sigma + (d,)) = pair(code(sigma), d) + 1, which is a
bijection between finite strings and ℕ, so characteristic names of trees are
ordinary binary streams over string codes.
"""

from .errors import BadParam, NotATree
from .streams import CertifiedStream, pair, unpair


def string_code(sigma):
    c = 0
    for d in sigma:
        c = pair(c, d) + 1
    return c


def string_decode(n):
    out = []
    while n:
        n, d = unpair(n - 1)
        out.append(d)
    return tuple(reversed(out))


def is_prefix(sigma, tau):
    return len(sigma) <= len(tau) and tuple(tau[:len(sigma)]) == tuple(sigma)


def comparable(sigma, tau):
    return is_prefix(sigma, tau) or is_prefix(tau, sigma)


class TreeGen:
    """Base class for finitely presented, finitely branching trees (always
    prefix-closed)."""

    def contains(self, sigma):
        raise NotImplementedError

    def children(self, sigma):
        """Digits d with sigma+(d,) in the tree, as a finite list."""
        raise NotImplementedError


class FiniteTree(TreeGen):
    def __init__(self, nodes):
        self.nodes = {tuple(s) for s in nodes}
        for s in self.nodes:
            if s and s[:-1] not in self.nodes:
                raise NotATree("not prefix-closed at %r" % (s,))

    def contains(self, sigma):
        return tuple(sigma) in self.nodes

    def children(self, sigma):
        sigma = tuple(sigma)
        return sorted({s[len(sigma)] for s in self.nodes
                       if len(s) == len(sigma) + 1 and s[:-1] == sigma})

    def __eq__(self, other):
        if isinstance(other, FiniteTree):
            return self.nodes == other.nodes
        return NotImplemented

    def __repr__(self):
        return "FiniteTree(%r)" % (sorted(self.nodes),)


class FullBinary(TreeGen):
    def contains(self, sigma):
        return all(d in (0, 1) for d in sigma)

    def children(self, sigma):
        return [0, 1] if self.contains(sigma) else []


class SinglePath(TreeGen):
    """The tree of prefixes of one infinite branch, given as a stream."""

    def __init__(self, stream):
        if not isinstance(stream, CertifiedStream):
            raise BadParam("SinglePath needs a CertifiedStream")
        self.stream = stream

    def branch_prefix(self, n):
        return tuple(self.stream.prefix(n))

    def contains(self, sigma):
        return tuple(sigma) == self.branch_prefix(len(sigma))

    def children(self, sigma):
        if self.contains(sigma):
            return [self.stream.eval(len(sigma))]
        return []


class DisjointTreeUnion(TreeGen):
    """Fresh root with tree i hung under digit i."""

    def __init__(self, parts):
        self.parts = list(parts)

    def contains(self, sigma):
        sigma = tuple(sigma)
        if not sigma:
            return True
        i = sigma[0]
        return i < len(self.parts) and self.parts[i].contains(sigma[1:])

    def children(self, sigma):
        sigma = tuple(sigma)
        if not sigma:
            return [i for i, t in enumerate(self.parts) if t.contains(())]
        i = sigma[0]
        if i >= len(self.parts):
            return []
        return self.parts[i].children(sigma[1:])


def coinfinite_wrap(tree):
    """Hang the tree under digit 0 of a fresh root.

    The wrapped tree has the same infinite paths up to the leading digit and
    its complement (every string starting with a digit >= 1) is infinite, so
    non-membership enumeration never dries up.
    """
    return DisjointTreeUnion([tree])


def nonmember_enumeration(tree):
    """Generator of string codes not in the tree, in code order."""
    n = 0
    while True:
        if not tree.contains(string_decode(n)):
            yield n
        n += 1
