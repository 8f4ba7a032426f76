"""Certified lazy infinite sequences over the naturals, plus the pairing code.

A stream is an infinite sequence of naturals. The certified kinds make the
tail inspectable: each has a `head`, then cycles through a nonempty
`period`, and `cert_start` (= len(head), computed without building the
head) is where the cycling starts.

  * Periodic(prefix, period)         -- cycles through ``period`` after the prefix;
  * EventuallyConstant(prefix, tail) -- the Periodic with period ``(tail,)``;
  * Indicator(ones)                  -- the EventuallyConstant that is 1 on
                                        the finite set ``ones``, else 0.

The uncertified kinds:

  * GeneratorBacked(step)            -- a total function n -> value, memoized;
  * Staged(step)                     -- a machine's output, one stage's
                                        values per call of step(), memoized.

The quantifier operations (exists_one, infinitely_often, limit, ...) and
zero_from answer exactly on the certified kinds and refuse the uncertified
ones instead of sampling; fueled approximations live in the decide module.
"""

import math

from .errors import NotConvergent, ParseError, UndecidableWithoutCertificate


# ---------------------------------------------------------------------------
# Cantor pairing
# ---------------------------------------------------------------------------

def pair(i, j):
    """Cantor pairing code (i+j)(i+j+1)/2 + j. Bijective, monotone in each arg."""
    s = i + j
    return s * (s + 1) // 2 + j


def unpair(n):
    """Inverse of pair, by closed form."""
    # Largest s with s(s+1)/2 <= n, via exact integer square root.
    s = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - s * (s + 1) // 2
    return (s - j, j)


# ---------------------------------------------------------------------------
# Certified streams
# ---------------------------------------------------------------------------

class CertifiedStream:
    """Base class; use one of the concrete kinds."""

    def eval(self, n):
        raise NotImplementedError

    def __getitem__(self, n):
        return self.eval(n)

    def values(self, lo, hi):
        """The values at positions lo <= n < hi, as a list."""
        return [self.eval(n) for n in range(lo, hi)]

    def prefix(self, n):
        """First n values as a list."""
        return self.values(0, n)


class Periodic(CertifiedStream):
    """Equals `head`, then cycles through `period`."""

    def __init__(self, prefix, period):
        if not period:
            raise ParseError("period must be nonempty")
        self.head = tuple(prefix)
        self.period = tuple(period)
        self.cert_start = len(self.head)

    def eval(self, n):
        if n < len(self.head):
            return self.head[n]
        return self.period[(n - len(self.head)) % len(self.period)]

    def __repr__(self):
        return "Periodic(%r, %r)" % (list(self.head), list(self.period))


class EventuallyConstant(Periodic):
    """The Periodic stream whose period is (tail,)."""

    def __init__(self, prefix, tail):
        self.head = tuple(prefix)
        self.tail = tail
        self.cert_start = len(self.head)

    @property
    def period(self):
        return (self.tail,)

    def eval(self, n):
        return self.head[n] if n < len(self.head) else self.tail

    def __repr__(self):
        return "EventuallyConstant(%r, %r)" % (list(self.head), self.tail)

    def __eq__(self, other):
        # Normalized comparison: same infinite sequence.
        if not isinstance(other, EventuallyConstant):
            return NotImplemented
        n = max(self.cert_start, other.cert_start)
        return self.tail == other.tail and self.prefix(n) == other.prefix(n)


class Indicator(EventuallyConstant):
    """1 on the finite set `ones` (kept, not copied), 0 elsewhere: the Gr
    name of a finite graph. The head is built only when read."""

    def __init__(self, ones):
        self.ones = ones
        self.tail = 0
        self.cert_start = max(ones) + 1 if ones else 0

    @property
    def head(self):
        return tuple(1 if c in self.ones else 0
                     for c in range(self.cert_start))

    def eval(self, n):
        return 1 if n in self.ones else 0

    def __repr__(self):
        return "Indicator(%r)" % (sorted(self.ones),)


class GeneratorBacked(CertifiedStream):
    """Stream computed on demand by a total step function, memoized.

    eval(n) calls the step function only at index n (and only once per index),
    so forcing a prefix of length n never touches positions beyond n-1.
    """

    def __init__(self, step):
        self.step = step
        self._cache = {}

    def eval(self, n):
        cache = self._cache
        return cache[n] if n in cache else cache.setdefault(n, self.step(n))

    def values(self, lo, hi):
        """eval(n) for lo <= n < hi, in order, in one pass."""
        cache, step = self._cache, self.step
        return [cache[n] if n in cache else cache.setdefault(n, step(n))
                for n in range(lo, hi)]

    def __repr__(self):
        return "GeneratorBacked(%r)" % (self.step,)


class Staged(CertifiedStream):
    """Output of a stage machine, memoized: each call step() runs the next
    stage and returns the values it emits as a list, and a stage that emits
    none emits one padding 0.

    eval(n) and values(lo, n + 1) run stages until the output covers n, so
    each stage runs once and none past the one that covers n. A stage that
    raises adds nothing, and the next read runs step() again."""

    def __init__(self, step):
        self.step = step
        self._out = []

    def eval(self, n):
        return self.values(n, n + 1)[0]

    def values(self, lo, hi):
        out = self._out
        while len(out) < hi:
            out.extend(self.step() or (0,))
        return out[lo:hi]

    def __repr__(self):
        return "Staged(%r)" % (self.step,)


# ---------------------------------------------------------------------------
# Decidable quantifiers
# ---------------------------------------------------------------------------

def _require_certificate(s):
    if not isinstance(s, Periodic):
        raise UndecidableWithoutCertificate(
            "quantifier needs an EventuallyConstant or Periodic certificate")


def zero_from(s):
    """cert_start when s is certified 0 from there on, else None."""
    if isinstance(s, Periodic) and not any(s.period):
        return s.cert_start
    return None


def exists_one(s, v):
    """True iff some position of s carries v. Decidable on certified streams."""
    _require_certificate(s)
    return v in s.head or v in s.period


def infinitely_often(s, v):
    """True iff v occurs at infinitely many positions."""
    _require_certificate(s)
    return v in s.period


def eventually_always(s, v):
    """True iff all but finitely many positions carry v."""
    _require_certificate(s)
    return all(x == v for x in s.period)


def limit(s):
    """The eventual value of a converging certified stream."""
    if not isinstance(s, Periodic):
        raise NotConvergent("no convergence certificate")
    if len(set(s.period)) > 1:
        raise NotConvergent("period oscillates: %r" % (list(s.period),))
    return s.period[0]


def first_index(s, v, start=0):
    """Least index >= start with s(index) = v, or None. Certified streams only."""
    _require_certificate(s)
    for n in range(start, max(start, s.cert_start) + len(s.period)):
        if s.eval(n) == v:
            return n
    return None


def occurrences(s, v):
    """All positions carrying v, as a finite list; requires finitely many."""
    _require_certificate(s)
    if infinitely_often(s, v):
        raise UndecidableWithoutCertificate("infinitely many occurrences")
    return [n for n in range(s.cert_start) if s.eval(n) == v]


def is_binary(s):
    """Certified check that every value is 0 or 1."""
    _require_certificate(s)
    return all(x in (0, 1) for x in s.head + s.period)


# ---------------------------------------------------------------------------
# Textual format:  ec:[1,0,1];0   per:[1];[0,1]
# ---------------------------------------------------------------------------

def _parse_nat_list(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected [..] list, got %r" % text)
    body = text[1:-1].strip()
    if not body:
        return []
    try:
        return [int(x) for x in body.split(",")]
    except ValueError as e:
        raise ParseError("bad nat list %r" % text) from e


def parse_stream(text):
    text = text.strip()
    if text.startswith("ec:"):
        rest = text[3:]
        if ";" not in rest:
            raise ParseError("ec stream needs prefix;tail")
        pfx, tail = rest.rsplit(";", 1)
        try:
            return EventuallyConstant(_parse_nat_list(pfx), int(tail))
        except ValueError as e:
            raise ParseError("bad tail in %r" % text) from e
    if text.startswith("per:"):
        rest = text[4:]
        if ";" not in rest:
            raise ParseError("per stream needs prefix;period")
        pfx, period = rest.rsplit(";", 1)
        return Periodic(_parse_nat_list(pfx), _parse_nat_list(period))
    raise ParseError("unknown stream spec %r" % text)


def format_stream(s):
    if isinstance(s, EventuallyConstant):
        return "ec:[%s];%d" % (",".join(map(str, s.head)), s.tail)
    if isinstance(s, Periodic):
        return "per:[%s];[%s]" % (",".join(map(str, s.head)),
                                  ",".join(map(str, s.period)))
    raise ParseError("generator-backed streams have no textual form")
