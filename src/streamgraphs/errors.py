"""Shared exception types.

Errors are split roughly by contract: certificate problems (we were asked a
question that the given finite certificate cannot answer), parameter problems,
and promise problems (the caller asserted something about an infinite object
that the algorithm eventually notices is false, usually via fuel).
"""


class StreamGraphsError(Exception):
    pass


# -- certificate problems ---------------------------------------------------

class UndecidableWithoutCertificate(StreamGraphsError):
    """A quantifier over an infinite stream was asked without a usable certificate."""


class NotConvergent(StreamGraphsError):
    pass


class DegreeUnknown(StreamGraphsError):
    pass


class PredicateUnsupported(StreamGraphsError):
    pass


class NoIllFoundedCertificate(StreamGraphsError):
    pass


# -- parameter problems -----------------------------------------------------

class BadParam(StreamGraphsError):
    pass


class NotATree(StreamGraphsError):
    pass


class MalformedInstance(StreamGraphsError):
    pass


class NotInB(StreamGraphsError):
    pass


class ParseError(StreamGraphsError):
    pass


class UnknownSuite(StreamGraphsError):
    pass


# -- promise / fuel problems ------------------------------------------------

class FuelExhausted(StreamGraphsError):
    """A fueled search ran out of budget before reaching a verdict."""

    def __init__(self, msg="fuel exhausted", spent=None):
        super().__init__(msg)
        self.spent = spent


class PromiseViolation(StreamGraphsError):
    pass


class PatternNeverSeen(StreamGraphsError):
    pass


class NoInfiniteDegreeVertex(StreamGraphsError):
    pass


class HeightExceeded(StreamGraphsError):
    pass


class OracleRefused(StreamGraphsError):
    pass


class HarnessContractViolation(StreamGraphsError):
    pass
