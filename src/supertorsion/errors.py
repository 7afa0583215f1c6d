"""Exception types raised by the library.

Mathematical check failures are distinct from usage errors so the CLI can
map them to different exit codes; the message names the check that failed.
A class exists only where some code, output or documentation tells it apart.
"""


class SupertorsionError(Exception):
    """Base class for all library errors."""


class UsageError(SupertorsionError):
    """Malformed input: bad parameters, schema violations, wrong field, ..."""


class MathCheckError(SupertorsionError):
    """A mathematical validity check failed (non-squarefree f, wrong order, ...)."""


class BadParameters(UsageError):
    """Parameters that no construction or check accepts."""


class UnsupportedField(UsageError):
    """An operation the base field cannot do: root finding over Q, a root or
    root of unity the field lacks."""


class NotOnCurve(MathCheckError):
    pass


class NotSquarefree(MathCheckError):
    pass


class DegreeNotNormalized(MathCheckError):
    """The chosen lambda does not normalize the leading term, so the packet
    polynomial has degree n+1 and defines no curve in this framework."""

    def __init__(self, msg, lam=None, polynomial=None):
        super().__init__(msg)
        self.lam = lam
        self.polynomial = polynomial
