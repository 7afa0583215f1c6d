"""Exception types raised by the library.

Mathematical check failures are distinct from usage errors so the CLI can
map them to different exit codes.
"""


class SupertorsionError(Exception):
    """Base class for all library errors."""


class UsageError(SupertorsionError):
    """Malformed input: bad parameters, schema violations, wrong field, ..."""


class MathCheckError(SupertorsionError):
    """A mathematical validity check failed (non-squarefree f, wrong order, ...)."""


# --- field / polynomial arithmetic ---

class DivisionByZero(MathCheckError):
    pass


class FieldMismatch(UsageError):
    pass


class UnsupportedField(UsageError):
    pass


class BothZero(UsageError):
    pass


class ZeroPolynomial(UsageError):
    pass


class BadInitialValue(UsageError):
    pass


class CharDividesD(UsageError):
    pass


# --- curves and parameters ---

class BadParameters(UsageError):
    pass


class NotOnCurve(MathCheckError):
    pass


class RamifiedPoint(UsageError):
    pass


class NotRamified(UsageError):
    pass


class PrecisionExhausted(SupertorsionError):
    pass


# --- torsion certificates ---

class NegativeSlack(UsageError):
    pass


class WrongQDegree(UsageError):
    pass


class QVanishesAtA(UsageError):
    pass


class NotSquarefree(MathCheckError):
    pass


class SlackNotZero(UsageError):
    pass


class SlackNotOne(UsageError):
    pass


class CharDividesEll0(UsageError):
    pass


class NotNormalized(UsageError):
    pass


# --- elliptic four-torsion family ---

class ZeroParameter(UsageError):
    pass


class Degenerate(MathCheckError):
    pass


class CharTwo(UsageError):
    pass


class DegenerateB(UsageError):
    pass


# --- two-packet constructions ---

class CharDividesM0(UsageError):
    pass


class NoRootOfUnityStructure(UsageError):
    pass


class DegreeNotNormalized(MathCheckError):
    """The chosen lambda does not normalize the leading term, so the packet
    polynomial has degree n+1 and defines no curve in this framework."""

    def __init__(self, msg, lam=None, polynomial=None):
        super().__init__(msg)
        self.lam = lam
        self.polynomial = polynomial


class LinearlyDependent(MathCheckError):
    pass


class NonvanishingViolation(MathCheckError):
    """ell0*H - x*H' vanished identically; indicates a bug or a violated
    hypothesis, never expected on valid inputs."""


class SameAbscissa(UsageError):
    pass


# --- serialization ---

class SchemaViolation(UsageError):
    pass
