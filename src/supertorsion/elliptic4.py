"""Elliptic curves with a marked point of order 4 (the n = 3, d = 2 case).

The family y^2 = (2B x^2 + B1 x + 1)(B1 x + 1) carries Q0 = (0, 1) of order 4
and Q2 = (-1/B1, 0) of order 2 with 2*Q0 = Q2; it is separable exactly when
B1^2 - 8B != 0.  The classical one-parameter curve
y^2 + xy - by = x^3 - bx^2 with 4-torsion point (0, 0) sits inside it via
B = -2/b, B1 = -1/b, and both reduce to the same quartic-free cubic.
``to_kubert``/``from_kubert`` apply these maps; the tests verify them
symbolically (the point map against the Kubert relation, both models
against the common cubic).
"""

from __future__ import annotations

from typing import NamedTuple

from .curves import AffinePoint, SuperellipticCurve
from .errors import (
    BadParameters,
    CharTwo,
    Degenerate,
    DegenerateB,
    ZeroParameter,
)
from .fields import Field, FieldElement
from .orders import elliptic_add, elliptic_order
from .poly import Poly


class EllipticFourFamily(NamedTuple):
    field: Field
    B: FieldElement
    B1: FieldElement
    f: Poly

    def curve(self) -> SuperellipticCurve:
        return SuperellipticCurve(self.field, 2, self.f)

    @property
    def q0(self) -> AffinePoint:
        return AffinePoint(self.field.zero, self.field.one)

    @property
    def q2(self) -> AffinePoint:
        return AffinePoint(-self.B1.inverse(), self.field.zero)


def build_family(B, B1) -> EllipticFourFamily:
    """f = (2B x^2 + B1 x + 1)(B1 x + 1).  Squarefree: the quadratic has
    discriminant B1^2 - 8B != 0 and takes the value 2B/B1^2 != 0 at the
    linear factor's root -1/B1."""
    if not isinstance(B, FieldElement) or not isinstance(B1, FieldElement):
        raise BadParameters("B and B1 must be field elements")
    field = B.field
    if field.characteristic() == 2:
        raise CharTwo("the family needs characteristic != 2")
    if B.is_zero() or B1.is_zero():
        raise ZeroParameter("B and B1 must be nonzero")
    if (B1 * B1 - 8 * B).is_zero():
        raise Degenerate("B1^2 - 8B = 0: the quadratic factor has a double root")
    quadratic = Poly(field, (field.one, B1, 2 * B))
    linear = Poly(field, (field.one, B1))
    return EllipticFourFamily(field=field, B=B, B1=B1, f=quadratic * linear)


class OrderStructureReport(NamedTuple):
    order_q0: int | None
    order_q2: int | None
    doubling_ok: bool
    tangent_ok: bool

    @property
    def passed(self) -> bool:
        return (self.order_q0 == 4 and self.order_q2 == 2
                and self.doubling_ok and self.tangent_ok)


def check_order_structure(fam: EllipticFourFamily) -> OrderStructureReport:
    """order(Q0) = 4, order(Q2) = 2, 2*Q0 = Q2, and the tangent at Q0 is the
    line y = B1*x + 1 through Q2."""
    curve, q0, q2 = fam.curve(), fam.q0, fam.q2
    order_q0 = elliptic_order(curve, q0, 8)
    order_q2 = elliptic_order(curve, q2, 8)
    doubled = elliptic_add(curve, q0, q0)
    doubling_ok = doubled == q2
    # tangent slope at Q0 is f'(0)/2 = B1, and Q2 lies on y = B1 x + 1
    slope = fam.f.derivative()(fam.field.zero) / fam.field(2)
    tangent_ok = slope == fam.B1 and (fam.B1 * q2[0] + 1) == q2[1]
    return OrderStructureReport(order_q0=order_q0, order_q2=order_q2,
                                doubling_ok=doubling_ok, tangent_ok=tangent_ok)


class KubertCurve(NamedTuple):
    """y^2 + xy - by = x^3 - bx^2 with marked point (0, 0); b^4(1+16b) != 0."""

    field: Field
    b: FieldElement


def kubert_curve(b) -> KubertCurve:
    if not isinstance(b, FieldElement):
        raise BadParameters("b must be a field element")
    if b.is_zero() or (1 + 16 * b).is_zero():
        raise DegenerateB("need b^4 (1 + 16b) != 0")
    return KubertCurve(field=b.field, b=b)


class PointMap(NamedTuple):
    """(x, y) -> (x, c0(x) + c1*y): the explicit isomorphism from the Kubert
    model onto y^2 = f_{B,B1}."""

    c0: Poly
    c1: FieldElement

    def __call__(self, x, y):
        return (x, self.c0(x) + self.c1 * y)


def from_kubert(b) -> tuple[EllipticFourFamily, PointMap]:
    """Realize the Kubert curve inside the (B, B1) family: B = -2/b,
    B1 = -1/b, point map (x, y) -> (x, (b - x - 2y)/b), which sends (0, 0)
    to Q0 = (0, 1)."""
    curve = kubert_curve(b)
    field = curve.field
    if field.characteristic() == 2:
        raise CharTwo("needs characteristic != 2")
    b = curve.b
    binv = b.inverse()
    fam = build_family(-2 * binv, -binv)
    return fam, PointMap(c0=Poly(field, (field.one, -binv)), c1=-2 * binv)


def to_kubert(fam: EllipticFourFamily) -> FieldElement:
    """b = -B/(2 B1^2): both models then reduce to the same cubic
    (``reduced_cubic_from_family``, ``reduced_cubic_from_kubert``)."""
    return -fam.B / (2 * fam.B1 * fam.B1)


def reduced_cubic_from_family(B: FieldElement, B1: FieldElement) -> Poly:
    """Scale y^2 = (ax^2+cx+1)(cx+1), a = 2B, c = B1, by x -> a c x,
    y -> 2 a c y: gives y^2 = 4x^3 + 4(a + c^2)x^2 + 8 a c^2 x + 4 a^2 c^2."""
    field = B.field
    a, c = 2 * B, B1
    return Poly(field, (4 * a * a * c * c, 8 * a * c * c, 4 * (a + c * c), field(4)))


def reduced_cubic_from_kubert(b: FieldElement, c: FieldElement) -> Poly:
    """The Kubert model first becomes y^2 = 4x^3 + (1-4b)x^2 - 2bx + b^2;
    scaling x -> 4c^2 x, y -> 8c^3 y then lands on the same target cubic."""
    e1 = kubert_model_cubic(b)
    # substitute x = X/(4c^2), multiply through by 64 c^6
    c2 = 4 * c * c
    return Poly(b.field, [e1[i] * c2 ** (3 - i) for i in range(4)])


def kubert_model_cubic(b: FieldElement) -> Poly:
    """Complete the square in y: the Kubert curve is y^2 = 4x^3 + (1-4b)x^2
    - 2bx + b^2 after y -> (2y + x - b)/2 rescaling."""
    field = b.field
    return Poly(field, (b * b, -2 * b, 1 - 4 * b, field(4)))
