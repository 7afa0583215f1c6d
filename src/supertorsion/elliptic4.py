"""Elliptic curves with a marked point of order 4 (the n = 3, d = 2 case).

At (n, d) = (3, 2) the slack-1 certificate family is the marked 4-torsion
family: ``family_slack1(3, 2, B, B1)`` builds
y^2 = -B^2 x^4 + (B x^2 + B1 x + 1)^2 = (2B x^2 + B1 x + 1)(B1 x + 1), whose
certificate point Q0 = (0, 1) has order 4 and whose order-d point
Q2 = (-1/B1, 0) is 2*Q0; f is squarefree exactly when B1^2 - 8B != 0.
``check_order_structure`` rechecks this with the chord/tangent law, an
oracle independent of the certificate's own checks.  The classical
one-parameter curve y^2 + xy - by = x^3 - bx^2 with 4-torsion point (0, 0)
sits inside the family via B = -2/b, B1 = -1/b, and both reduce to the same
quartic-free cubic.  ``to_kubert``/``from_kubert`` apply these maps; the
tests verify them symbolically (the point map against the Kubert relation,
both models against the common cubic).
"""

from __future__ import annotations

from typing import NamedTuple

from . import orders
from .certificates import TorsionCertificate, family_slack1
from .curves import AffinePoint, SuperellipticCurve, _check_char
from .errors import BadParameters
from .fields import FieldElement
from .poly import Poly


class OrderStructureReport(NamedTuple):
    order_q0: int | None
    order_q2: int | None
    doubling_ok: bool
    tangent_ok: bool

    @property
    def passed(self) -> bool:
        return (self.order_q0 == 4 and self.order_q2 == 2
                and self.doubling_ok and self.tangent_ok)


def check_order_structure(cert: TorsionCertificate, q2: AffinePoint,
                          curve: SuperellipticCurve) -> OrderStructureReport:
    """For ``family_slack1(3, 2, B, B1)``'s certificate, order-d point and
    curve y^2 = f: order(Q0) = 4, order(Q2) = 2, 2*Q0 = Q2, and the tangent
    at Q0 is the line y = B1*x + 1 through Q2."""
    if curve.f != cert.f:
        raise BadParameters("curve is not y^2 = f of the certificate")
    q0, B1 = cert.point(), cert.q[1]
    order_q0 = orders.elliptic_order(curve, q0, 8)
    order_q2 = orders.elliptic_order(curve, q2, 8)
    doubled = orders.elliptic_add(curve, q0, q0)
    doubling_ok = doubled == q2
    # tangent slope at Q0 is f'(0)/2 = B1, and Q2 lies on y = B1 x + 1
    slope = cert.f.derivative()(cert.field.zero) / cert.field(2)
    tangent_ok = slope == B1 and (B1 * q2[0] + 1) == q2[1]
    return OrderStructureReport(order_q0=order_q0, order_q2=order_q2,
                                doubling_ok=doubling_ok, tangent_ok=tangent_ok)


class PointMap(NamedTuple):
    """(x, y) -> (x, c0(x) + c1*y): the explicit isomorphism from the Kubert
    model onto y^2 = f_{B,B1}."""

    c0: Poly
    c1: FieldElement

    def __call__(self, x, y):
        return (x, self.c0(x) + self.c1 * y)


def from_kubert(b) -> tuple[TorsionCertificate, PointMap]:
    """Realize the Kubert curve, which needs b^4 (1 + 16b) != 0, inside the
    (B, B1) family: the certificate ``family_slack1(3, 2, -2/b, -1/b)`` and
    the point map (x, y) -> (x, (b - x - 2y)/b), which sends (0, 0) to
    Q0 = (0, 1)."""
    if not isinstance(b, FieldElement):
        raise BadParameters("b must be a field element")
    if b.is_zero() or (1 + 16 * b).is_zero():
        raise BadParameters("need b^4 (1 + 16b) != 0")
    field = b.field
    _check_char(field.characteristic(), 2)
    binv = b.inverse()
    cert = family_slack1(3, 2, -2 * binv, -binv)[0]
    return cert, PointMap(c0=Poly(field, (field.one, -binv)), c1=-2 * binv)


def to_kubert(cert: TorsionCertificate) -> FieldElement:
    """b = -B/(2 B1^2) for the certificate of ``family_slack1(3, 2, B, B1)``:
    both models then reduce to the same cubic, which the test suite checks."""
    B1 = cert.q[1]
    return -cert.B / (2 * B1 * B1)
