"""Torsion certificates: the normal form f = -B^d (x-a)^m0 + v(x)^d that
witnesses an order-m0 point P = (a, v(a)), with v = B(x-a)^ell0 + q.

``build_certificate`` assembles v and f from (a, B, q) and refuses, by the
normal-form lemma, a non-squarefree f.  ``assemble_certificate`` checks only
the parameters, and the degrees of a declared v and f; it takes declared data
as given, so a certificate read from JSON is not rebuilt.

``verify_certificate`` rechecks everything the data claims, each fact once:
the defining polynomial identity (v^d - f is the norm of v - y, so the same
identity puts the zero divisor of v - y entirely above x = a), the shape of
v, that f defines a curve, the pole bookkeeping at the infinite point, the
local vanishing order at P, and (optionally) the independent order oracle on
that curve, over Q taken modulo a prime of good reduction whenever one
settles the answer.  A declared v or f that disagrees with (a, B, q), or an
f with a repeated root, is a failed entry of its report.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple

from . import curves, poly
from .curves import AffinePoint, SuperellipticCurve, TorsionParams, torsion_params
from .errors import BadParameters, NotSquarefree
from .fields import Field, FieldElement
from .orders import order_of_class
from .poly import Poly, _coprime, _pow_ints, _shift_ints, _trim


class TorsionCertificate(NamedTuple):
    """Witness data for an order-m0 point on y^d = f(x)."""

    field: Field
    n: int
    d: int
    a: FieldElement
    B: FieldElement
    q: Poly
    v: Poly
    f: Poly
    params: TorsionParams

    @property
    def m0(self) -> int:
        return self.params.m0

    @property
    def ell0(self) -> int:
        return self.params.ell0

    def point(self) -> AffinePoint:
        return AffinePoint(self.a, self.v(self.a))

    def curve(self) -> SuperellipticCurve:
        return SuperellipticCurve(self.field, self.d, self.f)


def build_certificate(n: int, d: int, a, B, q: Poly) -> TorsionCertificate:
    """Assemble and validate a certificate from (a, B, q)."""
    return _built(n, d, a, B, q)[0]


def _built(n: int, d: int, a, B, q: Poly):
    """``build_certificate``'s certificate and the curve y^d = f that proves it."""
    cert = assemble_certificate(n, d, a, B, q)
    curve = _normal_form_curve(cert, cert.f, cert.v.values, cert.a.value)
    if curve is None:
        raise NotSquarefree("assembled f has repeated roots")
    return cert, curve


def _normal_form_curve(cert: TorsionCertificate, f: Poly, v, a):
    """y^d = f, or None if f has a repeated root, for f = v^d - B^d (x-a)^m0 with
    v(a), B != 0, char prime to d (v, a bare values): gcd(f, (x-a)v' - ell0*v) = 1."""
    red, ell0 = f.field.reduce, cert.ell0
    W = _trim([red((k - ell0) * c - a * (k + 1) * w)
               for k, (c, w) in enumerate(zip_longest(v, v[1:], fillvalue=0))])
    if _coprime(f.field, f.values, W):
        return SuperellipticCurve._proven(f.field, cert.d, f)


def assemble_certificate(n: int, d: int, a, B, q: Poly, v: Poly | None = None,
                         f: Poly | None = None) -> TorsionCertificate:
    """The certificate with parameters (a, B, q) and the given v and f; an
    absent one is assembled from (a, B, q).  The parameters are checked, and
    a given v or f only for its degree (ell0 or n), which bounds the work of
    ``verify_certificate``; whether v and f agree with (a, B, q), and whether
    f is squarefree, is left to it."""
    params = torsion_params(n, d)
    field = q.field
    a, B = field(a), field(B)
    if params.slack < 0:
        raise BadParameters(f"slack = {params.slack} < 0: no order-m0 points exist")
    if B.is_zero():
        raise BadParameters("B must be nonzero")
    if q.degree != params.slack:
        raise BadParameters(f"deg q = {q.degree}, expected slack = {params.slack}")
    if q(a).is_zero():
        raise BadParameters("q(a) = 0 would make a a repeated root of f")
    curves._check_char(field.characteristic(), d)
    if v is not None and v.degree != params.ell0:
        raise BadParameters(f"deg v = {v.degree}, expected ell0 = {params.ell0}")
    if f is not None and f.degree != n:
        raise BadParameters(f"deg f = {f.degree}, expected n = {n}")
    if v is None or f is None:
        x_minus_a = Poly(field, (-a, field.one))
        v_abq = B * x_minus_a ** params.ell0 + q
        # deg f = n: the top term of v^d - B^d (x-a)^m0 is d B^(d-1) (x-a)^(m0-ell0) q,
        # of degree m0 - ell0 + slack = n and nonzero, since char does not divide d
        f = -(B ** d) * x_minus_a ** params.m0 + v_abq ** d if f is None else f
        v = v_abq if v is None else v
    return TorsionCertificate(field=field, n=n, d=d, a=a, B=B, q=q, v=v, f=f,
                              params=params)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerificationReport:
    """The ``CheckResult``s of one verification, in order, and the oracle's
    answer.  Immutable; iterating yields the checks."""

    __slots__ = ("checks", "oracle_order")

    def __init__(self, checks: tuple, oracle_order: int | None = None):
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "oracle_order", oracle_order)

    def __setattr__(self, name, value):
        raise AttributeError("VerificationReport is immutable")

    def __eq__(self, other):
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return (self.checks, self.oracle_order) == (other.checks, other.oracle_order)

    def __hash__(self):
        return hash((self.checks, self.oracle_order))

    def __repr__(self):
        return f"VerificationReport(checks={self.checks!r}, oracle_order={self.oracle_order!r})"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)


def verify_certificate(cert: TorsionCertificate, run_oracle: bool = False) -> VerificationReport:
    """Re-derive every claim a certificate makes; failures become report
    entries, never exceptions.  The oracle runs to 2*m0.

    Once the identity holds, the normal form proves f squarefree, over Q mod the
    first good prime q of ``poly._GOOD_FIELDS``, whose curve y^d = f mod q is
    kept (``_good_reduction``); else ``is_squarefree`` does.  The identity
    proves m0 principal over Q, and every k principal over Q stays principal
    mod q; so the oracle's one pass over F_q to m0 is the answer over Q if it
    finds m0.  Any other answer, and every certificate without that curve,
    runs the exact engine on the curve over Q.
    """
    field, d, m0, red = cert.field, cert.d, cert.m0, cert.field.reduce
    # R = v^d - f is the norm prod_{zeta in mu_d} (v - zeta*y) of v - y, so this
    # one identity also puts the whole zero divisor of v - y above x = a.  It
    # is checked as R == B^d (x-a)^m0 on numerators: with v = V/dv and
    # f = F/df, R = (V^d df - F dv^d) / (dv^d df).
    (V, dv), (F, df) = field.split(cert.v.values), field.split(cert.f.values)
    dv_d = dv ** d
    R = [red(u * df - w * dv_d) for u, w in zip_longest(_pow_ints(field, V, d), F, fillvalue=0)]
    identity_ok = _is_binomial(cert, R, dv_d * df, m0, cert.B ** d)
    checks = [CheckResult("identity", identity_ok, "f + B^d (x-a)^m0 == v^d")]
    # v - q == B (x-a)^ell0, likewise on numerators over one denominator;
    # deg q = slack < ell0 then gives deg v = ell0, lc(v) = B, and v(a) = q(a)
    ints, den_vq = field.split(cert.v.values + cert.q.values)
    nv, pt = len(cert.v.values), cert.point()
    W = [red(u - w) for u, w in zip_longest(ints[:nv], ints[nv:], fillvalue=0)]
    shape_ok = _is_binomial(cert, W, den_vq, cert.ell0, cert.B) \
        and cert.q.degree == cert.params.slack and not pt.y.is_zero()
    checks.append(CheckResult("shape", shape_ok,
                              "v = B(x-a)^ell0 + q with the required degrees"))
    char = field.characteristic()  # the lemma's hypotheses; identity_ok gives B != 0
    if identity_ok and not pt.y.is_zero() and (not char or d % char) and cert.f.degree == cert.n:
        curve = (field.kind == "Q" and _good_reduction(cert, F, df, V, dv, pt.y)) \
            or _normal_form_curve(cert, cert.f, cert.v.values, cert.a.value)
    else:
        try:
            curve = SuperellipticCurve(field, d, cert.f)
        except BadParameters:
            curve = None
    checks.append(CheckResult(
        "squarefree", curve is not None and cert.f.degree == cert.n,
        "f squarefree of degree n"))
    checks.append(CheckResult(
        "norm", identity_ok, "v^d - f == B^d (x-a)^m0 (symbolic norm of v - y)"))

    # pole orders at O: v_O(x) = -d, v_O(y) = -n, so v(x) has pole d*ell0 = m0
    # and v - y has pole order exactly max(m0, n) = m0.
    pole_v = d * cert.v.degree
    checks.append(CheckResult(
        "pole_order", pole_v == m0 and m0 > cert.n,
        f"v_O(v) = -{pole_v}, v_O(y) = -{cert.n}, so v_O(v - y) = -{m0}"))

    # local vanishing: ord_P(v - y) = m0 exactly, read off R.  At P the
    # factors v - zeta*y with zeta != 1 take the value v(a)(1 - zeta) != 0,
    # and x - a is a uniformizer, so ord_P(v - y) is the multiplicity of
    # x = a in R (up to m0 + 1, as None beyond): t^m0 in R(a + t) if identity_ok.
    vanish_ok = on_curve = False
    if pt.y.is_zero():
        detail = "v(a) = 0: not a valid certificate point"
    elif char != 0 and d % char == 0:
        detail = f"characteristic {char} divides {d}"
    else:
        (A,), s = field.split((cert.a.value,))
        G = [0] * m0 + [1] if identity_ok else _shift_ints(field, _trim(R), A, s)[0]
        on_curve = not G or not G[0]
        if not on_curve:
            detail = "v(a)^d != f(a): P is not on y^d = f"
        else:
            order = next((i for i, c in enumerate(G[:m0 + 2]) if c), None)
            vanish_ok = order == m0
            detail = f"ord_P(v - y) = {order}, expected {m0}"
    checks.append(CheckResult("vanishing_at_P", vanish_ok, detail))

    oracle_order = None
    if run_oracle:
        if curve is None or not on_curve:
            detail = "not run: f defines no curve, or P is not a point on it"
        else:
            oracle_order = _oracle_order(cert, curve, pt)
            detail = f"independent order oracle returned {oracle_order}"
        checks.append(CheckResult("oracle_order", oracle_order == m0, detail))
    return VerificationReport(checks=tuple(checks), oracle_order=oracle_order)


def _is_binomial(cert: TorsionCertificate, ints, den, k: int, c: FieldElement) -> bool:
    """ints/den == c (x-a)^k with c != 0, on ``split`` numerators (residues and
    den = 1 over F_p): with a = A/s and c = C/e, ints * e * s^k is
    den * C * (s x - A)^k term by term, O(k) against an O(k^2) Taylor shift."""
    ((A,), s), ((C,), e) = cert.field.split((cert.a.value,)), cert.field.split((c.value,))
    red, scale, ints = cert.field.reduce, e * s ** k, _trim(ints)
    return len(ints) == k + 1 and not any(
        red(u * scale - den * C * w) for u, w in zip(ints, _pow_ints(cert.field, [-A, s], k)))


def _good_reduction(cert: TorsionCertificate, F, den, V, dv, y0: FieldElement):
    """The curve y^d = f mod q, f = F/den in normal form with v = V/dv over Q, over
    the first F_q of ``poly._GOOD_FIELDS`` with q > m0 at which f, v, a and
    y0 = v(a) are q-integral, y0 is a q-unit, and f mod q has degree n (so
    B mod q != 0) and is squarefree; None if no q qualifies.  q > m0 > d
    keeps q prime to d, and to the order m0 (prime-to-q torsion injects under
    good reduction; Katz, Invent. Math. 62, 1981)."""
    a, y = cert.a.value, y0.value
    for fq in poly._GOOD_FIELDS:
        if fq.p <= cert.m0 or den * dv * a.denominator * y.denominator * y.numerator % fq.p == 0:
            continue
        f_q = Poly._from_values(fq, fq.join(F, den))
        if f_q.degree == cert.n:
            curve = _normal_form_curve(cert, f_q, fq.join(V, dv), fq(a).value)
            if curve is not None:
                return curve
    return None


def _oracle_order(cert: TorsionCertificate, curve: SuperellipticCurve, pt: AffinePoint):
    """``order_of_class`` at P to 2*m0.  ``curve`` is over the field of the
    certificate or, over Q, over an F_q of good reduction, which exists only
    when the identity holds: then R = B^d (x-a)^m0, so m0 is principal."""
    fq, m0 = curve.field, cert.m0
    if fq != cert.field:
        if order_of_class(curve, (fq(pt.x.value), fq(pt.y.value)), m0) == m0:
            return m0
        curve = SuperellipticCurve._proven(cert.field, cert.d, cert.f)  # f mod q proved it
    return order_of_class(curve, pt, 2 * m0)


def normalize_certificate(cert: TorsionCertificate) -> TorsionCertificate:
    """The certificate with the marked point moved to (0, 1): the one built
    from a = 0, B/v(a) and q(x+a)/v(a), whose f is v(a)^-d f(x+a) and whose
    v is v(a)^-1 v(x+a), so v(0) = 1."""
    return build_certificate(*_normal_parameters(cert))


def _normal_parameters(cert: TorsionCertificate):
    """(n, d, a, B, q) of ``normalize_certificate``.  Its f, a shift and a unit
    scaling of cert.f, is squarefree if cert.f is: a proof of cert.f covers it."""
    va_inv = cert.v(cert.a).inverse()
    return cert.n, cert.d, cert.field.zero, cert.B * va_inv, cert.q.shift(cert.a) * va_inv


def family_slack0(n: int, d: int, base_field: Field) -> TorsionCertificate:
    """The one-curve family for slack 0: f = -x^m0 + (x^ell0 + 1)^d with the
    order-m0 point (0, 1).  Needs char not dividing ell0 (or d)."""
    params = torsion_params(n, d)
    if params.slack != 0:
        raise BadParameters(f"slack = {params.slack} != 0")
    char = base_field.characteristic()
    if char != 0 and params.ell0 % char == 0:
        raise BadParameters(f"characteristic {char} divides ell0 = {params.ell0}")
    return build_certificate(n, d, base_field.zero, base_field.one,
                             Poly.one(base_field))


def family_slack1(n: int, d: int, B, B1):
    """The two-parameter family for slack 1: q = B1*x + 1, so
    f = -B^d x^m0 + (B x^ell0 + B1 x + 1)^d.  Returns the certificate, the
    order-d point (-1/B1, 0) and the curve y^d = f.  At (n, d) = (3, 2) this
    is the marked 4-torsion elliptic family f = (2B x^2 + B1 x + 1)(B1 x + 1),
    squarefree exactly when B1^2 - 8B != 0, that ``elliptic4`` checks."""
    params = torsion_params(n, d)
    if params.slack != 1:
        raise BadParameters(f"slack = {params.slack} != 1")
    if not isinstance(B, FieldElement) or not isinstance(B1, FieldElement):
        raise BadParameters("B and B1 must be field elements")
    field = B.field
    if B.is_zero() or B1.is_zero():
        raise BadParameters("B and B1 must be nonzero")
    cert, curve = _built(n, d, field.zero, B, Poly(field, (field.one, B1)))
    return cert, AffinePoint(-B1.inverse(), field.zero), curve
