"""The result records are immutable values: each rejects attribute
assignment, is hashable, and equals a record built from the same inputs."""

import pytest

from supertorsion import (
    GF,
    QQ,
    MumfordDivisor,
    Poly,
    SuperellipticCurve,
    build_two_packet_equal,
    check_order_structure,
    example_m0_equals_nplus1,
    family_slack1,
    from_kubert,
    reachability_status,
    torsion_params,
    two_packet,
    two_packet_admissible,
    verify_certificate,
)

from paper_checks import rr_basis, shift_points_to_0_minus1, wronskian_degree_audit

F13 = GF(13)
CURVE = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))  # (0, 1) has order 4


def _family():
    return build_two_packet_equal(two_packet(F13, 3, tuple(F13.roots_of_unity(4)[:2]), 1), F13(6))


def _slack1():
    return family_slack1(3, 2, QQ(1), QQ(1))[0]


def _shift_map():
    fam = _family()
    p0, pm1 = (next(p for p in fam.packet_points() if p.x == x) for x in (F13(0), F13(-1)))
    return shift_points_to_0_minus1(fam.curve(), p0, pm1)[1]


# one zero-argument builder per record type
# (RiemannRochBasis, ShiftMap and WronskianAudit come from tests/paper_checks.py)
BUILDERS = {
    "TorsionParams": lambda: torsion_params(3, 2),
    "ReachabilityReport": lambda: reachability_status(3, 2, 4),
    "AffinePoint": lambda: CURVE.point(0, 1),
    "TorsionCertificate": _slack1,
    "CheckResult": lambda: verify_certificate(_slack1()).checks[0],
    "VerificationReport": lambda: verify_certificate(_slack1(), run_oracle=True),
    "OrderStructureReport": lambda: check_order_structure(*family_slack1(3, 2, QQ(1), QQ(1))),
    "PointMap": lambda: from_kubert(QQ(1))[1],
    "RiemannRochBasis": lambda: rr_basis(3, 2, 8),
    "MumfordDivisor": lambda: MumfordDivisor.from_point(CURVE, CURVE.point(0, 1)),
    "AdmissibilityVerdict": lambda: two_packet_admissible(4, 3),
    "WronskianAudit": lambda: wronskian_degree_audit(
        Poly(QQ, (1, 0, 1)), Poly(QQ, (0, 1, 1)), Poly(QQ, (1, 1, 1)), 3, 2),
    "TwoPacket": lambda: two_packet(13, 3, tuple(F13.roots_of_unity(4)[:2]), 1),
    "PacketFamily": _family,
    "PacketExample": lambda: example_m0_equals_nplus1(QQ, 3, 2),
    "ShiftMap": _shift_map,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_record_is_an_immutable_hashable_value(name):
    record, again = BUILDERS[name](), BUILDERS[name]()
    assert type(record).__name__ == name
    assert record is not again and record == again and hash(record) == hash(again)
    first = (getattr(type(record), "_fields", None) or type(record).__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    assert getattr(record, first) == getattr(again, first)


def test_records_compare_by_field_values():
    assert torsion_params(3, 2) != torsion_params(5, 2)
    assert CURVE.point(0, 1) != CURVE.point(0, -1)
    report = verify_certificate(_slack1(), run_oracle=True)
    assert report != verify_certificate(_slack1())  # no oracle check, no oracle order
    assert len({report, verify_certificate(_slack1(), run_oracle=True)}) == 1


def test_record_reprs_name_their_fields():
    assert repr(torsion_params(3, 2)) == "TorsionParams(n=3, d=2, ell0=2, m0=4, slack=1)"
    assert repr(CURVE.point(0, 1)) == "(0, 1)"
    check = verify_certificate(_slack1()).checks[0]
    assert repr(check) == ("CheckResult(name='identity', passed=True, "
                           "detail='f + B^d (x-a)^m0 == v^d')")
    assert repr(verify_certificate(_slack1())).startswith(
        "VerificationReport(checks=(CheckResult(name='identity'")


def test_iterating_a_verification_report_yields_its_checks():
    report = verify_certificate(_slack1(), run_oracle=True)
    assert list(report) == list(report.checks)
    assert [c.name for c in report] == ["identity", "shape", "squarefree", "norm",
                                        "pole_order", "vanishing_at_P", "oracle_order"]
    assert all(type(c).__name__ == "CheckResult" and c.passed for c in report)
    assert report.passed and report.oracle_order == 4
