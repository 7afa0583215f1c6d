import time

import pytest

from supertorsion import GF, QQ, Poly, build_certificate, family_slack1
from supertorsion.errors import BadParameters
from supertorsion import serialize as ser


def test_field_round_trip():
    assert ser.field_from_json(ser.field_to_json(QQ)) == QQ
    assert ser.field_from_json(ser.field_to_json(GF(13))) == GF(13)
    with pytest.raises(BadParameters, match="unknown field kind 'R'"):
        ser.field_from_json({"kind": "R"})
    with pytest.raises(BadParameters, match="bad prime field spec"):
        ser.field_from_json({"kind": "Fp", "p": 12})
    with pytest.raises(BadParameters, match="not a field spec"):
        ser.field_from_json(["Q"])


def test_scalar_round_trip():
    x = QQ("-1/2")
    assert ser.elem_from_str(QQ, ser.elem_to_str(x)) == x
    assert ser.elem_to_str(x) == "-1/2"
    assert x.value.numerator == -1 and x.value.denominator == 2
    y = GF(13)(5)
    assert ser.elem_from_str(GF(13), ser.elem_to_str(y)) == y
    with pytest.raises(BadParameters, match="cannot parse scalar 'one half'"):
        ser.elem_from_str(QQ, "one half")


@pytest.mark.parametrize("text", ["1e100000000", "1.5", "1/0", "1/-2", "0x10", "", "1/2/3"])
def test_rational_scalars_are_num_or_num_over_den_only(text):
    start = time.perf_counter()
    with pytest.raises(BadParameters, match="cannot parse scalar"):
        ser.elem_from_str(QQ, text)
    with pytest.raises(BadParameters, match="cannot parse scalar"):
        QQ(text)
    assert time.perf_counter() - start < 0.5


def test_rational_scalars_allow_signs_and_surrounding_whitespace():
    assert ser.elem_from_str(QQ, "-3/4") == QQ((-3, 4))
    assert ser.elem_from_str(QQ, " 7 ") == QQ(7)
    assert QQ("+6/4") == QQ((3, 2)) and QQ("\t-0\n") == QQ(0)


def test_poly_round_trip():
    f = Poly(QQ, ("1", "-1/2", "3"))
    doc = ser.poly_to_json(f)
    assert doc == ["1", "-1/2", "3"]
    assert ser.poly_from_json(QQ, doc) == f
    with pytest.raises(BadParameters, match="polynomial must be a list"):
        ser.poly_from_json(QQ, {"coeffs": doc})


def test_certificate_round_trip_fieldwise():
    cert, _, _ = family_slack1(3, 2, QQ(2), QQ(3))
    doc = ser.certificate_to_json(cert)
    back = ser.certificate_from_json(doc)
    assert back == cert
    assert doc["m0"] == 4
    assert doc["f"] == ser.poly_to_json(cert.f)


def test_certificate_schema_guards():
    cert = build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1)))
    doc = ser.certificate_to_json(cert)
    bad = dict(doc)
    del bad["B"]
    with pytest.raises(BadParameters, match=r"certificate is missing keys \['B'\]"):
        ser.certificate_from_json(bad)
    # a declared f is taken as given; verify reports its disagreement
    # (tests/test_verify_declared.py)
    lying = {**doc, "f": ser.poly_to_json(cert.f + Poly.one(QQ))}
    assert ser.certificate_from_json(lying) == cert._replace(f=cert.f + Poly.one(QQ))
    degenerate = dict(doc)
    degenerate["q"] = ["0", "1"]  # q(a) = 0
    with pytest.raises(BadParameters, match=r"invalid certificate: q\(a\) = 0"):
        ser.certificate_from_json(degenerate)


def test_curve_round_trip():
    from supertorsion import SuperellipticCurve
    curve = SuperellipticCurve(GF(13), 2, Poly(GF(13), (10, 6, 5, 5)))
    doc = ser.curve_to_json(curve)
    assert ser.curve_from_json(doc) == curve
    bad = dict(doc)
    bad["n"] = 7
    with pytest.raises(BadParameters, match="declared n = 7 but deg f = 3"):
        ser.curve_from_json(bad)


def test_point_round_trip():
    from supertorsion import AffinePoint
    pt = AffinePoint(QQ("-1/2"), QQ(0))
    assert ser.point_from_json(QQ, ser.point_to_json(pt)) == pt


@pytest.mark.parametrize("key,value", [
    ("n", 3.5), ("d", 2.9), ("m0", 4.0), ("n", True), ("d", "2.0"), ("n", " 3"),
    ("n", None), ("d", [2])])
def test_certificate_integers_are_json_integers_or_decimal_strings(key, value):
    cert = build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1)))
    doc = ser.certificate_to_json(cert)
    assert ser.certificate_from_json({**doc, "n": "3", "d": "2", "m0": "4"}) == cert
    with pytest.raises(BadParameters, match=f"{key} must be an integer"):
        ser.certificate_from_json({**doc, key: value})


@pytest.mark.parametrize("p", [13.7, 13.0, True, "13.0", "0x0d", None])
def test_prime_field_p_is_an_integer(p):
    assert ser.field_from_json({"kind": "Fp", "p": "13"}) == GF(13)
    with pytest.raises(BadParameters, match="bad prime field spec"):
        ser.field_from_json({"kind": "Fp", "p": p})


def test_curve_integers_are_json_integers():
    from supertorsion import SuperellipticCurve
    doc = ser.curve_to_json(SuperellipticCurve(GF(13), 2, Poly(GF(13), (10, 6, 5, 5))))
    for key, value in (("d", 2.5), ("d", True), ("n", 3.0)):
        with pytest.raises(BadParameters, match=f"{key} must be an integer"):
            ser.curve_from_json({**doc, key: value})


def test_scalars_reject_booleans():
    assert ser.elem_from_str(GF(13), 1) == GF(13)(1)
    for field in (QQ, GF(13)):
        for value in (True, False, 1.0):
            with pytest.raises(BadParameters, match="scalar must be a string"):
                ser.elem_from_str(field, value)
    cert = build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1)))
    with pytest.raises(BadParameters, match="invalid certificate: scalar must be a string"):
        ser.certificate_from_json({**ser.certificate_to_json(cert), "a": True})
