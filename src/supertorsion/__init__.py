"""Superelliptic curves y^d = f(x) with small-order torsion points.

Exact constructions of curves carrying a rational point whose divisor class
has the least order above n (m0 = d * floor((n+d)/d)), certificate
verification, and independent order oracles (function-space linear algebra
for any d; group laws for d = 2).

The names below and the submodules resolve on first use (PEP 562): each
imports only its defining module, so ``import supertorsion`` and the CLI
load no mathematics they do not run.
"""

import importlib

_EXPORTS = {
    "curves": "AffinePoint ReachabilityStatus SuperellipticCurve TorsionParams "
              "reachability_status torsion_params",
    "certificates": "TorsionCertificate VerificationReport build_certificate family_slack0 "
                    "family_slack1 normalize_certificate verify_certificate",
    "elliptic4": "check_order_structure from_kubert to_kubert",
    "fields": "GF QQ FieldElement PrimeField Rationals",
    "orders": "MumfordDivisor cantor_add cantor_order elliptic_add elliptic_order "
              "order_of_class",
    "poly": "NEG_INF Poly TruncatedSeries is_squarefree poly_gcd poly_xgcd roots_in_field "
            "series_dth_root",
    "twopacket": "AdmissibilityVerdict PacketFamily TwoPacket bad_lambda_members bad_lambda_set "
                 "build_H build_two_packet_equal build_two_packet_general confirmed_bad_lambdas "
                 "example_m0_equals_nplus1 packet_polynomial sweep_families two_packet "
                 "two_packet_admissible",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "serialize"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: the name always reads the defining module's binding
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
