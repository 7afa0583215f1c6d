"""Superelliptic curves y^d = f(x) with small-order torsion points.

Exact constructions of curves carrying a rational point whose divisor class
has the least order above n (m0 = d * floor((n+d)/d)), certificate
verification, and independent order oracles (function-space linear algebra
for any d; group laws for d = 2).
"""

from .curves import (
    AffinePoint,
    ReachabilityStatus,
    SuperellipticCurve,
    TorsionParams,
    reachability_status,
    torsion_params,
)
from .certificates import (
    TorsionCertificate,
    VerificationReport,
    build_certificate,
    family_slack0,
    family_slack1,
    normalize_certificate,
    verify_certificate,
)
from .elliptic4 import check_order_structure, from_kubert, to_kubert
from .fields import GF, QQ, FieldElement, PrimeField, Rationals
from .orders import (
    MumfordDivisor,
    cantor_add,
    cantor_order,
    elliptic_add,
    elliptic_order,
    order_of_class,
)
from .poly import NEG_INF, Poly, TruncatedSeries, is_squarefree, poly_gcd, \
    poly_xgcd, roots_in_field, series_dth_root
from .twopacket import (
    AdmissibilityVerdict,
    PacketFamily,
    TwoPacket,
    bad_lambda_members,
    bad_lambda_set,
    build_H,
    build_two_packet_equal,
    build_two_packet_general,
    confirmed_bad_lambdas,
    example_m0_equals_nplus1,
    packet_polynomial,
    sweep_families,
    two_packet,
    two_packet_admissible,
)

__version__ = "0.1.0"
