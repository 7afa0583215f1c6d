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
    mu_d_orbit,
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
    slack0_reduce,
    verify_certificate,
)
from .elliptic4 import (
    EllipticFourFamily,
    KubertCurve,
    build_family,
    check_order_structure,
    from_kubert,
    kubert_curve,
    to_kubert,
)
from .fields import GF, QQ, FieldElement, PrimeField, Rationals
from .orders import (
    MumfordDivisor,
    RiemannRochBasis,
    cantor_add,
    cantor_order,
    elliptic_add,
    elliptic_order,
    gap_semigroup_count,
    genus,
    order_of_class,
    order_of_ramified,
    principality_profile,
    rr_basis,
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
    fermat_identity_check,
    packet_polynomial,
    packet_wronskian_triple,
    shift_points_to_0_minus1,
    two_packet,
    two_packet_admissible,
    wronskian3,
    wronskian_degree_audit,
)

__version__ = "0.1.0"
