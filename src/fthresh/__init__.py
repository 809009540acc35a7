"""Frobenius invariants of local rings over prime fields.

Exact nu-functions and F-threshold brackets, associated graded rings and
initial ideals, Fedder/F-pure-threshold computations, tight-closure probes,
and an executable check suite for the supporting lemmas, all on quotient
presentations R = S/L with S a polynomial ring over GF(p).
"""

__version__ = "0.1.0"

from .frobenius import (
    NuRecord,
    ThresholdEstimate,
    guess_rational,
    nu,
    threshold_estimate,
    verify_theorem_A,
)
from .fsing import (
    FptEstimate,
    FRationalReport,
    TcVerdict,
    f_rational_probe,
    fedder_f_pure,
    fpt_estimate,
    tc_member,
)
from .graded import (
    AtLeast,
    gr_of_ideal,
    gr_presentation,
    hilbert_data,
    initial_form,
    ord_of,
    verify_gr_claim,
)
from .ideals import Ideal, ring_dimension
from .ring import (
    ParseError,
    Polynomial,
    QuotientRing,
    RingError,
    parse_poly,
)
from .verifier import (
    CheckReport,
    check_colon_lemma,
    check_lemma22,
    check_monotonicity,
    check_reduction,
    check_superficial,
    check_theorem_A_randomized,
)

__all__ = [
    "AtLeast",
    "CheckReport",
    "FptEstimate",
    "FRationalReport",
    "Ideal",
    "NuRecord",
    "ParseError",
    "Polynomial",
    "QuotientRing",
    "RingError",
    "TcVerdict",
    "ThresholdEstimate",
    "check_colon_lemma",
    "check_lemma22",
    "check_monotonicity",
    "check_reduction",
    "check_superficial",
    "check_theorem_A_randomized",
    "f_rational_probe",
    "fedder_f_pure",
    "fpt_estimate",
    "gr_of_ideal",
    "gr_presentation",
    "guess_rational",
    "hilbert_data",
    "initial_form",
    "nu",
    "ord_of",
    "parse_poly",
    "ring_dimension",
    "tc_member",
    "threshold_estimate",
    "verify_gr_claim",
    "verify_theorem_A",
]
