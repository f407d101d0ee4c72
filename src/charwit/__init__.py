"""Witness certificates for polynomial relations among the Euler class and
topological Pontryagin classes, with the supporting exact algebra:
Hirzebruch L-polynomials, mod-p cohomology of cyclic groups, virtual
characters, and (skew-)hermitian forms over cyclic group rings.
"""

from .errors import (CharwitError, DomainError, InternalConsistencyError,
                     InvariantViolation, ParseError)
from .scalars import (CyclotomicNumber, CyclotomicReal, bernoulli,
                      from_rational, is_prime, largest_prime_factor,
                      odd_primes_above, rational_from_string,
                      rational_to_string)
from .symfun import (GradedPolynomial, LTable, ell_polynomial,
                     l_leading_coefficient, l_table)
from .repring import VirtualRep, restrict, solve_chern_targets, symmetrize
from .cyclic_coh import (LinearRepData, chern_character, euler_class,
                         l_class_linear, pullback_l_nonlinear)
from .detect import (DetectionProblem, WitnessCertificate, WitnessPoint,
                     build_certificate, find_rational_witness, run_pipeline,
                     specialize, to_l_coordinates, verify_certificate)
from .cli import (certificate_from_json, certificate_to_json, form_from_json,
                  form_to_json, parse_polynomial)

__version__ = "0.1.0"

# The forms module loads on first use of one of its names, so that the
# certificate commands of the CLI never compile it.
_LFORMS = ("GroupRingElement", "HermitianForm", "IntegerForm", "arf",
           "coefficient_form", "congruence", "direct_sum", "format_group_ring",
           "hyperbolic", "integer_expansion", "multisignature",
           "parse_group_ring", "random_form", "signature_int", "transfer")


def __getattr__(name):
    if name in _LFORMS:
        from . import lforms
        return getattr(lforms, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "CharwitError", "DomainError", "InternalConsistencyError",
    "InvariantViolation", "ParseError",
    "CyclotomicNumber", "CyclotomicReal",
    "bernoulli", "from_rational", "is_prime", "largest_prime_factor",
    "odd_primes_above", "rational_from_string", "rational_to_string",
    "GradedPolynomial", "LTable", "ell_polynomial", "l_leading_coefficient",
    "l_table",
    "VirtualRep", "restrict", "solve_chern_targets", "symmetrize",
    "LinearRepData", "chern_character", "euler_class",
    "l_class_linear", "pullback_l_nonlinear",
    "DetectionProblem", "WitnessCertificate", "WitnessPoint",
    "build_certificate", "find_rational_witness", "run_pipeline",
    "specialize", "to_l_coordinates", "verify_certificate",
    "GroupRingElement", "HermitianForm", "IntegerForm", "arf",
    "coefficient_form", "congruence", "direct_sum", "format_group_ring",
    "hyperbolic", "integer_expansion", "multisignature", "parse_group_ring",
    "random_form", "signature_int", "transfer",
    "certificate_from_json", "certificate_to_json", "form_from_json",
    "form_to_json", "parse_polynomial",
    "__version__",
]
