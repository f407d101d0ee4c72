"""Witness certificates for polynomial relations among the Euler class and
topological Pontryagin classes, with the supporting exact algebra:
Hirzebruch L-polynomials, mod-p cohomology of cyclic groups, virtual
characters, and (skew-)hermitian forms over cyclic group rings.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names by module.  A name imports its module when it is used,
# so that the certificate commands of the CLI compile only what cli imports.
_NAMES = {
    "errors": ("CharwitError", "DomainError", "InternalConsistencyError",
               "InvariantViolation", "ParseError"),
    "scalars": ("bernoulli", "from_rational", "is_prime",
                "largest_prime_factor", "odd_primes_above",
                "rational_from_string", "rational_to_string"),
    "cyclotomic": ("CyclotomicNumber", "CyclotomicReal"),
    "symfun": ("GradedPolynomial", "LTable", "ell_polynomial",
               "l_leading_coefficient", "l_table", "parse_polynomial"),
    "repring": ("VirtualRep", "restrict", "solve_chern_targets",
                "symmetrize"),
    "cyclic_coh": ("LinearRepData", "chern_character", "euler_class",
                   "l_class_linear", "pullback_l_nonlinear"),
    "detect": ("DetectionProblem", "WitnessCertificate", "WitnessPoint",
               "build_certificate", "certificate_from_json",
               "certificate_to_json", "find_rational_witness", "run_pipeline",
               "specialize", "to_l_coordinates", "verify_certificate"),
    "lforms": ("GroupRingElement", "HermitianForm", "IntegerForm", "arf",
               "coefficient_form", "congruence", "direct_sum",
               "form_from_json", "form_to_json", "format_group_ring",
               "hyperbolic", "integer_expansion", "multisignature",
               "multisignature_to_json", "parse_group_ring", "random_form",
               "signature_int", "transfer"),
}

__all__ = [name for names in _NAMES.values() for name in names]
__all__.append("__version__")


def __getattr__(name):
    for module, names in _NAMES.items():
        if name in names:
            return getattr(import_module("." + module, __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
