"""
Witness certificates for Euler/Pontryagin independence
======================================================

End to end: pick a polynomial relation that should fail, find a rational
witness, and emit per-prime certificates that an auditor can re-check.
"""

from charwit import (DetectionProblem, GradedPolynomial, build_certificate,
                     certificate_from_json, certificate_to_json,
                     find_rational_witness, run_pipeline, specialize,
                     to_l_coordinates, verify_certificate)


def evar(n):
    return GradedPolynomial.variable("e", n)


def pvar(i):
    return GradedPolynomial.variable("p%d" % i, 2 * i)


# ---------------------------------------------------------------------------
# the flagship question: is e^2 - p_2 zero for oriented 4-dimensional
# euclidean bundles?  A nonzero certificate at any one prime says no.

problem = DetectionProblem(evar(2) ** 2 - pvar(2), 2)
print("problem:", problem)
print("coordinates:", problem.coordinate_names())
# the pipeline evaluates Xi numerically, at p_i = P_i(x) from
# l_table(i).p_values(x); the symbolic forms below are for reading only
l_form = to_l_coordinates(problem.polynomial)
print("in L-coordinates:", l_form)
print("specialized:", specialize(l_form, problem.n))

witness = find_rational_witness(problem)
print("witness:", witness)

cert = build_certificate(problem, witness, 53)
print(cert.summary())
ok, report = verify_certificate(cert)
print("verification:", report)

# the JSON form round-trips byte for byte
text = certificate_to_json(cert)
assert certificate_to_json(certificate_from_json(text)) == text
print("serialized certificate is %d bytes, reproducible" % len(text))

# tampering is caught, with the first failing check named
tampered = certificate_from_json(text.replace('"euler": 1', '"euler": 2'))
ok, report = verify_certificate(tampered)
print("tampered certificate: ok=%s, report=%r" % (ok, report))

# ---------------------------------------------------------------------------
# the same machinery refutes p_n = e^2 in dimension 2n = 6

for cert in run_pipeline(pvar(3) - evar(3) ** 2, 3, 2):
    print("p3 - e^2:", cert.summary())

# and a run over many primes for the flagship
for cert in run_pipeline(evar(2) ** 2 - pvar(2), 2, 5):
    print("e^2 - p2:", cert.summary())
