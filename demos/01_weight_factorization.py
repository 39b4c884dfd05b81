"""From a finitely supported measure to a factored boundary weight.

A measure is a finite list of unit-circle atoms with positive masses.
Its harmonically weighted Dirichlet space penalizes derivative energy
against the Poisson integral of the measure; on the circle that weight
is controlled by a nonnegative trigonometric polynomial N.  This script
builds N for a few measures and factors it as N = d |q|^2 with q zero
free in the closed disk.
"""

import numpy as np

from cauchydual import (
    find_roots,
    format_measure,
    parse_measure,
    poly_eval,
    spectral_factorize,
    weight_numerator,
)

# Parse the reference two-atom measure: unit masses at 1 and i.
mu = parse_measure("1;i")
print("measure:", format_measure(mu))
print("atoms:", [(p, w) for p, w in mu.atoms])

# The weight numerator N is a trigonometric polynomial, real and
# nonnegative on the circle.  It is held as the ascending coefficients of
# z^k N(z), a polynomial of degree 2k; for this measure the table is tiny.
num = weight_numerator(mu)
k = num.size // 2
print("\nweight numerator: ascending coefficients of z^%d N(z):" % k)
for power, value in enumerate(num):
    print(f"  z^{power}: {value}")


def n_on_circle(z):
    """N(z) = conj(z)^k * (z^k N(z)) on the unit circle."""
    return (np.conj(z) ** k * poly_eval(num, z)).real


grid = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 9, endpoint=False))
print("min of N on a circle grid:", float(np.min(n_on_circle(grid))))

# Spectral factorization: N = d |q|^2 on the circle, with q monic and all
# roots outside the closed disk.  Roots pair up across the circle as
# alpha <-> 1/conj(alpha), and comparing leading coefficients gives
# d = |num[-1]| / prod |alpha|.
fact = spectral_factorize(num)
print("\nouter roots:", fact.outer_roots)
print("inner roots:", fact.inner_roots)
print("reflection check:", np.allclose(1.0 / np.conj(fact.outer_roots), fact.inner_roots[::-1], atol=1e-9) or np.allclose(1.0 / np.conj(fact.outer_roots), fact.inner_roots, atol=1e-9))
print("q coefficients (ascending):", fact.q)
print("d =", fact.d, "= |num[-1]| / prod |alpha| =", abs(num[-1]) / np.prod(np.abs(fact.outer_roots)))

# Verify the factorization identity pointwise on the circle.
qvals = poly_eval(fact.q, grid)
err = float(np.max(np.abs(n_on_circle(grid) - fact.d * np.abs(qvals) ** 2)))
print("max |N - d |q|^2| on grid:", err)

# The same machinery on a single atom produces golden-ratio constants:
# the outer root is phi^2 = 2.618..., and d = 1/phi^2.
mu1 = parse_measure("1")
fact1 = spectral_factorize(weight_numerator(mu1))
print("\nsingle atom outer root:", fact1.outer_roots[0].real)
print("single atom d:", fact1.d, "(equals 1/phi^2 =", float(1.0 / ((1 + np.sqrt(5)) / 2) ** 2), ")")

# The root finder itself is deterministic: descending modulus, ties by
# ascending argument.  The quartic i z^2 N(z) of the two-atom measure:
quartic = 1j * num
print("\nquartic roots in frozen order:")
for root in find_roots(quartic, tol=1e-10):
    print(f"  {root:.15g}")
