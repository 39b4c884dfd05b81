"""The subnormality verdict for the Cauchy dual, swept over geometries.

The closed-form test evaluates an overlap sum between the identification
polynomials at the outer roots of the factored weight.  A nonzero sum
with both root products off the ray [1, oo) obstructs the existence of
the positive moment sequence a subnormal contraction would need.  This
script runs the test on the reference measure, checks the verdict is a
rotation invariant, and sweeps the atom separation.
"""

import numpy as np

from cauchydual import (
    closed_form_test,
    coupling_determinant,
    make_measure,
    parse_measure,
    render_csv,
    sweep_angle,
)

# The reference counterexample: unit masses at 1 and i.
mu = parse_measure("1;i")
verdict = closed_form_test(mu)
print("verdict:", verdict.verdict)
print("overlap sum:", verdict.s_offdiag)
print("root products:", verdict.root_products)
for line in verdict.citations:
    print("grounds:", line)

# The scalar coupling invariant of the two-atom data.
print("\ncoupling determinant:", coupling_determinant(mu))

# Rotating every atom by a common phase is a unitary equivalence, so the
# verdict and the overlap sum cannot change.  The test evaluates in a
# canonical frame (first atom rotated to 1), which makes the scalar a
# true invariant rather than a frame artifact; its values are read off
# the measure's own model by the rotation identity, not a second model.
for phi in (np.pi / 7, np.pi / 3, 1.0):
    rot = np.exp(1j * phi)
    mu_rot = make_measure([rot * p for p in mu.points], list(mu.weights))
    v = closed_form_test(mu_rot)
    drift = abs(v.s_offdiag - verdict.s_offdiag)
    print(f"phi={phi:.4f}: {v.verdict}, |s drift| = {drift:.3e}")

# Known subnormal edge cases: one atom, and two antipodal atoms.
print("\nsingle atom:", closed_form_test(make_measure([1j], [3.0])).verdict)
print("antipodal:  ", closed_form_test(parse_measure("1;-1")).verdict)

# Sweep the separation angle.  The obstruction is generic: most angles
# are NotSubnormal, small separations land in the ray and come back
# Inconclusive, and 180 degrees degenerates to the known subnormal case.
rows = sweep_angle([15.0 * j for j in range(1, 13)])
print("\n" + render_csv(rows))
