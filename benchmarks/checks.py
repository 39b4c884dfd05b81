"""Output checks for the cauchydual benchmark, made apart from the program.

Each check takes a program output (a parsed report, or a quadrature
value) and the benchmark's own copy of the input, recomputes what the
output must equal with numpy alone, or tests a property the method must
have, and raises :class:`CheckFailed` when the output disagrees.  None of
them compares against stored output.  ``test_checks.py`` feeds each one a
corrupted output to show that it rejects it.
"""

from __future__ import annotations

import numpy as np

P = np.polynomial.polynomial

# Tolerances.  The oracle bounds and the quadrature bands are the ones the
# program's own acceptance criteria state; the others sit orders of
# magnitude above the round-off seen on the benchmark's domain and far
# below the corruptions in test_checks.py.
FACTOR_RTOL = 1e-8
ROOT_RTOL = 1e-7
CHOLESKY_RTOL = 1e-9
PSD_RTOL = 1e-8
KERNEL_RTOL = 1e-7
DEFECT_MAX = 1e-8
DUAL_NORM_MAX = 1.0 + 1e-6
HYPER_MAX = 1e-6
AGLER_MIN = -1e-6
ORDER6_RTOL = 1e-2
QUAD_TOL = {2: 5e-3, 3: 1e-3}
HERMITIAN_RTOL = 1e-10


class CheckFailed(Exception):
    """An output disagreed with the benchmark's own computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _c(value):
    return complex(value["re"], value["im"])


def _cvec(values):
    return np.array([_c(v) for v in values], dtype=complex)


def _cmat(rows):
    return np.array([[_c(v) for v in row] for row in rows], dtype=complex)


def weight_numerator_poly(points, weights):
    """Ascending coefficients of ``z**k * W(z)``, where on the circle
    ``W = (1 + sum_k g_k / |z - c_k|**2) * prod_k |z - c_k|**2``.

    Uses ``z * |z - c|**2 = -c + 2 z - conj(c) z**2`` for ``|z| = |c| = 1``.
    """
    factors = [np.array([-c, 2.0, -np.conj(c)]) for c in points]
    total = np.array([1.0 + 0j])
    for f in factors:
        total = P.polymul(total, f)
    for j, g in enumerate(weights):
        part = np.array([0.0, g], dtype=complex)
        for i, f in enumerate(factors):
            if i != j:
                part = P.polymul(part, f)
        total = P.polyadd(total, part)
    return total


def weight_on_circle(points, weights, z):
    """``W(z)`` on the circle, evaluated directly from the distances."""
    dist2 = np.abs(z[:, None] - np.asarray(points)[None, :]) ** 2
    full = np.prod(dist2, axis=1)
    total = full.copy()
    for j, g in enumerate(weights):
        total += g * np.prod(np.delete(dist2, j, axis=1), axis=1)
    return total


def check_factorization(doc, points, weights):
    """``d * |q(z)|**2`` equals the weight numerator on a circle grid."""
    fact = doc["factorization"]
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    want = weight_on_circle(points, weights, z)
    got = fact["d"] * np.abs(P.polyval(z, _cvec(fact["q"]))) ** 2
    err = float(np.max(np.abs(got - want)))
    _require(err <= FACTOR_RTOL * float(np.max(want)), f"d|q|^2 differs from W by {err:.3e}")


def check_outer_roots(doc, points, weights):
    """The outer roots are the roots of ``z**k W`` outside the disk."""
    outer = _cvec(doc["factorization"]["outer_roots"])
    _require(outer.size == len(points), f"{outer.size} outer roots for {len(points)} atoms")
    _require(bool(np.all(np.abs(outer) > 1.0)), "an outer root lies in the closed disk")
    roots = np.roots(weight_numerator_poly(points, weights)[::-1])
    ref = roots[np.abs(roots) > 1.0]
    _require(ref.size == outer.size, f"numpy.roots finds {ref.size} outer roots")
    dist = np.abs(outer[:, None] - ref[None, :])
    for a, b in ((outer, dist.min(axis=1)), (ref, dist.min(axis=0))):
        bad = b > ROOT_RTOL * np.maximum(1.0, np.abs(a))
        _require(not bad.any(), f"outer roots differ from numpy.roots by {b.max():.3e}")


def check_identification(doc):
    """``A`` is Hermitian positive semidefinite and ``P* P = A``."""
    ident = doc["identification"]
    a, p = _cmat(ident["A"]), _cmat(ident["P"])
    scale = max(float(np.max(np.abs(a))), 1e-300)
    herm = float(np.max(np.abs(a - a.conj().T)))
    _require(herm <= CHOLESKY_RTOL * scale, f"A is not Hermitian ({herm:.3e})")
    low = float(np.linalg.eigvalsh(a)[0])
    _require(low >= -PSD_RTOL * max(float(np.trace(a).real), 1.0), f"A has eigenvalue {low:.3e}")
    recon = float(np.max(np.abs(p.conj().T @ p - a)))
    _require(recon <= CHOLESKY_RTOL * scale, f"|P*P - A| = {recon:.3e}")


def kernel_full(doc, z, lam):
    """The ``D(mu)`` kernel from the report's model data.

    ``O(z) conj(O(lam)) / (1 - conj(lam) z) + sum_rt f_r(z) conj(Binv_rt)
    conj(f_t(lam))`` with ``O = prod(z - c) / (sqrt(d) q)`` and
    ``f_r = prod_{j != r}(z - c_j) / (sqrt(d) O'(c_r) q)``.
    """
    pts = np.array([_c(a["point"]) for a in doc["measure"]["atoms"]])
    q = _cvec(doc["factorization"]["q"])
    sd = np.sqrt(doc["factorization"]["d"])
    o_prime = _cvec(doc["dirichlet_model"]["o_prime"])
    b_inv = _cmat(doc["dirichlet_model"]["b_inv"])

    def outer(x):
        return np.prod(x - pts) / (sd * P.polyval(x, q))

    def boundary(x):
        return np.array(
            [np.prod(np.delete(x - pts, r)) for r in range(pts.size)]
        ) / (sd * o_prime * P.polyval(x, q))

    tilde = outer(z) * np.conj(outer(lam)) / (1.0 - np.conj(lam) * z)
    return complex(tilde + boundary(z) @ np.conj(b_inv) @ np.conj(boundary(lam)))


def kernel_hb(doc, z, w):
    """The ``H(B)`` kernel from the report's ``A`` and ``q``."""
    a = _cmat(doc["identification"]["A"])
    q = _cvec(doc["factorization"]["q"])
    k = a.shape[0]
    qq = P.polyval(z, q) * np.conj(P.polyval(w, q))
    zp = z ** np.arange(1, k + 1)
    wp = np.conj(w) ** np.arange(1, k + 1)
    return complex((qq - zp @ a @ wp) / (qq * (1.0 - z * np.conj(w))))


def check_kernels(doc, probes):
    """At the probe points: ``K(z, w) = conj(K(w, z))``, ``K(z, 0) = 1``,
    and the ``D(mu)`` and ``H(B)`` kernels agree."""
    for z in probes:
        for w in probes:
            kf = kernel_full(doc, z, w)
            err = abs(kf - np.conj(kernel_full(doc, w, z)))
            _require(err <= KERNEL_RTOL * max(1.0, abs(kf)), f"kernel is not Hermitian ({err:.3e})")
    for z in probes:
        k0 = kernel_full(doc, z, 0j)
        _require(abs(k0 - 1.0) <= KERNEL_RTOL, f"K(z, 0) = {k0}")
    for z in probes:
        for w in probes:
            kf, kh = kernel_full(doc, z, w), kernel_hb(doc, z, w)
            err = abs(kf - kh)
            _require(err <= KERNEL_RTOL * max(1.0, abs(kf)), f"kernel_full - kernel_hb = {err:.3e}")


def check_verdict(doc, expected, rotated):
    """The verdict is the known one where theory fixes it, and a rotation
    of a two-atom measure leaves it unchanged."""
    verdict = doc["cdsp"]["verdict"]
    if expected is not None:
        _require(verdict == expected, f"verdict {verdict}, expected {expected}")
    if rotated is not None:
        _require(verdict == rotated, f"verdict {verdict}, rotated measure gives {rotated}")


def check_oracle(doc):
    """Every truncation is a 2-isometry with a contractive Cauchy dual and
    a hyperexpansive shift, up to the stated bounds."""
    for run in doc["oracle"]["runs"]:
        n = run["N"]
        _require(run["two_isometry_defect"] <= DEFECT_MAX, f"N={n} defect {run['two_isometry_defect']:.3e}")
        norm = run["cauchy_dual_interior_norm"]
        _require(norm <= DUAL_NORM_MAX, f"N={n} Cauchy dual norm {norm!r}")
        hyper = max(run["hyperexpansivity_max_eig"].values())
        _require(hyper <= HYPER_MAX, f"N={n} hyperexpansivity {hyper:.3e}")


def check_agler_subnormal(doc):
    """Agler orders 1-4 are nonnegative for a known-subnormal measure."""
    for run in doc["oracle"]["runs"]:
        low = min(run["agler_min_eig"][str(n)] for n in (1, 2, 3, 4))
        _require(low >= AGLER_MIN, f"N={run['N']} Agler minimum {low:.3e}")


def check_paper_order6(doc):
    """For ``1;i`` the order-6 minimum is negative and agrees with its
    N=96 value within 1% at every size."""
    runs = {run["N"]: run["agler_min_eig"]["6"] for run in doc["oracle"]["runs"]}
    ref = runs[96]
    for n, v in runs.items():
        _require(v < 0.0, f"N={n} order-6 minimum {v:.3e} is not negative")
        _require(abs(v - ref) <= ORDER6_RTOL * abs(ref), f"N={n} order-6 {v:.4e} vs N=96 {ref:.4e}")


def check_report(doc, points, weights, probes, expected, rotated, paper):
    """Every check that applies to one analysis report; ``paper`` marks
    the measure ``1;i``."""
    check_factorization(doc, points, weights)
    check_outer_roots(doc, points, weights)
    check_identification(doc)
    check_kernels(doc, probes)
    check_verdict(doc, expected, rotated)
    check_oracle(doc)
    if expected == "KnownSubnormal":
        check_agler_subnormal(doc)
    if paper:
        check_paper_order6(doc)


def check_render(text, again):
    """Two renders of one report give the same bytes."""
    _require(text == again, "two renders of one report differ")


def check_energy(got, n, m, points, weights, level):
    """``cross_energy(z**n, z**m)`` equals ``min(n, m) * sum_k g_k *
    conj(c_k)**(m - n)``, the Dirichlet part of the monomial Gram entry,
    within the level's quadrature band."""
    want = min(n, m) * np.sum(np.asarray(weights) * np.conj(points) ** (m - n))
    err = abs(got - want)
    _require(err <= QUAD_TOL[level], f"energy ({n},{m}) level {level} off by {err:.3e}")


def check_energy_hermitian(got, swapped):
    """``cross_energy(g, f) = conj(cross_energy(f, g))``."""
    err = abs(swapped - np.conj(got))
    _require(err <= HERMITIAN_RTOL * (1.0 + abs(got)), f"cross_energy not Hermitian ({err:.3e})")
