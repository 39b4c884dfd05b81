"""Complex polynomial arithmetic, companion-matrix root finding, and
spectral factorization of positive trigonometric polynomials on the unit
circle.

Polynomials are represented as 1-D complex arrays of coefficients in
ascending degree order: ``p[j]`` multiplies ``z**j``.  An empty array is the
zero polynomial.  Laurent polynomials (finitely many positive and negative
powers) are represented by :class:`LaurentPoly`, a mapping from the integer
exponent to its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryRoot, NonConvergence, ResidualTooLarge, ValidationError

__all__ = [
    "poly_eval",
    "poly_derivative",
    "poly_from_roots",
    "find_roots",
    "LaurentPoly",
    "laurent_mul",
    "Factorization",
    "spectral_factorize",
]

_BOUNDARY_TOL = 1e-8


def poly_eval(p, z):
    """Evaluate a polynomial by Horner's scheme.

    Parameters
    ----------
    p : array_like of complex
        Coefficients in ascending degree order; empty means the zero
        polynomial.
    z : complex or ndarray of complex
        Evaluation point(s).

    Returns
    -------
    complex or ndarray
        ``sum(p[j] * z**j)``, with the same shape as ``z``.
    """
    p = np.asarray(p, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in p[::-1]:
        out = out * z + c
    if out.ndim == 0:
        return complex(out)
    return out


def poly_derivative(p):
    """Coefficient-wise derivative of an ascending-order polynomial.

    Parameters
    ----------
    p : array_like of complex
        Coefficients in ascending degree order.

    Returns
    -------
    ndarray
        Coefficients of the derivative; one entry shorter, empty for
        constants.
    """
    p = np.asarray(p, dtype=complex)
    if p.size <= 1:
        return np.zeros(0, dtype=complex)
    return p[1:] * np.arange(1, p.size)


def poly_from_roots(roots):
    """Monic polynomial with the given roots (with multiplicity).

    Parameters
    ----------
    roots : sequence of complex
        Desired roots; an empty sequence yields the constant ``1``.

    Returns
    -------
    ndarray
        Monic coefficients in ascending degree order.
    """
    out = np.ones(1, dtype=complex)
    for r in np.asarray(roots, dtype=complex).ravel():
        nxt = np.zeros(out.size + 1, dtype=complex)
        nxt[1:] = out
        nxt[:-1] -= r * out
        out = nxt
    return out


def find_roots(p, tol=1e-10):
    """All roots of a polynomial from its companion matrix eigenvalues.

    Takes the eigenvalues of the companion matrix of the monic
    normalization, polishes each by one Newton step, gates every root on
    its componentwise backward error, and sorts the result by descending
    modulus, ties broken by ascending principal argument in
    ``[0, 2*pi)``.  Two calls on identical input return bit-identical
    output.

    Parameters
    ----------
    p : array_like of complex
        Coefficients in ascending degree order, degree >= 1.
    tol : float, optional
        Backward-error acceptance: each root must satisfy
        ``|p(root)| <= tol * sum(|p[j]| * |root|**j)``.

    Returns
    -------
    ndarray
        The ``degree`` roots, sorted as described.

    Raises
    ------
    ValidationError
        If the (trimmed) degree is < 1 or the leading coefficient is
        essentially zero.
    NonConvergence
        If some root's backward error exceeds ``tol``.

    References
    ----------
    Edelman and Murakami, "Polynomial roots from companion matrix
    eigenvalues", Math. Comp. 64 (1995).
    """
    c = np.asarray(p, dtype=complex).ravel()
    while c.size and c[-1] == 0:
        c = c[:-1]
    if c.size < 2:
        raise ValidationError("find_roots requires degree >= 1")
    if abs(c[-1]) <= 1e-300:
        raise ValidationError("leading coefficient is numerically zero")
    deg = c.size - 1
    companion = np.eye(deg, k=-1, dtype=complex)
    companion[:, -1] = -c[:-1] / c[-1]
    z = np.linalg.eigvals(companion)

    dv = poly_eval(poly_derivative(c), z)
    step = np.zeros_like(z)
    np.divide(poly_eval(c, z), dv, out=step, where=dv != 0)
    z = z - step

    # |p(r)| never exceeds sum |c_j| |r|^j, so a zero scale means p(r) = 0.
    scale = poly_eval(np.abs(c), np.abs(z)).real
    backward = np.abs(poly_eval(c, z)) / np.where(scale > 0.0, scale, 1.0)
    worst = float(np.max(backward))
    if worst > tol:
        raise NonConvergence(f"root backward error {worst:.3e} exceeds {tol:.1e}")
    return _sort_roots(z)


def _sort_roots(z):
    """Descending modulus, angle-ascending within near-equal moduli.

    Moduli within 1e-9 relative count as tied; exact-tie comparison on
    floats would let an ulp of rounding flip the order.
    """
    z = z[np.argsort(-np.abs(z), kind="stable")]
    out = np.empty_like(z)
    i = 0
    while i < z.size:
        j = i + 1
        while j < z.size and abs(z[j]) >= abs(z[i]) - 1e-9 * (1.0 + abs(z[i])):
            j += 1
        group = z[i:j]
        out[i:j] = group[np.argsort(np.angle(group) % (2.0 * np.pi), kind="stable")]
        i = j
    return out


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial ``sum_j coeffs[j] * z**j`` on the unit circle.

    Parameters
    ----------
    coeffs : dict of int to complex
        Mapping from exponent to coefficient.  Exponents may be negative.
    """

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {int(j): complex(v) for j, v in self.coeffs.items() if v != 0}
        object.__setattr__(self, "coeffs", clean)

    @property
    def bandwidth(self):
        """Largest absolute exponent with a nonzero coefficient."""
        if not self.coeffs:
            return 0
        return max(abs(j) for j in self.coeffs)

    def hermitian_defect(self):
        """Max deviation from ``coeffs[-j] == conj(coeffs[j])``."""
        worst = 0.0
        for j, v in self.coeffs.items():
            worst = max(worst, abs(self.coeffs.get(-j, 0j) - np.conj(v)))
        return worst

    def eval(self, z):
        """Evaluate at nonzero point(s) ``z``."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for j, v in self.coeffs.items():
            out = out + v * z ** j
        if out.ndim == 0:
            return complex(out)
        return out


def laurent_mul(a, b):
    """Product of two Laurent polynomials.

    Parameters
    ----------
    a, b : LaurentPoly

    Returns
    -------
    LaurentPoly
    """
    out = {}
    for i, u in a.coeffs.items():
        for j, v in b.coeffs.items():
            out[i + j] = out.get(i + j, 0j) + u * v
    return LaurentPoly(out)


@dataclass(frozen=True)
class Factorization:
    """Spectral factorization ``N(z) = d * q(z) * conj(q(z))`` on the circle.

    Attributes
    ----------
    q : ndarray
        Monic polynomial (ascending coefficients) whose roots are the
        outer roots.
    d : float
        Positive scale factor.
    outer_roots : ndarray
        Roots of modulus > 1, in the deterministic root order.
    inner_roots : ndarray
        Roots of modulus < 1; the multiset equals ``1/conj(outer_roots)``.
    """

    q: np.ndarray
    d: float
    outer_roots: np.ndarray
    inner_roots: np.ndarray


def spectral_factorize(num):
    """Factor a positive trigonometric polynomial over the unit circle.

    Writes ``N(z) = d * |q(z)|**2`` with ``q`` monic and root-free in the
    closed unit disk.  The roots of ``z**k * N(z)`` come in pairs
    ``(alpha, 1/conj(alpha))``; ``q`` collects the outer ones and ``d`` is
    fixed by point matching, preferring the point ``z = 1`` when ``N`` is
    not small there.

    Parameters
    ----------
    num : LaurentPoly
        Hermitian-symmetric Laurent polynomial, strictly positive on the
        unit circle.

    Returns
    -------
    Factorization

    Raises
    ------
    ValidationError
        If ``num`` is not Hermitian-symmetric or falls below
        ``-1e-12 * max|coeff|`` on the validation grid.
    BoundaryRoot
        If a root lies within ``1e-8`` of the unit circle, or the grid
        minimum is in ``[-1e-12 * max|coeff|, 0]``.
    NonConvergence
        Propagated from root finding, or if the inner/outer root pairing
        fails.
    ResidualTooLarge
        If a coefficient of ``num`` or ``|q|**2`` at the matching point
        overflows, or the factorization identity fails on the 64-point
        check grid.
    """
    if not num.coeffs:
        raise ValidationError("cannot factor the zero Laurent polynomial")
    k = num.bandwidth
    maxc = max(abs(v) for v in num.coeffs.values())
    if not np.isfinite(maxc):
        raise ResidualTooLarge(f"weight numerator coefficient overflows ({maxc:.3e})")
    if num.hermitian_defect() > 1e-12 * maxc:
        raise ValidationError("input Laurent polynomial is not Hermitian-symmetric")

    grid = np.exp(2j * np.pi * np.arange(4 * k + 16) / (4 * k + 16))
    low = float(np.min(num.eval(grid).real))
    if -1e-12 * maxc <= low <= 0.0:
        # A nonnegative numerator that vanishes on the circle has a root there.
        raise BoundaryRoot(
            f"weight numerator minimum {low:.3e} on the circle is round-off of 0 "
            f"at coefficient scale {maxc:.3e}"
        )
    if low < 0.0:
        raise ValidationError("weight numerator is not strictly positive on the circle")

    if k == 0:
        d = float(num.coeffs.get(0, 0j).real)
        return Factorization(
            q=np.ones(1, dtype=complex),
            d=d,
            outer_roots=np.zeros(0, dtype=complex),
            inner_roots=np.zeros(0, dtype=complex),
        )

    coeffs = np.zeros(2 * k + 1, dtype=complex)
    for j, v in num.coeffs.items():
        coeffs[j + k] = v
    roots = find_roots(coeffs)

    dist = np.abs(np.abs(roots) - 1.0)
    if np.min(dist) <= _BOUNDARY_TOL:
        raise BoundaryRoot(
            f"factorization root at distance {np.min(dist):.2e} from the unit circle"
        )
    outer = roots[np.abs(roots) > 1.0]
    inner = roots[np.abs(roots) < 1.0]
    if outer.size != k or inner.size != k:
        raise NonConvergence("inner/outer root split does not pair up")
    # Nearest neighbours both ways: sorting would interleave roots whose
    # real parts are round-off of either sign.
    gap = np.abs(inner[:, None] - 1.0 / np.conj(outer)[None, :])
    pairing = max(float(np.max(np.min(gap, axis=0))), float(np.max(np.min(gap, axis=1))))
    if pairing > 1e-9:
        raise NonConvergence(
            f"root pairing alpha -> 1/conj(alpha) failed: {pairing:.3e} exceeds 1e-9"
        )

    q = poly_from_roots(outer)

    match_grid = np.exp(2j * np.pi * np.arange(24) / 24)
    nvals = num.eval(match_grid).real
    n_at_one = float(num.eval(1.0 + 0j).real)
    if n_at_one >= 0.1 * float(np.max(np.abs(nvals))):
        x = 1.0 + 0j
        nx = n_at_one
    else:
        idx = int(np.argmax(np.abs(nvals)))
        x = match_grid[idx]
        nx = float(nvals[idx])
    qx = poly_eval(q, x)
    try:
        d = nx / float(abs(qx) ** 2)
    except OverflowError:
        raise ResidualTooLarge(
            f"point matching overflows: |q| = {abs(qx):.3e} at the matching point"
        ) from None
    if d <= 0.0:
        raise ResidualTooLarge("point matching produced a nonpositive scale d")

    check = np.exp(2j * np.pi * np.arange(64) / 64)
    resid = np.max(np.abs(num.eval(check) - d * np.abs(poly_eval(q, check)) ** 2))
    if resid > 1e-9 * maxc:
        raise ResidualTooLarge(
            f"factorization identity residual {resid:.3e} exceeds 1e-9 * {maxc:.3e}"
        )
    return Factorization(q=q, d=float(d), outer_roots=outer, inner_roots=inner)
