"""Complex polynomial arithmetic, companion-matrix root finding, and
spectral factorization of positive trigonometric polynomials on the unit
circle.

Polynomials are represented as 1-D complex arrays of coefficients in
ascending degree order: ``p[j]`` multiplies ``z**j``.  An empty array is the
zero polynomial.  A trigonometric polynomial ``N(z) = sum_{|j| <= k} n_j z**j``
is held the same way, as the ``2k + 1`` coefficients of ``z**k * N(z)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryRoot, NonConvergence, ResidualTooLarge, ValidationError

__all__ = [
    "poly_eval",
    "poly_derivative",
    "poly_from_roots",
    "find_roots",
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
    if not worst <= tol:
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
class Factorization:
    """Spectral factorization ``N(z) = d * q(z) * conj(q(z))`` on the circle.

    Attributes
    ----------
    q : ndarray
        Monic polynomial (ascending coefficients) whose roots are the
        outer roots.
    d : float
        Positive scale factor, read off the leading coefficients:
        ``d = |num[-1]| / prod |outer_roots|``.
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
    ``(alpha, 1/conj(alpha))``, and ``q`` collects the outer ones.  On
    the circle ``z**k * N(z) = num[-1] * prod(-1/conj(alpha)) * q(z) *
    prod(1 - conj(alpha) z)`` and ``|prod(1 - conj(alpha) z)| = |q(z)|``,
    so ``d = |num[-1]| / prod |alpha|``.

    Parameters
    ----------
    num : array_like of complex
        The ``2k + 1`` ascending coefficients of ``z**k * N(z)``, with
        ``num[2k - j] == conj(num[j])`` and ``N`` strictly positive on the
        unit circle.  Zero padding at both ends is dropped.

    Returns
    -------
    Factorization

    Raises
    ------
    ValidationError
        If ``num`` has even length, is zero, is not Hermitian-symmetric
        or falls below ``-1e-12 * max|coeff|`` on the validation grid.
    BoundaryRoot
        If a root lies within ``1e-8`` of the unit circle, or the grid
        minimum is in ``[-1e-12 * max|coeff|, 0]``.
    NonConvergence
        Propagated from root finding, or if the inner/outer root pairing
        fails.
    ResidualTooLarge
        If a coefficient of ``num`` overflows, root finding overflows,
        or the factorization identity fails on the 64-point check grid.
    """
    num = np.asarray(num, dtype=complex).ravel()
    if num.size % 2 == 0:
        raise ValidationError(f"trigonometric polynomial needs 2k + 1 coefficients, got {num.size}")
    maxc = float(np.max(np.abs(num)))
    if maxc == 0.0:
        raise ValidationError("cannot factor the zero trigonometric polynomial")
    if not np.isfinite(maxc):
        raise ResidualTooLarge(f"weight numerator coefficient overflows ({maxc:.3e})")
    if np.max(np.abs(num - np.conj(num[::-1]))) > 1e-12 * maxc:
        raise ValidationError("input trigonometric polynomial is not Hermitian-symmetric")
    while num[0] == 0 and num[-1] == 0:
        num = num[1:-1]
    k = num.size // 2

    def on_circle(z):
        return (np.conj(z) ** k * poly_eval(num, z)).real

    grid = np.exp(2j * np.pi * np.arange(4 * k + 16) / (4 * k + 16))
    low = float(np.min(on_circle(grid)))
    if -1e-12 * maxc <= low <= 0.0:
        # A nonnegative numerator that vanishes on the circle has a root there.
        raise BoundaryRoot(
            f"weight numerator minimum {low:.3e} on the circle is round-off of 0 "
            f"at coefficient scale {maxc:.3e}"
        )
    if low < 0.0:
        raise ValidationError("weight numerator is not strictly positive on the circle")

    if k == 0:
        return Factorization(
            q=np.ones(1, dtype=complex),
            d=float(num[0].real),
            outer_roots=np.zeros(0, dtype=complex),
            inner_roots=np.zeros(0, dtype=complex),
        )

    try:
        with np.errstate(over="raise", invalid="raise"):
            roots = find_roots(num)
    except FloatingPointError:
        raise ResidualTooLarge(f"root finding overflows at coefficient scale {maxc:.3e}") from None
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
    d = float(abs(num[-1]) / np.prod(np.abs(outer)))

    check = np.exp(2j * np.pi * np.arange(64) / 64)
    try:
        with np.errstate(over="raise", invalid="raise"):
            resid = float(np.max(np.abs(on_circle(check) - d * np.abs(poly_eval(q, check)) ** 2)))
    except FloatingPointError:
        resid = np.inf
    # "not <=" so that a NaN residual (d = 0 from an overflowed root
    # product, times an infinite |q|) trips too.
    if not resid <= 1e-9 * maxc:
        raise ResidualTooLarge(
            f"factorization identity residual {resid:.3e} exceeds 1e-9 * {maxc:.3e}"
        )
    return Factorization(q=q, d=d, outer_roots=outer, inner_roots=inner)
