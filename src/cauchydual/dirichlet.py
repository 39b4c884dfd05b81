"""Reproducing kernel of the harmonically weighted Dirichlet space D(mu).

For a finitely supported measure mu, the space D(mu) splits as the range
of an outer multiplier on H^2 plus a finite-dimensional complement
spanned by boundary functions attached to the atoms.  This module builds
the outer function from the spectral factorization, the Gram matrix of
the boundary functions, and the three kernels: the multiplier-range part,
the complement part, and their sum, which reproduces point evaluation.

The norm convention is ``||f||^2 = ||f||_{H^2}^2 + Dirichlet energy``,
which normalizes the full kernel to ``K(z, 0) = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpoly import Factorization, poly_derivative, poly_eval, poly_from_roots, spectral_factorize
from .errors import ResidualTooLarge, SingularGram
from .measure import MeasureSpec, weight_numerator

__all__ = [
    "DirichletModel",
    "build_model",
    "o_mu_eval",
    "boundary_function_eval",
    "kernel_tilde",
    "kernel_hat",
    "kernel_full",
]


@dataclass(frozen=True)
class DirichletModel:
    """Everything needed to evaluate the D(mu) reproducing kernel.

    Attributes
    ----------
    mu : MeasureSpec
        The underlying measure.
    fact : Factorization
        Spectral factorization of the boundary weight numerator.
    atom_poly : ndarray
        Monic polynomial with the support points as roots (ascending
        coefficients); the outer function is ``atom_poly / (sqrt(d) * q)``.
    cofactors : ndarray
        ``k x k``; row ``r`` holds the ascending coefficients of
        ``N_r = prod_{j != r} (z - zeta_j)``, the monic polynomial over
        the other atoms.  Built once here; the Gram matrix, the boundary
        functions and :func:`~cauchydual.debranges.compute_A` read it.
    o_prime : ndarray
        Derivative of the outer function at each support point, in
        canonical atom order.
    gram_f : ndarray
        Hermitian k x k Gram matrix of the boundary functions ``f_r``.
    b_inv : ndarray
        Inverse of ``gram_f``.
    """

    mu: MeasureSpec
    fact: Factorization
    atom_poly: np.ndarray
    cofactors: np.ndarray
    o_prime: np.ndarray
    gram_f: np.ndarray
    b_inv: np.ndarray


def build_model(mu):
    """Construct the :class:`DirichletModel` for a measure.

    The outer function is ``O(z) = prod_k (z - zeta_k) / (sqrt(d) q(z))``.
    The boundary function attached to atom ``r`` is
    ``f_r(z) = O(z) / (O'(zeta_r) (z - zeta_r))``, normalized so
    ``f_r(zeta_r) = 1``.  Gram entries follow the closed forms

    - diagonal: ``<f_r, f_r> = gamma_r * zeta_r * f_r'(zeta_r)``,
    - off-diagonal: ``<f_r, f_t> = 1 / (O'(zeta_r) * conj(O'(zeta_t)) *
      (1 - zeta_r * conj(zeta_t)))``,

    both validated against an independent series expansion in the test
    suite.

    Parameters
    ----------
    mu : MeasureSpec

    Returns
    -------
    DirichletModel

    Raises
    ------
    BoundaryRoot
        Propagated from the factorization for degenerate weights.
    SingularGram
        If the boundary Gram matrix is not numerically positive definite
        or its inverse fails the residual check.
    ResidualTooLarge
        If the outer normalization ``O(0) > 0`` fails numerically.
    """
    pts = mu.points
    wts = mu.weights
    k = mu.k
    fact = spectral_factorize(weight_numerator(mu))
    sd = np.sqrt(fact.d)
    p = poly_from_roots(pts)
    dp = poly_derivative(p)
    cofactors = np.array([poly_from_roots(np.delete(pts, r)) for r in range(k)])
    dq = poly_derivative(fact.q)

    o_prime = np.array(
        [poly_eval(dp, z) / (sd * poly_eval(fact.q, z)) for z in pts], dtype=complex
    )

    o0 = poly_eval(p, 0.0) / (sd * poly_eval(fact.q, 0.0))
    if not (o0.real > 0.0 and abs(o0.imag) <= 1e-10 * max(1.0, abs(o0))):
        raise ResidualTooLarge(f"outer function value at 0 is not positive real: {o0}")

    gram = np.zeros((k, k), dtype=complex)
    for r in range(k):
        nr = cofactors[r]
        dnr = poly_derivative(nr)
        z0 = pts[r]
        qz = poly_eval(fact.q, z0)
        num = poly_eval(dnr, z0) * qz - poly_eval(nr, z0) * poly_eval(dq, z0)
        f_prime = num / (sd * o_prime[r] * qz ** 2)
        gram[r, r] = wts[r] * pts[r] * f_prime
        for t in range(k):
            if t != r:
                gram[r, t] = 1.0 / (
                    o_prime[r] * np.conj(o_prime[t]) * (1.0 - pts[r] * np.conj(pts[t]))
                )

    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-10:
        raise SingularGram(f"boundary Gram matrix min eigenvalue {eigs[0]:.3e}")
    b_inv = np.linalg.inv(gram)
    resid = np.max(np.abs(b_inv @ gram - np.eye(k)))
    if resid > 1e-9:
        raise SingularGram(f"Gram inverse residual {resid:.3e} exceeds 1e-9")

    return DirichletModel(
        mu=mu, fact=fact, atom_poly=p, cofactors=cofactors, o_prime=o_prime,
        gram_f=gram, b_inv=b_inv,
    )


def o_mu_eval(model, z):
    """Evaluate the outer function ``O(z)``.

    Parameters
    ----------
    model : DirichletModel
    z : complex or ndarray
        Points with ``q(z) != 0``; automatic inside the closed unit disk.

    Returns
    -------
    complex or ndarray
    """
    sd = np.sqrt(model.fact.d)
    return poly_eval(model.atom_poly, z) / (sd * poly_eval(model.fact.q, z))


def boundary_function_eval(model, r, z):
    """Evaluate the boundary function ``f_r(z)`` attached to atom ``r``.

    Uses the polynomial form ``f_r = N_r / (sqrt(d) O'(zeta_r) q)`` with
    ``N_r`` the model's cofactor over the other atoms, which is smooth at
    ``zeta_r`` (no removable singularity to dodge).

    Parameters
    ----------
    model : DirichletModel
    r : int
        Atom index in canonical order.
    z : complex or ndarray

    Returns
    -------
    complex or ndarray
    """
    sd = np.sqrt(model.fact.d)
    nr = model.cofactors[r]
    return poly_eval(nr, z) / (sd * model.o_prime[r] * poly_eval(model.fact.q, z))


def kernel_tilde(model, z, lam):
    """Kernel of the multiplier-range part ``O * H^2``.

    ``O(z) * conj(O(lam)) / (1 - conj(lam) * z)`` for ``|z|, |lam| < 1``.

    Parameters
    ----------
    model : DirichletModel
    z, lam : complex

    Returns
    -------
    complex
    """
    return o_mu_eval(model, z) * np.conj(o_mu_eval(model, lam)) / (1.0 - np.conj(lam) * z)


def kernel_hat(model, z, lam):
    """Kernel of the finite-dimensional complement of ``O * H^2``.

    ``sum_r g_r(lam) * f_r(z)`` with ``g(lam) = conj(b_inv) @ conj(f(lam))``.

    Parameters
    ----------
    model : DirichletModel
    z, lam : complex

    Returns
    -------
    complex
    """
    k = model.mu.k
    fz = np.array([boundary_function_eval(model, r, z) for r in range(k)])
    fl = np.array([boundary_function_eval(model, r, lam) for r in range(k)])
    g = np.conj(model.b_inv) @ np.conj(fl)
    return complex(fz @ g)


def kernel_full(model, z, lam):
    """Reproducing kernel of D(mu): the sum of the two parts.

    Satisfies ``K(z, 0) = 1`` and Hermitian symmetry, and reproduces
    point evaluation against the monomial Gram pairing.

    Parameters
    ----------
    model : DirichletModel
    z, lam : complex

    Returns
    -------
    complex
    """
    return complex(kernel_tilde(model, z, lam) + kernel_hat(model, z, lam))
