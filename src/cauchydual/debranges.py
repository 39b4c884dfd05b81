"""Identification of D(mu) with a de Branges-Rovnyak space H(B).

The full kernel of D(mu) can be written as
``(q(z) conj(q(w)) - sum_{i,l} A[i,l] z^{i+1} conj(w)^{l+1}) /
(q(z) conj(q(w)) (1 - z conj(w)))`` for a Hermitian positive semidefinite
coefficient matrix ``A``.  Factoring ``A = P* P`` with ``P`` upper
triangular yields polynomials ``p_j`` and a Schur-class row
``B = (p_1/q, ..., p_k/q)`` whose de Branges-Rovnyak kernel coincides
with the D(mu) kernel.

``A`` is assembled in closed form from outer products of the coefficient
vectors of ``q``, of the atom polynomial and of the polynomials over all
atoms but one; the leading row and column of the raw coefficient matrix
must vanish (that is the kernel normalization at the origin) and are
deleted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpoly import poly_eval
from .errors import NotPSD, ResidualTooLarge

__all__ = [
    "SchurIdentification",
    "compute_A",
    "cholesky_upper",
    "build_identification",
    "kernel_hb",
    "schur_row_eval",
]


def _numerator_grid(model, z, wb):
    """Kernel numerator ``E(z_i, wb_j)`` at every pair of two point arrays.

    ``E(z, wb) = q(z) qc(wb) - p(z) pc(wb) / d * (1 + (1 - z wb) * S)``
    where ``qc, pc`` carry conjugated coefficients, and ``S`` is the
    double sum of conjugated Gram-inverse entries against simple poles at
    the atoms.  ``wb`` stands for the conjugated second kernel variable.
    """
    pts = model.mu.points
    op = model.o_prime
    zpow = z[:, None] ** np.arange(pts.size + 1)
    wpow = wb[:, None] ** np.arange(pts.size + 1)
    qq = np.outer(zpow @ model.fact.q, wpow @ np.conj(model.fact.q))
    pp = np.outer(zpow @ model.atom_poly, wpow @ np.conj(model.atom_poly))
    poles_z = 1.0 / (op * (z[:, None] - pts))
    poles_wb = 1.0 / (np.conj(op) * (wb[:, None] - np.conj(pts)))
    s = poles_z @ np.conj(model.b_inv) @ poles_wb.T
    return qq - pp / model.fact.d * (1.0 + (1.0 - np.outer(z, wb)) * s)


def compute_A(model):
    """Coefficient matrix of the de Branges-Rovnyak kernel numerator.

    With ``N`` the model's ``cofactors`` (row ``r`` is
    ``N_r = prod_{j != r} (z - zeta_j)``, built once by ``build_model``) and
    ``C[r, t] = conj(b_inv[r, t]) / (O'(zeta_r) conj(O'(zeta_t)))``, the
    pole sum ``p(z) pc(wb) S`` of the numerator has coefficients
    ``Phi = N^T C conj(N)``, so the coefficients of ``z^i * wb^j`` are
    ``outer(q, conj q) - (outer(p, conj p) + Phi - z wb Phi) / d``, with
    ``z wb Phi`` the matrix ``Phi`` moved one row and one column down.
    Checks that the 0-row and 0-column vanish and that the coefficients
    reproduce the numerator on an independent grid, and returns the
    Hermitian ``k x k`` block ``A[i, j] =`` coefficient of
    ``z^(i+1) * wb^(j+1)``.

    Parameters
    ----------
    model : DirichletModel

    Returns
    -------
    ndarray
        Hermitian positive semidefinite ``k x k`` matrix.

    Raises
    ------
    ResidualTooLarge
        If the 0-row/column fails to vanish, the independent-grid residual
        exceeds ``1e-8``, Hermitian symmetry fails, or the matrix overflows.
    NotPSD
        If the matrix has an eigenvalue below ``-1e-8 * trace``.
    """
    k = model.mu.k
    q, p, d = model.fact.q, model.atom_poly, model.fact.d
    nmat = model.cofactors
    coup = np.conj(model.b_inv) / np.outer(model.o_prime, np.conj(model.o_prime))
    phi = nmat.T @ coup @ np.conj(nmat) / d
    ahat = np.outer(q, np.conj(q)) - np.outer(p, np.conj(p)) / d
    ahat[:k, :k] -= phi
    ahat[1:, 1:] += phi

    edge = max(float(np.max(np.abs(ahat[0, :]))), float(np.max(np.abs(ahat[:, 0]))))
    if edge > 1e-8:
        raise ResidualTooLarge(
            f"kernel numerator has nonvanishing origin coefficients ({edge:.3e})"
        )

    j = np.arange(k + 2)
    check = np.array([0.45, 0.7, 0.9])[j % 3] * np.exp(2j * np.pi * (j + 0.5) / (k + 2))
    target = _numerator_grid(model, check, check)
    cpow = check[:, None] ** np.arange(k + 1)
    worst = float(np.max(np.abs(cpow @ ahat @ cpow.T - target)))
    scale = max(1.0, float(np.max(np.abs(target))))
    if worst > 1e-8 * scale:
        raise ResidualTooLarge(
            f"coefficient residual {worst:.3e} on the check grid exceeds 1e-8 * {scale:.3e}"
        )

    a = ahat[1:, 1:]
    herm = float(np.max(np.abs(a - a.conj().T)))
    if herm > 1e-10 * max(1.0, float(np.max(np.abs(a)))):
        raise ResidualTooLarge(f"coefficient matrix Hermitian defect {herm:.3e}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            a = (a + a.conj().T) / 2.0
        finite = np.all(np.isfinite(a))
    except FloatingPointError:
        finite = False
    if not finite:
        raise ResidualTooLarge(
            f"coefficient matrix overflows (max |A| {float(np.max(np.abs(ahat))):.3e})"
        )
    eigs = np.linalg.eigvalsh(a)
    trace = float(np.trace(a).real)
    if eigs[0] < -1e-8 * max(trace, 1.0):
        raise NotPSD(f"coefficient matrix min eigenvalue {eigs[0]:.3e}")
    return a


def cholesky_upper(a):
    """Upper Cholesky factor of a Hermitian PSD matrix: ``A = P* P``.

    ``P`` is upper triangular with real nonnegative diagonal.  Pivots
    below ``-1e-10 * trace`` raise; pivots within ``1e-10 * trace`` of
    zero produce a zero row (semidefinite rank deficiency).

    Parameters
    ----------
    a : ndarray
        Hermitian positive semidefinite matrix.

    Returns
    -------
    ndarray
        Upper-triangular ``P`` with ``P.conj().T @ P == a`` up to
        round-off.

    Raises
    ------
    NotPSD
        If a pivot is negative beyond tolerance.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    trace = max(float(np.trace(a).real), 1e-300)
    p = np.zeros((n, n), dtype=complex)
    for m in range(n):
        pivot = a[m, m].real - float(np.sum(np.abs(p[:m, m]) ** 2))
        if pivot < -1e-10 * trace:
            raise NotPSD(f"pivot {m} is negative: {pivot:.3e}")
        if pivot <= 1e-10 * trace:
            continue
        p[m, m] = np.sqrt(pivot)
        if m + 1 < n:
            p[m, m + 1 :] = (
                a[m, m + 1 :] - p[:m, m].conj() @ p[:m, m + 1 :]
            ) / p[m, m].real
    return p


@dataclass(frozen=True)
class SchurIdentification:
    """The H(B) data identifying D(mu) with a de Branges-Rovnyak space.

    Attributes
    ----------
    A : ndarray
        Hermitian PSD coefficient matrix of the kernel numerator.
    P : ndarray
        Upper-triangular factor with ``A = P* P`` and real nonnegative
        diagonal.
    p_polys : tuple of ndarray
        Row polynomials ``p_j(z) = sum_i P[j, i] * z**(i+1)`` (ascending
        coefficients, zero constant term).
    q : ndarray
        The shared monic denominator polynomial from the factorization.
    """

    A: np.ndarray
    P: np.ndarray
    p_polys: tuple
    q: np.ndarray


def build_identification(model):
    """Assemble the :class:`SchurIdentification` for a model.

    Parameters
    ----------
    model : DirichletModel

    Returns
    -------
    SchurIdentification

    Raises
    ------
    NotPSD, ResidualTooLarge
        Propagated from :func:`compute_A` / :func:`cholesky_upper`, or if
        the Cholesky reconstruction drifts beyond ``1e-9`` relative.
    """
    a = compute_A(model)
    p = cholesky_upper(a)
    amax = max(float(np.max(np.abs(a))), 1e-300)
    recon = float(np.max(np.abs(p.conj().T @ p - a)))
    if recon > 1e-9 * amax:
        raise ResidualTooLarge(f"Cholesky reconstruction residual {recon:.3e}")
    k = a.shape[0]
    polys = tuple(np.concatenate(([0j], p[j, :])) for j in range(k))
    return SchurIdentification(A=a, P=p, p_polys=polys, q=model.fact.q)


def kernel_hb(ident, z, w):
    """de Branges-Rovnyak kernel of the identified space.

    Evaluates ``(q(z) conj(q(w)) - sum_{i,l} A[i,l] z^(i+1) conj(w)^(l+1))
    / (q(z) conj(q(w)) (1 - z conj(w)))``.  The numerator is driven by the
    coefficient matrix ``A`` directly, which pins the orientation of the
    bivariate expansion.

    Parameters
    ----------
    ident : SchurIdentification
    z, w : complex
        Points in the open unit disk.

    Returns
    -------
    complex
    """
    k = ident.A.shape[0]
    wb = np.conj(w)
    zpow = z ** np.arange(1, k + 1)
    wpow = wb ** np.arange(1, k + 1)
    qz = poly_eval(ident.q, z)
    qwb = poly_eval(np.conj(ident.q), wb)
    num = qz * qwb - zpow @ ident.A @ wpow
    return complex(num / (qz * qwb * (1.0 - z * wb)))


def schur_row_eval(ident, z):
    """Values of the Schur row identifying the space with H(B).

    The row components are ``b_j(z) = conj-coefficient(p_j)(z) / q(z)``:
    conjugating the ``P`` coefficients is what makes ``sum_j b_j(z) *
    conj(b_j(w))`` reproduce the kernel numerator quadratic form in
    ``A`` and keeps ``sum_j |b_j(z)|^2 <= 1`` on the disk (the literal
    rows of ``P`` satisfy neither).  ``b_j(0) = 0`` by construction.

    Parameters
    ----------
    ident : SchurIdentification
    z : complex

    Returns
    -------
    ndarray
        The ``k`` component values.
    """
    qz = poly_eval(ident.q, z)
    return np.array([poly_eval(np.conj(pj), z) / qz for pj in ident.p_polys])
