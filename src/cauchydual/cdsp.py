"""Subnormality tests for the Cauchy dual of the shift on D(mu).

Two independent routes:

1. A closed-form criterion for two-atom measures: evaluate the
   identification polynomials at the outer roots of the factorization and
   test (a) the off-diagonal overlap sum is nonzero and (b) every product
   ``alpha_r * conj(alpha_t)`` (r != t) avoids the ray ``[1, oo)``.  Both
   conditions together certify that the Cauchy dual is not subnormal.

2. A truncated-operator oracle: the monomial Gram matrix of D(mu), the
   matrix of the shift in the orthonormalized basis, its Cauchy dual, and
   the Agler / hyperexpansivity defect forms on an interior block that
   absorbs truncation edge effects.  Every defect form comes from one
   recursion, ``B_n = B_{n-1} - T* B_{n-1} T`` from ``B_0 = I``, which
   walks all orders in one pass at two matmuls each.

Scalars produced by the closed-form route (overlap sum, coupling
determinant) are computed in a canonical rotation frame: atoms sorted by
principal argument and rotated so the first atom sits at 1.  Rotating a
measure is a unitary change of the whole picture, so the verdict is frame
independent, but the raw scalars are not; the canonical frame pins them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cpoly import poly_eval
from .debranges import build_identification, cholesky_upper
from .dirichlet import build_model
from .errors import NonConvergence, SingularFrame, ToolkitError, ValidationError
from .measure import MeasureSpec, make_measure, moment

__all__ = [
    "gram_monomials",
    "quadrature_energy",
    "cross_energy",
    "TruncationWorkspace",
    "build_truncation",
    "two_isometry_defect",
    "cauchy_dual",
    "agler_min_eig",
    "hyperexpansivity_max_eig",
    "CdspVerdict",
    "canonical_frame",
    "closed_form_test",
    "coupling_determinant",
    "SweepRow",
    "sweep_angle",
]

QUAD_LEVELS = {1: (64, 512), 2: (128, 1024), 3: (256, 2048)}

CITE_SINGLE_ATOM = (
    "one-atom case: the shift on a one-atom weighted Dirichlet space has a "
    "subnormal Cauchy dual (known result)"
)
CITE_ANTIPODAL = (
    "antipodal case: measures supported at two antipodal points yield a "
    "subnormal Cauchy dual (known result)"
)
CITE_NOT_SUBNORMAL_OVERLAP = "off-diagonal overlap sum is nonzero beyond threshold"
CITE_NOT_SUBNORMAL_RAY = "every outer-root product avoids the ray [1, oo)"
CITE_INCONCLUSIVE = "sufficient conditions for non-subnormality were not met"
CITE_K_RANGE = "closed-form criterion is implemented for exactly two atoms"


def gram_monomials(mu, n):
    """Gram matrix of the monomials ``z**m`` in D(mu).

    Closed form ``<z^m, z^n> = delta_{mn} + min(m, n) * moment(n - m)``,
    cross-validated against :func:`quadrature_energy` in the test suite.

    Parameters
    ----------
    mu : MeasureSpec
    n : int
        Matrix size, ``n >= 2``.

    Returns
    -------
    ndarray
        Hermitian ``n x n`` matrix with ``G[m, l] = <z^m, z^l>``.
    """
    if n < 2:
        raise ValidationError("gram_monomials needs size >= 2")
    idx = np.arange(n)
    pos = np.array([moment(mu, l) for l in range(n)], dtype=complex)
    full = np.concatenate((np.conj(pos[:0:-1]), pos))
    diffs = idx[None, :] - idx[:, None]
    band = full[diffs + n - 1]
    return np.eye(n, dtype=complex) + np.minimum.outer(idx, idx) * band


def _derivative(coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return coeffs[1:] * np.arange(1, coeffs.size)


def quadrature_energy(coeffs, mu, level):
    """Dirichlet energy of a polynomial by disk quadrature (test oracle).

    Approximates ``(1/pi) * iint |f'(z)|**2 P_mu(z) dA(z)`` with a
    per-atom substitution that integrates the Poisson factor exactly in
    the angular direction (a Moebius warp of the angle pushes the uniform
    samples onto the Poisson distribution), and Gauss-Legendre nodes on
    the radial interval ``[0, 1]``.

    Parameters
    ----------
    coeffs : array_like of complex
        Polynomial coefficients, ascending.
    mu : MeasureSpec
    level : int
        1, 2, or 3; node counts (radial, angular) are
        ``(64, 512)``, ``(128, 1024)``, ``(256, 2048)``.

    Returns
    -------
    float
    """
    return cross_energy(coeffs, coeffs, mu, level).real


@functools.lru_cache(maxsize=None)
def _radial_nodes(nr):
    """Gauss-Legendre nodes and weights on ``[0, 1]``, read-only, per count."""
    x, wx = np.polynomial.legendre.leggauss(nr)
    r, wr = 0.5 * (x + 1.0), 0.5 * wx
    r.flags.writeable = wr.flags.writeable = False
    return r, wr


def cross_energy(f, g, mu, level):
    """Sesquilinear Dirichlet energy pairing of two polynomials.

    Evaluates ``(1/pi) * iint f'(z) * conj(g'(z)) P_mu(z) dA(z)`` in one
    pass on the quadrature grid described in :func:`quadrature_energy`;
    this is the polarization ``(E(f+g) - E(f-g) + i E(f+ig) - i E(f-ig)) / 4``
    of that energy, up to round-off.  Passing the same object as ``f`` and
    ``g`` evaluates its derivative once.

    Parameters
    ----------
    f, g : array_like of complex
        Polynomial coefficients, ascending.
    mu : MeasureSpec
    level : int

    Returns
    -------
    complex
    """
    if level not in QUAD_LEVELS:
        raise ValidationError(f"quadrature level must be 1, 2, or 3, got {level}")
    df = _derivative(f)
    dg = df if g is f else _derivative(g)
    if df.size == 0 or dg.size == 0:
        return 0j
    nr, na = QUAD_LEVELS[level]
    r, wr = _radial_nodes(nr)
    eipsi = np.exp(2j * np.pi * np.arange(na) / na)
    rr = r[:, None]
    eitau = (eipsi[None, :] + rr) / (1.0 + rr * eipsi[None, :])
    total = 0.0
    for zeta, gamma in mu.atoms:
        z = zeta * rr * eitau
        fp = np.polynomial.polynomial.polyval(z, df)
        gp = fp if dg is df else np.polynomial.polynomial.polyval(z, dg)
        avg = np.mean(fp * np.conj(gp), axis=1)
        total += gamma * 2.0 * np.sum(wr * r * avg)
    return complex(total)


@dataclass(frozen=True)
class TruncationWorkspace:
    """Finite section of the shift on D(mu) in an orthonormal basis.

    Attributes
    ----------
    mu : MeasureSpec
    N : int
        Truncation size.
    gram : ndarray
        ``N x N`` monomial Gram matrix ``G[m, n] = <z^m, z^n>``.
    onb_factor : ndarray
        Upper-triangular ``C`` with ``C* C = conj(gram)``; the conjugate
        appears because the norm of a coefficient vector ``a`` pairs as
        ``sum a_m conj(a_n) G[m, n]``, a quadratic form in ``transpose(G)``.
    T : ndarray
        Matrix of multiplication by ``z`` in the orthonormalized basis
        (upper Hessenberg).
    margin : int
        Interior margin for edge-effect-free assertions.
    mstar_m : ndarray
        Exact ``N x N`` finite section of ``M* M`` computed through the
        size ``N+1`` Gram matrix (the shifted basis vectors live one
        degree up, so one extra row captures them exactly).
    norm_T : float
        Spectral norm of the truncated ``T``, recorded as the shift-norm
        bound.
    """

    mu: MeasureSpec
    N: int
    gram: np.ndarray
    onb_factor: np.ndarray
    T: np.ndarray
    margin: int
    mstar_m: np.ndarray
    norm_T: float


def build_truncation(mu, n):
    """Build the :class:`TruncationWorkspace` at size ``n``.

    Parameters
    ----------
    mu : MeasureSpec
    n : int
        Truncation size, ``n >= 8``.

    Returns
    -------
    TruncationWorkspace

    Raises
    ------
    ValidationError
        If ``n < 8``.
    NotPSD
        If the Gram matrix fails the positive-definite factorization.
    """
    if n < 8:
        raise ValidationError("truncation size must be at least 8")
    gram_big = gram_monomials(mu, n + 1)
    gram = gram_big[:n, :n]
    c = cholesky_upper(np.conj(gram))
    c_inv = np.linalg.inv(c)
    t = np.pad(c[:, 1:], ((0, 0), (0, 1))) @ c_inv
    mstar_m = c_inv.conj().T @ np.conj(gram_big[1:, 1:]) @ c_inv
    return TruncationWorkspace(
        mu=mu,
        N=n,
        gram=gram,
        onb_factor=c,
        T=t,
        margin=max(4, n // 8),
        mstar_m=mstar_m,
        norm_T=float(np.linalg.norm(t, 2)),
    )


def _defect_forms(t, nmax):
    """Yield ``B_n = sum_j (-1)^j binom(n, j) (T^j)* T^j`` for n = 1..nmax.

    Agler's identity ``B_n = (1 - L)^n I`` with ``L(X) = T* X T``, walked
    as ``B_n = B_{n-1} - T* B_{n-1} T``.  Each form replaces the last, so
    a reader that drops it keeps at most two ``N x N`` forms alive.
    """
    b = np.eye(t.shape[0], dtype=complex)
    t_adj = t.conj().T
    for _ in range(nmax):
        b = b - t_adj @ b @ t
        yield b


def _keep(size, n, margin, lo, hi, kind):
    """Interior size for the order-``n`` form; ``n`` must lie in ``lo..hi``."""
    if not lo <= n <= hi:
        raise ValidationError(f"{kind} order must be in {lo}..{hi}")
    keep = size - margin - n
    if keep < 2:
        raise ValidationError("truncation too small for the requested order")
    return keep


def _agler_curve(tp, orders, margin):
    """``{n: agler_min_eig(tp, n, margin)}`` for each order in ``orders``,
    all validated before one recursion pass reads them."""
    keeps = {n: _keep(tp.shape[0], n, margin, 1, 10, "defect") for n in orders}
    return {
        n: float(np.linalg.eigvalsh(b[: keeps[n], : keeps[n]])[0])
        for n, b in enumerate(_defect_forms(tp, max(keeps, default=0)), 1)
        if n in keeps
    }


def _shift_curve(w, orders):
    """2-isometry defect and ``{n: hyperexpansivity_max_eig(w, n)}`` for
    each order in ``orders``, all validated before one recursion pass."""
    keeps = {n: _keep(w.N, n, w.margin, 2, 6, "hyperexpansivity") for n in orders}
    hyper = {}
    for n, b in enumerate(_defect_forms(w.T, max([2, *keeps])), 1):
        if n == 2:
            defect = float(np.max(np.abs(b[: w.N - w.margin, : w.N - w.margin])))
        if n in keeps:
            hyper[n] = float(np.linalg.eigvalsh(b[: keeps[n], : keeps[n]])[-1])
    return defect, hyper


def two_isometry_defect(w):
    """Max-magnitude interior entry of ``I - 2 T*T + T*^2 T^2``.

    Zero (up to round-off) exactly when the shift is a 2-isometry, which
    holds for every D(mu) here.  The form is ``B_2`` of the defect recursion.

    Parameters
    ----------
    w : TruncationWorkspace

    Returns
    -------
    float
    """
    return _shift_curve(w, ())[0]


def _gated_dual(w):
    """Cauchy dual and the interior norm its contraction gate read.

    By Sylvester's law of inertia, ``min eig(mstar_m) > 1e-10`` exactly when
    ``mstar_m - 1e-10 I`` has a Cholesky factor; eigenvalues only name a failure.
    """
    try:
        np.linalg.cholesky(w.mstar_m - 1e-10 * np.eye(w.N))
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(w.mstar_m)
        raise SingularFrame(f"frame section min eigenvalue {eigs[0]:.3e}") from None
    dual = w.T @ np.linalg.inv(w.mstar_m)
    keep = w.N - w.margin
    nrm = float(np.linalg.norm(dual[:keep, :keep], 2))
    if nrm > 1.0 + 1e-6:
        raise NonConvergence(f"Cauchy dual interior norm {nrm:.9f} exceeds 1 + 1e-6")
    return dual, nrm


def cauchy_dual(w):
    """Cauchy dual ``T' = T (M*M)^{-1}`` on the truncation.

    Uses the exact finite section ``mstar_m`` of the frame operator
    rather than ``T* T`` of the compressed matrix; the compression has a
    dead final column, so its own ``T* T`` is singular by construction
    and would poison the inverse.

    Parameters
    ----------
    w : TruncationWorkspace

    Returns
    -------
    ndarray
        The ``N x N`` matrix of the Cauchy dual.

    Raises
    ------
    SingularFrame
        If the frame section is numerically singular.
    NonConvergence
        If the interior operator norm exceeds the contraction gate
        ``1 + 1e-6`` (the Cauchy dual of a 2-isometry is a contraction).
    """
    return _gated_dual(w)[0]


def agler_min_eig(tp, n, margin):
    """Minimum interior eigenvalue of the order-``n`` moment defect form.

    For a subnormal contraction the form is positive semidefinite at
    every order; a genuinely negative interior eigenvalue certifies
    failure.  The interior block shrinks by ``n`` extra rows because an
    ``n``-fold product of the truncated matrix corrupts entries within
    ``n`` of the edge.  The form is ``B_n`` of the defect recursion.

    Parameters
    ----------
    tp : ndarray
        Square matrix (typically the Cauchy dual).
    n : int
        Order, ``1 <= n <= 10``.
    margin : int
        Base interior margin of the truncation.

    Returns
    -------
    float
    """
    return _agler_curve(tp, (n,), margin)[n]


def hyperexpansivity_max_eig(w, n):
    """Maximum interior eigenvalue of the order-``n`` defect form of T.

    Complete hyperexpansivity demands the form be negative semidefinite
    for every ``n >= 1``; the order-2 form vanishes identically for a
    2-isometry.  The form is ``B_n`` of the defect recursion.

    Parameters
    ----------
    w : TruncationWorkspace
    n : int
        Order, ``2 <= n <= 6``.

    Returns
    -------
    float
    """
    return _shift_curve(w, (n,))[1][n]


def _oracle_run(w, nmax):
    """The report's oracle figures at one size: one recursion pass for
    the dual (orders ``1..nmax``), one for the shift (orders 1..4), and
    the dual's norm as its contraction gate read it."""
    dual, dual_norm = _gated_dual(w)
    agler = _agler_curve(dual, range(1, nmax + 1), w.margin)
    defect, hyper = _shift_curve(w, (2, 3, 4))
    return {
        "N": w.N,
        "shift_norm": w.norm_T,
        "two_isometry_defect": defect,
        "cauchy_dual_interior_norm": dual_norm,
        "agler_min_eig": {str(n): v for n, v in agler.items()},
        "hyperexpansivity_max_eig": {str(n): v for n, v in hyper.items()},
    }


@dataclass(frozen=True)
class CdspVerdict:
    """Outcome of the closed-form subnormality test.

    Attributes
    ----------
    verdict : str
        ``"NotSubnormal"``, ``"KnownSubnormal"``, or ``"Inconclusive"``.
    s_offdiag : complex or None
        Both-pairings overlap sum
        ``sum_j p_j(alpha_1) conj(p_j(alpha_2)) + conj(...)`` in the
        canonical frame (None when not computed).
    root_products : tuple of complex
        ``alpha_r * conj(alpha_t)`` for ``r != t`` in the canonical frame.
    citations : tuple of str
        Human-readable statements backing the verdict.
    """

    verdict: str
    s_offdiag: complex | None
    root_products: tuple
    citations: tuple


def canonical_frame(mu):
    """Rotate a measure so its first atom (by argument) sits at 1.

    Rotation is a unitary equivalence of the whole pipeline; fixing the
    frame pins the scalars that are otherwise only rotation covariant.

    Parameters
    ----------
    mu : MeasureSpec

    Returns
    -------
    MeasureSpec
    """
    pts = mu.points
    rot = np.conj(pts[0]) / abs(pts[0])
    new_pts = pts * rot
    new_pts[0] = 1.0 + 0j
    return make_measure(new_pts, mu.weights)


def _canonical_analysis(mu):
    """Model and identification of ``mu`` in its canonical frame."""
    model = build_model(canonical_frame(mu))
    return model, build_identification(model)


def _overlap_scalars(frame):
    """Canonical-frame overlap sum, root products, and threshold scale."""
    model, ident = frame
    alpha = model.fact.outer_roots
    p1 = np.array([poly_eval(pj, alpha[0]) for pj in ident.p_polys])
    p2 = np.array([poly_eval(pj, alpha[1]) for pj in ident.p_polys])
    w12 = complex(p1 @ np.conj(p2))
    s_offdiag = w12 + np.conj(w12)
    products = (
        complex(alpha[0] * np.conj(alpha[1])),
        complex(alpha[1] * np.conj(alpha[0])),
    )
    scale = float(np.max(np.abs(p1 * p2))) if alpha.size else 0.0
    return complex(s_offdiag), products, scale


def _in_ray(product):
    """Membership test for the ray [1, oo) with a conservative band."""
    return abs(product.imag) <= 1e-10 and product.real >= 1.0 - 1e-10


def closed_form_test(mu):
    """Closed-form subnormality verdict for the Cauchy dual of the shift.

    One atom and two antipodal atoms are the known subnormal cases.  For
    two generic atoms, a nonzero overlap sum combined with every
    outer-root product avoiding ``[1, oo)`` certifies non-subnormality;
    anything else is inconclusive.  More than two atoms is inconclusive
    (the operator oracle still runs for them).

    Parameters
    ----------
    mu : MeasureSpec

    Returns
    -------
    CdspVerdict
    """
    return _closed_form(mu, None)


def _closed_form(mu, frame):
    """:func:`closed_form_test`, reusing ``frame`` (the result of
    :func:`_canonical_analysis`) for two atoms, or building it when None."""
    if mu.k == 1:
        return CdspVerdict(
            verdict="KnownSubnormal",
            s_offdiag=None,
            root_products=(),
            citations=(CITE_SINGLE_ATOM,),
        )
    if mu.k != 2:
        return CdspVerdict(
            verdict="Inconclusive",
            s_offdiag=None,
            root_products=(),
            citations=(CITE_K_RANGE,),
        )
    pts = mu.points
    if abs(pts[0] + pts[1]) <= 1e-9:
        try:
            s_offdiag, products, _ = _overlap_scalars(frame or _canonical_analysis(mu))
        except ToolkitError:
            s_offdiag, products = None, ()
        return CdspVerdict(
            verdict="KnownSubnormal",
            s_offdiag=s_offdiag,
            root_products=products,
            citations=(CITE_ANTIPODAL,),
        )
    s_offdiag, products, scale = _overlap_scalars(frame or _canonical_analysis(mu))
    nonzero = abs(s_offdiag) > 1e-8 * scale
    off_ray = all(not _in_ray(rp) for rp in products)
    if nonzero and off_ray:
        return CdspVerdict(
            verdict="NotSubnormal",
            s_offdiag=s_offdiag,
            root_products=products,
            citations=(CITE_NOT_SUBNORMAL_OVERLAP, CITE_NOT_SUBNORMAL_RAY),
        )
    return CdspVerdict(
        verdict="Inconclusive",
        s_offdiag=s_offdiag,
        root_products=products,
        citations=(CITE_INCONCLUSIVE,),
    )


def coupling_determinant(mu):
    """Replicated coupling determinant for a two-atom measure.

    Assembles the scalar ``sum_{r,t} W_rt * (1 - 1/(alpha_r
    conj(alpha_t)))**2 / (alpha_r**2 conj(alpha_t)**2 (alpha_r -
    alpha_{3-r}) conj(alpha_t - alpha_{3-t}))`` with ``W_rt = sum_j
    p_j(alpha_r) conj(p_j(alpha_t))``, evaluated in the canonical frame.
    Reported as a diagnostic; no verdict semantics attach to it.

    Parameters
    ----------
    mu : MeasureSpec

    Returns
    -------
    complex

    Raises
    ------
    ValidationError
        If the measure does not have exactly two atoms.
    """
    if mu.k != 2:
        raise ValidationError("coupling determinant requires exactly two atoms")
    return _coupling(_canonical_analysis(mu))


def _coupling(frame):
    """:func:`coupling_determinant` from a two-atom canonical ``frame``."""
    model, ident = frame
    alpha = model.fact.outer_roots
    vals = np.array(
        [[poly_eval(pj, alpha[r]) for pj in ident.p_polys] for r in range(2)]
    )
    total = 0j
    for r in range(2):
        for t in range(2):
            w_rt = complex(vals[r] @ np.conj(vals[t]))
            dr = alpha[r] - alpha[1 - r]
            dt = alpha[t] - alpha[1 - t]
            total += (
                w_rt
                * (1.0 - 1.0 / (alpha[r] * np.conj(alpha[t]))) ** 2
                / (alpha[r] ** 2 * np.conj(alpha[t]) ** 2 * dr * np.conj(dt))
            )
    return complex(total)


@dataclass(frozen=True)
class SweepRow:
    """One angle of a verdict sweep.

    Attributes
    ----------
    theta_deg : float
        Angle between the two atoms, in degrees.
    verdict : CdspVerdict or None
        None when the row errored.
    min_agler_n2 : float or None
        Minimum interior eigenvalue of the order-2 defect form of the
        Cauchy dual at the sweep truncation size.
    error : str or None
        Error class name when the row failed.
    """

    theta_deg: float
    verdict: CdspVerdict | None
    min_agler_n2: float | None
    error: str | None


def sweep_angle(theta_grid, weights=(1.0, 1.0), trunc=48):
    """Run the verdict pipeline over a grid of atom separations.

    Each angle theta places atoms at ``1`` and ``exp(i theta pi / 180)``
    with the given weights.  Errors are captured per row and do not abort
    the sweep.  Output order follows input order.

    Parameters
    ----------
    theta_grid : sequence of float
        Angles in degrees, each in ``(0, 180]``.
    weights : pair of float, optional
    trunc : int, optional
        Truncation size for the order-2 defect column.

    Returns
    -------
    list of SweepRow
    """
    rows = []
    for theta in theta_grid:
        theta = float(theta)
        try:
            if not 0.0 < theta <= 180.0:
                raise ValidationError(f"sweep angle {theta} outside (0, 180]")
            point = np.exp(1j * theta * np.pi / 180.0)
            mu = make_measure([1.0 + 0j, point], list(weights))
            verdict = closed_form_test(mu)
            w = build_truncation(mu, trunc)
            dual = cauchy_dual(w)
            agler2 = agler_min_eig(dual, 2, w.margin)
            rows.append(
                SweepRow(theta_deg=theta, verdict=verdict, min_agler_n2=agler2, error=None)
            )
        except ToolkitError as exc:
            rows.append(
                SweepRow(
                    theta_deg=theta,
                    verdict=None,
                    min_agler_n2=None,
                    error=type(exc).__name__,
                )
            )
    return rows
