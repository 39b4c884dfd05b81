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
   absorbs truncation edge effects.  A :class:`TruncationWorkspace` is a
   function of ``(mu, N)`` alone.  By the local Dirichlet formula the
   section of ``M* M`` is ``I + F F*`` with ``F`` of width k <= 8; the
   dual ``T (I + F F*)^-1 = T - (T F)(I_k + F* F)^-1 F*`` takes one
   ``k x k`` solve by the Woodbury identity.  The Gram factor and its
   inverse come from one pass by 2 x 2 blocks, ``T`` is written over the
   inverse, and every defect form comes from one recursion,
   ``B_n = B_{n-1} - X* B_{n-1} X`` from ``B_0 = I``, carried on low-rank
   factors ``B_n = W_n H_n W_n*``: ``B_1 = I - X* X`` of the truncated
   shift or its dual is written down from ``F`` and two edge columns,
   ``k + 2`` in all (a bare matrix takes ``eigh`` of its whole ``B_1``),
   and each order adds one or two: a QR of ``[W, X* W]`` and an
   eigendecomposition of its small core, at ``O(N^2 r)``.  Interior
   eigenvalues and the dual's gate norm are read off factors (no SVD).

Scalars produced by the closed-form route (overlap sum, root products,
coupling determinant) are those of a canonical rotation frame: atoms sorted
by principal argument and rotated so the first atom sits at 1.  Rotating a
measure is a unitary change of the whole picture, so the verdict is frame
independent, but the raw scalars are not; the canonical frame pins them.
``_frame_scalars`` reads them off the measure's own model, with no second
model, by the rotation identity: rotating by ``rho`` sends the outer roots
to ``rho * alpha`` and ``A`` to ``U A U*`` with ``U = diag(conj(rho)**(i+1))``,
so the frame's polynomials are ``conj(rho)**(j+1) * p_j(rho z)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cpoly import _sort_roots, poly_derivative, poly_eval
from .debranges import build_identification
from .dirichlet import build_model
from .errors import NonConvergence, NotPSD, SingularGram, ToolkitError, ValidationError
from .measure import MeasureSpec, make_measure

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
    "SweepRow",
    "sweep_angle",
]

# Largest truncation size: a build and its oracle peak at ~2.5 N x N
# complex arrays (~40 MB traced at N = 1024), so ~0.67 GB at 4096.
MAX_TRUNC = 4096

QUAD_LEVELS = {1: (64, 512), 2: (128, 1024), 3: (256, 2048)}

# Radial nodes per block of _angular_moments: two 16 x 2048 complex
# buffers (0.5 MB each at level 3), in cache, where an 8.4 MB full-grid
# array would not be.  cross_energy itself touches no angular node.
_QUAD_ROWS = 16

# Rows of the largest diagonal block that _gram_factors factors directly,
# and of the product panels of _shift_over and two_isometry_defect.
_TRI_BLOCK, _PANEL = 32, 64

# Orders accepted by agler_min_eig (and the report's nmax) and by
# hyperexpansivity_max_eig, and the shift's orders in each oracle run.
AGLER_ORDERS = range(1, 11)
HYPER_ORDERS = range(2, 7)
SHIFT_ORDERS = (2, 3, 4)

# A workspace's interior margin is max(_MIN_MARGIN, N // 8); an order-n
# form keeps N - margin - n >= _MIN_KEEP interior rows.
_MIN_MARGIN, _MIN_KEEP = 4, 2

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
    # moment(mu, l) for every l at once, bit for bit: only the scalar
    # exponent 2 takes NumPy's square fast path, so that row is redone.
    powers = np.conj(mu.points)[None, :] ** idx[:, None]
    if n > 2:
        powers[2] = np.conj(mu.points) ** 2
    pos = np.sum(mu.weights * powers, axis=1)
    full = np.concatenate((np.conj(pos[:0:-1]), pos))
    # G = I + min(m, l) * full[n - 1 - m + l], the band read through a
    # Toeplitz view; adding 0 clears signed zeros as adding I's zeros did.
    gram = np.multiply(np.minimum.outer(idx, idx), sliding_window_view(full, n)[::-1])
    gram += 0.0
    gram.flat[:: n + 1] += 1.0
    return gram


def quadrature_energy(coeffs, mu, level):
    """Dirichlet energy of a polynomial by disk quadrature (test oracle).

    Approximates ``(1/pi) * iint |f'(z)|**2 P_mu(z) dA(z)`` with a
    per-atom substitution that integrates the Poisson factor exactly in
    the angular direction (a Moebius warp of the angle pushes the uniform
    samples onto the Poisson distribution), and Gauss-Legendre nodes on
    the radial interval ``[0, 1]``.  The rule sees a polynomial only
    through one small cached table per level, the angular means of the
    powers of its warped nodes (a cold level-3 build of 16 powers peaks at
    ~1.4 MB traced), and :func:`cross_energy` sums in coefficient space.

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


# The angular moment table of each level, read-only; it only ever grows.
_MOMENTS = {}


def _angular_moments(level, degree):
    """``M[s, j] = mean_psi e^{i s tau_j(psi)}`` for ``s <= degree`` at least.

    ``e^{i tau_j} = (e^{i psi} + r_j) / (1 + r_j e^{i psi})`` pushes the
    uniform angles onto the Poisson distribution of radius ``r[j]``; these
    node averages are the rule's own, not the exact moments ``r_j^s`` the
    oracle checks.  A table too short is rebuilt at the next power of two
    above ``degree``, by ``_QUAD_ROWS`` radii and repeated products, so row
    ``s`` has the same bits at every size, whatever the order of calls.
    """
    table = _MOMENTS.get(level)
    if table is not None and len(table) > degree:
        return table
    nr, na = QUAD_LEVELS[level]
    size = 1 << degree.bit_length()
    table = np.ones((size, nr), dtype=complex)
    if size > 1:
        r, _ = _radial_nodes(nr)
        eipsi = np.exp(2j * np.pi * np.arange(na) / na)
        warp, power = np.empty((2, _QUAD_ROWS, na), dtype=complex)
        for j in range(0, nr, _QUAD_ROWS):
            rr = r[j : j + _QUAD_ROWS, None]
            np.multiply(rr, eipsi, out=power)
            power += 1.0
            np.add(eipsi, rr, out=warp)
            warp /= power
            power[...] = 1.0
            for s in range(1, size):
                power *= warp
                table[s, j : j + _QUAD_ROWS] = np.mean(power, axis=1)
    table.flags.writeable = False
    _MOMENTS[level] = table
    return table


def cross_energy(f, g, mu, level):
    """Sesquilinear Dirichlet energy pairing of two polynomials.

    Evaluates ``(1/pi) * iint f'(z) * conj(g'(z)) P_mu(z) dA(z)`` by the
    quadrature rule described in :func:`quadrature_energy`; this is the
    polarization ``(E(f+g) - E(f-g) + i E(f+ig) - i E(f-ig)) / 4`` of that
    energy, up to round-off.  With ``a``, ``b`` the coefficients of ``f'``
    and ``g'``, the mean over the angular nodes of radius ``j`` of atom
    ``zeta`` is ``sum_{p,q} a_p conj(b_q) zeta^(p-q) r_j^(p+q) M[p-q, j]``,
    ``M[-s] = conj(M[s])``: the rule's nodes and weights summed in
    coefficient space, at ``O(nr * deg f' * deg g')`` per call, with no
    temporary above ``nr * (deg f' + deg g' + 1)`` entries, within
    ``1e-13 * max(1, |value|)`` of the full-grid values.  Passing the same
    object as ``f`` and ``g`` takes its derivative once.

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
    df = poly_derivative(f)
    dg = df if g is f else poly_derivative(g)
    if df.size == 0 or dg.size == 0:
        return 0j
    r, wr = _radial_nodes(QUAD_LEVELS[level][0])
    p, q = df.size, dg.size
    moments = _angular_moments(level, max(p, q) - 1)
    rpow = r ** np.arange(max(p, q))[:, None]
    a = df[:, None] * rpow[:p]
    b = np.conj(a if dg is df else dg[:, None] * rpow[:q])
    # Row s + q - 1 holds M[s] * sum_{p' - q' = s} a_p' conj(b_q') r^(p' + q'),
    # for s = 1 - q, ..., p - 1.  Each product forms where a node's value
    # did, so an overflow raises under the caller's errstate.
    coupled = np.zeros((p + q - 1, r.size), dtype=complex)
    for k in range(q):
        coupled[q - 1 - k : q - 1 - k + p] += a * b[k]
    coupled[q - 1 :] *= moments[:p]
    coupled[: q - 1] *= np.conj(moments[q - 1 : 0 : -1])
    coupled *= wr * r
    turns = np.sum(mu.weights * mu.points ** np.arange(1 - q, p)[:, None], axis=1)
    return complex(2.0 * np.sum(np.sum(coupled, axis=1) * turns))


@dataclass(frozen=True)
class TruncationWorkspace:
    """Finite section of the shift on D(mu) in an orthonormal basis.

    A function of ``(mu, N)`` alone: every other field is computed here,
    so ``dataclasses.replace(w, T=...)`` raises ``ValueError`` and
    ``dataclasses.replace(w, N=m)`` builds the workspace at size ``m``.

    With ``C* C = conj(G)``, ``G[m, n] = <z^m, z^n>`` the monomial Gram
    matrix, column ``m`` of the upper-triangular ``C`` holds the coordinates
    of ``z^m``, so ``T = [C[:, 1:], 0] C^-1`` maps ``z^N`` to 0.  By the
    local Dirichlet formula ``||z f||^2 = ||f||^2 + sum_j w_j |f(zeta_j)|^2``
    the section of ``M* M`` is ``I + F F*``, where column ``j`` of the
    ``N x k`` matrix ``F`` is ``sqrt(w_j)`` times the conjugated values of
    the orthonormal basis at ``zeta_j``.  ``T* T`` differs from it only in
    the last row and column ``d = T* T e - M* M e`` (``e`` the last basis
    vector), so ``I - T* T = -F F* - d e* - e d* + d_{N-1} e e*`` is
    factored from the ``k + 2`` columns ``[F, e, d]`` (:func:`_edge_form`).
    ``F`` is read off ``C^-1`` (:func:`_gram_factors`), then ``T`` over it.

    Attributes
    ----------
    mu : MeasureSpec
    N : int
        Truncation size, in ``8..MAX_TRUNC``.
    T : ndarray
        Matrix of multiplication by ``z`` in the orthonormalized basis
        (upper Hessenberg).
    margin : int
        Interior margin for edge-effect-free assertions.
    frame_factor : ndarray
        ``F``, from which :func:`cauchy_dual` solves by Woodbury on
        ``I_k + F* F`` and writes down the dual's first defect form with
        the edge column ``d``, kept beside it.
    shift_form : tuple of ndarray
        ``(W, H)`` with ``I - T* T = W H W*``, the order-1 defect form the
        shift's recursion starts from.
    norm_T : float
        Spectral norm of the truncated ``T``, recorded as the shift-norm
        bound: ``sqrt(max(1, 1 - lambda_min))`` with ``lambda_min`` the
        smallest eigenvalue of ``H`` in ``shift_form``, so no SVD runs.

    Raises
    ------
    ValidationError
        If ``N`` is outside ``8..MAX_TRUNC``.
    NotPSD
        If the Gram matrix fails the positive-definite factorization.
    SingularGram
        If a pivot of that factorization is within ``1e-10 * trace`` of 0.
    """

    mu: MeasureSpec
    N: int
    T: np.ndarray = field(init=False)
    margin: int = field(init=False)
    frame_factor: np.ndarray = field(init=False)
    shift_form: tuple = field(init=False)
    norm_T: float = field(init=False)
    _edge: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu, n = self.mu, self.N
        _check_size(n)
        c = gram_monomials(mu, n)
        trace = np.trace(c).real
        np.conjugate(c, out=c)
        t = np.zeros_like(c)
        _gram_factors(c, t, 0, n, trace)
        # t holds C^-1, then T over it; F = C^-* V and d take transposed views, not copies.
        vander = mu.points[None, :] ** np.arange(n)[:, None]
        f = np.conj(t.T @ (vander * np.sqrt(mu.weights)))
        _shift_over(c, t)
        # The last column of I + F F*, then d = T* T e - M* M e.
        col = f @ np.conj(f[-1])
        col[-1] += 1.0
        d = np.conj(t.T @ np.conj(t[:, -1])) - col
        form = _edge_form(f, -np.eye(mu.k), np.eye(n, 1, 1 - n), d, d[-1].real)
        # ||T||^2 = 1 - min eig(I - T*T), and at least 1: the shift is expansive.
        lowest = np.linalg.eigvalsh(form[1]).min(initial=1.0)
        values = {
            "T": t,
            "margin": max(_MIN_MARGIN, n // 8),
            "frame_factor": f,
            "shift_form": form,
            "norm_T": float(np.sqrt(max(1.0, 1.0 - lowest))),
            "_edge": d,
        }
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def mstar_m(self):
        """Exact ``N x N`` finite section ``I + F F*`` of ``M* M``, exactly
        Hermitian, formed on each read."""
        f = self.frame_factor
        section = f @ f.conj().T
        section += section.conj().T
        section *= 0.5
        section.flat[:: self.N + 1] += 1.0
        return section


def build_truncation(mu, n):
    """The :class:`TruncationWorkspace` of ``mu`` at size ``n >= 8``; it
    raises as the workspace does."""
    return TruncationWorkspace(mu, n)


def _gram_factors(a, c_inv, lo, hi, trace):
    """Upper Cholesky factor ``C`` of ``a[lo:hi, lo:hi]`` written over it,
    with ``C^-1`` into the zeroed ``c_inv``, in one recursive pass by 2 x 2
    blocks (Elmroth, Gustavson, Jonsson and Kagstrom, SIAM Review 46, 2004),
    split at the largest power-of-two multiple of ``_TRI_BLOCK`` below the
    size: ``C12 = C11^-* A12``, ``A22 -= C12* C12``,
    ``C^-1_12 = -C11^-1 C12 C22^-1`` (Du Croz and Higham, IMA J. Numer.
    Anal. 12, 1992); leaves take ``numpy.linalg.cholesky`` and ``inv``.
    Leading blocks are cut off at ``_TRI_BLOCK * 2**j`` rows at every size,
    so both come out bit for bit the same there at every size.  A pivot
    ``C_mm^2`` below ``-1e-10 * trace`` raises :class:`NotPSD`, one within
    it of 0 :class:`SingularGram`, naming ``m``.
    """
    if hi - lo <= _TRI_BLOCK:
        a[lo:hi, lo:hi] = _leaf_factor(a[lo:hi, lo:hi], lo, a.shape[0], trace)
        c_inv[lo:hi, lo:hi] = np.linalg.inv(a[lo:hi, lo:hi])
        return
    s = _TRI_BLOCK
    while 2 * s < hi - lo:
        s *= 2
    mid = lo + s
    _gram_factors(a, c_inv, lo, mid, trace)
    c12 = a[lo:mid, mid:hi]
    c12[...] = np.conj(c_inv[lo:mid, lo:mid].T @ np.conj(c12))
    a[mid:hi, lo:mid] = 0.0
    a[mid:hi, mid:hi] -= c12.conj().T @ c12
    _gram_factors(a, c_inv, mid, hi, trace)
    c_inv[lo:mid, mid:hi] = -(c_inv[lo:mid, lo:mid] @ c12) @ c_inv[mid:hi, mid:hi]


def _shift_over(c, x):
    """``T = [C[:, 1:], 0] C^-1`` written over ``x = C^-1`` by panels of
    ``_PANEL`` columns from column 0 at every size: column ``j`` of ``T``
    needs only ``C^-1[:j + 1, j]``, so ``T`` is upper Hessenberg."""
    for lo in range(0, len(x), _PANEL):
        hi = min(lo + _PANEL, len(x) - 1)
        x[: hi + 1, lo : lo + _PANEL] = c[: hi + 1, 1 : hi + 1] @ x[:hi, lo : lo + _PANEL]
    return x


def _leaf_factor(a, lo, n, trace):
    """Upper Cholesky factor of the leaf ``a`` (Gram rows ``lo..`` of
    ``n``), gated on its pivots.  Where LAPACK refuses ``a``, an unblocked
    walk finds the pivot that stopped it."""
    tol = 1e-10 * trace
    try:
        c = np.linalg.cholesky(a, upper=True)
        pivots = np.diag(c).real ** 2
    except np.linalg.LinAlgError:
        c, pivots, a = None, [], a.copy()
        for j in range(a.shape[0]):
            pivots.append(a[j, j].real)
            if not pivots[-1] > tol:
                break
            row = a[j, j + 1 :] / np.sqrt(pivots[-1])
            a[j + 1 :, j + 1 :] -= np.outer(row.conj(), row)
        pivots = np.array(pivots)
    j = np.argmin(pivots > tol)
    if c is not None and pivots[j] > tol:
        return c
    if pivots[j] < -tol:
        raise NotPSD(f"pivot {lo + j} is negative: {pivots[j]:.3e}")
    raise SingularGram(f"Gram pivot {lo + j} of {n} is within 1e-10 * trace {trace:.3e} of 0")


def _compress(q, core):
    """``Q core Q*`` as ``(W, H)`` with ``W`` orthonormal, dropping the
    eigenpairs of ``core`` at the round-off floor.

    ``H`` is the kept eigenvectors' projection ``V* core V``, not their
    eigenvalues: ``eigh``'s normwise error would put round-off of the
    form's largest (truncation-edge) eigenvalues into its small interior
    ones, and the projection is exact to second order in that error.
    """
    core = (core + core.conj().T) / 2
    vals, vecs = np.linalg.eigh(core)
    floor = np.finfo(float).eps * vals.size * np.max(np.abs(vals), initial=0.0)
    v = vecs[:, np.abs(vals) > floor]
    h = v.conj().T @ core @ v
    return q @ v, (h + h.conj().T) / 2


def _edge_form(f, core, v, u, corner):
    """``F core F* - u v* - v u* + corner v v*`` as ``(W, H)``, from a QR
    of the ``k + 2`` columns ``[F, v, u]`` and the core
    ``blockdiag(core, [[corner, -1], [-1, 0]])``."""
    k = f.shape[1]
    q, r = np.linalg.qr(np.column_stack((f, v, u)))
    full = np.zeros((k + 2, k + 2), dtype=core.dtype)
    full[:k, :k] = core
    full[k:, k:] = [[corner, -1.0], [-1.0, 0.0]]
    return _compress(q, r @ full @ r.conj().T)


def _first_form(x):
    """``B_1 = I - X* X`` of a bare matrix ``X`` as ``(W, H)``, by ``eigh``
    of the whole form: exact, at ``O(N^3)``."""
    b = x.conj().T @ x
    np.negative(b, out=b)
    b.flat[:: b.shape[0] + 1] += 1.0
    return _compress(np.eye(b.shape[0]), b)


def _defect_factors(x, nmax, first=None):
    """Yield ``(W_n, H_n)`` with ``B_n = W_n H_n W_n*`` for n = 1..nmax.

    The walk starts from ``first``, the caller's factor of ``B_1``, or else
    from :func:`_first_form` of ``X``; ``Q`` is freed before the next QR.

    ``B_n = sum_j (-1)^j binom(n, j) (X^j)* X^j`` is Agler's identity
    ``B_n = (1 - L)^n I`` with ``L(Y) = X* Y X``, walked as
    ``B_n = B_{n-1} - X* B_{n-1} X``.  On factors that step is
    ``[W, X* W] diag(H, -H) [W, X* W]*``: with ``[W, X* W] = Q [R_1, R_2]``
    the core is ``R_1 H R_1* - R_2 H R_2*``, at ``O(N^2 r)`` per order.
    """
    if nmax < 1:
        return
    w, h = _first_form(x) if first is None else first
    yield w, h
    for _ in range(nmax - 1):
        q, r = np.linalg.qr(np.hstack((w, np.conj(x.T @ np.conj(w)))))
        r1, r2 = r[:, : h.shape[0]], r[:, h.shape[0] :]
        w, h = _compress(q, r1 @ h @ r1.conj().T - r2 @ h @ r2.conj().T)
        del q
        yield w, h


def _check_size(n):
    """Raise :class:`ValidationError` unless the truncation size ``n`` is in 8..MAX_TRUNC."""
    if n < 8:
        raise ValidationError(f"truncation size must be at least 8, got {n}")
    if n > MAX_TRUNC:
        raise ValidationError(f"truncation size {n} is above the cap {MAX_TRUNC}")


def _check_order(n, orders, kind):
    """Raise :class:`ValidationError` unless the order ``n`` is in ``orders``."""
    if n not in orders:
        raise ValidationError(f"{kind} order must be in {orders[0]}..{orders[-1]}")


def _keep(size, n, margin, orders, kind):
    """Interior size for the order-``n`` form; ``n`` must be in ``orders``."""
    _check_order(n, orders, kind)
    keep = size - margin - n
    if keep < _MIN_KEEP:
        raise ValidationError(
            f"truncation size {size} with margin {margin} leaves {keep} interior "
            f"rows for order {n}, fewer than {_MIN_KEEP}"
        )
    return keep


def _check_oracle_size(size, nmax):
    """Raise :class:`ValidationError` unless every order of an oracle run at
    ``size``, the shift's ``SHIFT_ORDERS`` and the dual's ``1..nmax``, keeps
    ``_MIN_KEEP`` interior rows.  The floor is below 40, where the margin is
    ``_MIN_MARGIN``, so it is ``max(10, nmax + 6)``."""
    floor = _MIN_MARGIN + _MIN_KEEP + max(SHIFT_ORDERS[-1], nmax)
    if size < floor:
        raise ValidationError(
            f"truncation size {size} is below {floor} = max(10, nmax + 6) for nmax {nmax}"
        )


def _extreme(w, h, keep, lowest):
    """Smallest (``lowest``) or largest eigenvalue of the interior block
    ``B[:keep, :keep]`` of ``B = W H W*``.

    With ``W[:keep] = Q R`` the block is ``Q (R H R*) Q*``, so its
    spectrum is that of the small core, joined by 0 when ``keep`` exceeds
    the factor's width.
    """
    r = np.linalg.qr(w[:keep], mode="r")
    vals = np.linalg.eigvalsh(r @ h @ r.conj().T)
    if keep > h.shape[0]:
        vals = np.append(vals, 0.0)
    return float(vals.min() if lowest else vals.max())


def _agler_curve(tp, orders, margin, first=None):
    """``{n: agler_min_eig(tp, n, margin)}`` for each order in ``orders``,
    all validated before one recursion pass reads them; ``first`` is the
    factor of ``B_1`` when the caller has it."""
    keeps = {n: _keep(tp.shape[0], n, margin, AGLER_ORDERS, "defect") for n in orders}
    return {
        n: _extreme(w, h, keeps[n], lowest=True)
        for n, (w, h) in enumerate(_defect_factors(tp, max(keeps, default=0), first), 1)
        if n in keeps
    }


def _shift_curve(w, orders):
    """2-isometry defect and ``{n: hyperexpansivity_max_eig(w, n)}`` for
    each order in ``orders``, all validated before one recursion pass."""
    keeps = {n: _keep(w.N, n, w.margin, HYPER_ORDERS, "hyperexpansivity") for n in orders}
    m = w.N - w.margin
    hyper = {}
    for n, (f, h) in enumerate(_defect_factors(w.T, max([2, *keeps]), w.shift_form), 1):
        if n == 2:
            fh, fc = f[:m] @ h, f[:m].conj().T
            defect = float(max(np.abs(fh[s : s + _PANEL] @ fc).max() for s in range(0, m, _PANEL)))
        if n in keeps:
            hyper[n] = _extreme(f, h, keeps[n], lowest=False)
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
    """Cauchy dual, the interior norm its contraction gate read, and the
    factor of its first defect form.

    With the workspace's ``frame_factor`` ``F`` the dual is
    ``D = T - (T F) Y`` with ``Y = S^-1 F*`` and ``S = I_k + F* F``
    (Woodbury), at ``O(N^2 k)``.  With ``S^-1 = I_k - Y F``, the edge
    column ``d`` and ``u = d - F Y d``, ``v = e - F Y e``, the first form
    is ``I - D* D = F (I_k - Y F) F* - u v* - v u* + d_{N-1} v v*``, from
    the same ``k + 2`` columns as the shift's.  The gate reads the norm
    of ``D[:keep, :keep]`` off that factor (:func:`_interior_norm`).
    """
    f, d = w.frame_factor, w._edge
    eye = np.eye(f.shape[1])
    y = np.linalg.solve(eye + f.conj().T @ f, f.conj().T)
    tf = w.T @ f
    dual = tf @ y
    np.subtract(w.T, dual, out=dual)
    v = -(f @ y[:, -1])
    v[-1] += 1.0
    first = _edge_form(f, eye - y @ f, v, d - f @ (y @ d), d[-1].real)
    nrm = _interior_norm(w, tf, y, first)
    if nrm > 1.0 + 1e-6:
        raise NonConvergence(f"Cauchy dual interior norm {nrm:.9f} exceeds 1 + 1e-6")
    return dual, nrm, first


def _interior_norm(w, tf, y, first):
    """Spectral norm of the dual's interior block ``D_k = D[:keep, :keep]``.

    With ``E = D[keep:, :keep]``, ``I - D_k* D_k = (I - D* D)[:keep, :keep]
    + E* E``.  ``T`` is upper Hessenberg, so ``E = U V*`` with
    ``U = [-(T F)[keep:], T[keep, keep-1] e_0]`` and
    ``V = [Y[:, :keep]*, e_{keep-1}]``, ``k + 1`` columns each, and the
    norm is ``sqrt(1 - lambda)`` for ``lambda`` the smallest eigenvalue of
    ``[W[:keep], V] blockdiag(H, U* U) [W[:keep], V]*`` by :func:`_extreme`,
    which joins 0 only when ``keep`` exceeds the factor's width.
    """
    (wf, h), keep = first, w.N - w.margin
    u = np.column_stack((-tf[keep:], w.T[keep, keep - 1] * np.eye(w.margin, 1)))
    v = np.column_stack((y[:, :keep].conj().T, np.eye(keep, 1, 1 - keep)))
    gap = np.zeros((h.shape[0], u.shape[1]))
    core = np.block([[h, gap], [gap.T, u.conj().T @ u]])
    lowest = _extreme(np.hstack((wf[:keep], v)), core, keep, lowest=True)
    return float(np.sqrt(max(0.0, 1.0 - lowest)))


def cauchy_dual(w):
    """Cauchy dual ``T' = T (M*M)^{-1}`` on the truncation.

    Uses the exact finite section ``I + F F*`` of the frame operator
    rather than ``T* T`` of the compressed matrix; the compression has a
    dead final column, so its own ``T* T`` is singular by construction
    and would poison the inverse.  The Woodbury identity gives
    ``T' = T - (T F)(I_k + F* F)^-1 F*``, one ``k x k`` solve at
    ``O(N^2 k)``; ``I_k + F* F`` has every eigenvalue at least 1, so the
    solve is always well posed.

    Parameters
    ----------
    w : TruncationWorkspace

    Returns
    -------
    ndarray
        The ``N x N`` matrix of the Cauchy dual.

    Raises
    ------
    NonConvergence
        If the interior operator norm exceeds the contraction gate
        ``1 + 1e-6`` (the Cauchy dual of a 2-isometry is a contraction).
        The norm is read off factors (:func:`_interior_norm`), not an SVD.
    """
    return _gated_dual(w)[0]


def agler_min_eig(tp, n, margin):
    """Minimum interior eigenvalue of the order-``n`` moment defect form.

    For a subnormal contraction the form is positive semidefinite at
    every order.  The value carries the truncation's error and round-off,
    so where the exact form is 0 it reads as small numbers of either
    sign.  The interior block shrinks by ``n`` extra rows because an
    ``n``-fold product of the truncated matrix corrupts entries within
    ``n`` of the edge.  The form is ``B_n`` of the defect recursion.

    A bare matrix has no frame to write ``B_1`` down from, so its factor
    comes from ``eigh`` of the whole ``B_1``, the one ``N x N``
    eigendecomposition (the report's oracle starts from the dual's
    written-down form); :func:`_extreme` reads the value off the factor.

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

    The recursion starts from the workspace's ``shift_form``, and
    :func:`_extreme` reads the value off the factor.

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
    """Oracle figures at one size: the shift's pass (orders 1..4), run before
    the dual exists, then the dual's pass (``1..nmax``) and its gate norm."""
    defect, hyper = _shift_curve(w, SHIFT_ORDERS)
    dual, dual_norm, first = _gated_dual(w)
    agler = _agler_curve(dual, range(1, nmax + 1), w.margin, first)
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
    coupling_det : complex or None
        Two-atom coupling determinant ``sum_{r,t} W_rt * (1 - 1/(alpha_r
        conj(alpha_t)))**2 / (alpha_r**2 conj(alpha_t)**2 (alpha_r -
        alpha_{3-r}) conj(alpha_t - alpha_{3-t}))`` with ``W_rt = sum_j
        p_j(alpha_r) conj(p_j(alpha_t))`` in the canonical frame, a
        diagnostic to which no verdict semantics attach (None when not
        computed).
    citations : tuple of str
        Human-readable statements backing the verdict.
    """

    verdict: str
    s_offdiag: complex | None
    root_products: tuple
    coupling_det: complex | None
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


def _frame_scalars(mu, analysis):
    """Overlap sum, root products, threshold scale and coupling determinant
    of a two-atom ``mu`` in the canonical frame, read off ``analysis``, the
    ``(model, ident)`` of ``mu`` itself, from one evaluation of the ``p_j``.

    With ``rho = conj(zeta_1) / |zeta_1|`` the frame's outer roots are
    ``rho`` times those of ``mu``, sorted into root order, and its
    polynomials are ``conj(rho)**(j+1) * p_j(rho z)``; ``V[r, j] =
    p_j(rho * alpha_r)`` drops only those unimodular factors, so the
    frame's overlaps ``W_rt = sum_j p_j(alpha_r) conj(p_j(alpha_t))`` are
    ``V[r] @ conj(V[t])``.
    """
    model, ident = analysis
    rho = np.conj(mu.points[0]) / abs(mu.points[0])
    alpha = _sort_roots(rho * model.fact.outer_roots)
    vals = np.array([[poly_eval(pj, rho * a) for pj in ident.p_polys] for a in alpha])
    overlap = [[complex(vals[r] @ np.conj(vals[t])) for t in range(2)] for r in range(2)]
    products = (
        complex(alpha[0] * np.conj(alpha[1])),
        complex(alpha[1] * np.conj(alpha[0])),
    )
    scale = float(np.max(np.abs(vals[0] * vals[1])))
    total = 0j
    for r in range(2):
        for t in range(2):
            dr = alpha[r] - alpha[1 - r]
            dt = alpha[t] - alpha[1 - t]
            total += (
                overlap[r][t]
                * (1.0 - 1.0 / (alpha[r] * np.conj(alpha[t]))) ** 2
                / (alpha[r] ** 2 * np.conj(alpha[t]) ** 2 * dr * np.conj(dt))
            )
    return complex(overlap[0][1] + np.conj(overlap[0][1])), products, scale, complex(total)


def _in_ray(product):
    """Membership test for the ray [1, oo) with a conservative band."""
    return abs(product.imag) <= 1e-10 and product.real >= 1.0 - 1e-10


def closed_form_test(mu, analysis=None):
    """Closed-form subnormality verdict for the Cauchy dual of the shift.

    One atom and two antipodal atoms are the known subnormal cases.  For
    two generic atoms, a nonzero overlap sum combined with every
    outer-root product avoiding ``[1, oo)`` certifies non-subnormality;
    anything else is inconclusive.  More than two atoms is inconclusive
    (the operator oracle still runs for them).

    Parameters
    ----------
    mu : MeasureSpec
    analysis : tuple, optional
        ``(model, ident)`` of ``mu`` from :func:`build_model` and
        :func:`build_identification`; built here when None.

    Returns
    -------
    CdspVerdict
    """
    if mu.k != 2:
        if mu.k == 1:
            return CdspVerdict("KnownSubnormal", None, (), None, (CITE_SINGLE_ATOM,))
        return CdspVerdict("Inconclusive", None, (), None, (CITE_K_RANGE,))
    antipodal = abs(mu.points[0] + mu.points[1]) <= 1e-9
    try:
        if analysis is None:
            model = build_model(mu)
            analysis = model, build_identification(model)
        s_offdiag, products, scale, coupling = _frame_scalars(mu, analysis)
    except ToolkitError:
        if not antipodal:
            raise
        return CdspVerdict("KnownSubnormal", None, (), None, (CITE_ANTIPODAL,))
    if antipodal:
        return CdspVerdict("KnownSubnormal", s_offdiag, products, coupling, (CITE_ANTIPODAL,))
    nonzero = abs(s_offdiag) > 1e-8 * scale
    off_ray = all(not _in_ray(rp) for rp in products)
    if nonzero and off_ray:
        cites = (CITE_NOT_SUBNORMAL_OVERLAP, CITE_NOT_SUBNORMAL_RAY)
        return CdspVerdict("NotSubnormal", s_offdiag, products, coupling, cites)
    return CdspVerdict("Inconclusive", s_offdiag, products, coupling, (CITE_INCONCLUSIVE,))


@dataclass(frozen=True)
class SweepRow:
    """One angle of a verdict sweep.

    Attributes
    ----------
    theta_deg : float
        Angle between the two atoms, in degrees.
    verdict : CdspVerdict or None
        None when the row errored.
    error : str or None
        Error class name when the row failed.
    """

    theta_deg: float
    verdict: CdspVerdict | None
    error: str | None


def sweep_angle(theta_grid, weights=(1.0, 1.0)):
    """Run the closed-form verdict over a grid of atom separations.

    Each angle theta places atoms at ``1`` and ``exp(i theta pi / 180)``
    with the given weights.  Errors are captured per row and do not abort
    the sweep.  Output order follows input order.

    Parameters
    ----------
    theta_grid : sequence of float
        Angles in degrees, each in ``(0, 180]``.
    weights : pair of float, optional

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
            rows.append(SweepRow(theta_deg=theta, verdict=closed_form_test(mu), error=None))
        except ToolkitError as exc:
            rows.append(SweepRow(theta_deg=theta, verdict=None, error=type(exc).__name__))
    return rows
