"""Finite-section shift, Cauchy dual, and defect-form diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from cauchydual import (
    NonConvergence,
    ValidationError,
    agler_min_eig,
    build_report,
    build_truncation,
    cauchy_dual,
    gram_monomials,
    hyperexpansivity_max_eig,
    make_measure,
    parse_measure,
    two_isometry_defect,
)
from cauchydual import cdsp
from cauchydual.cdsp import _defect_factors, _extreme, _gated_dual, _oracle_run
from cauchydual.debranges import cholesky_upper

AGLER_N6_CANONICAL = -1.203254e-02


def test_truncation_shape_and_margin(canonical_mu):
    w = build_truncation(canonical_mu, 48)
    assert w.T.shape == (48, 48)
    assert w.margin == 6
    assert build_truncation(canonical_mu, 24).margin == 4


def test_truncation_size_validation(canonical_mu):
    with pytest.raises(ValidationError, match=r"^truncation size must be at least 8, got 7$"):
        build_truncation(canonical_mu, 7)
    with pytest.raises(ValidationError, match=r"^truncation size 4097 is above the cap 4096$"):
        build_truncation(canonical_mu, cdsp.MAX_TRUNC + 1)


def test_shift_is_upper_hessenberg(property_measures):
    for mu in property_measures:
        t = build_truncation(mu, 24).T
        below = np.tril(t, -2)
        assert np.max(np.abs(below)) == 0.0


def test_shift_is_expansive_on_columns(canonical_mu):
    # ||T e_j|| >= 1 off the dead last column: the shift never shrinks.
    w = build_truncation(canonical_mu, 32)
    norms = np.linalg.norm(w.T, axis=0)
    assert np.min(norms[: w.N - w.margin]) >= 1.0 - 1e-12


def _onb_factor(mu, n):
    """The upper-triangular ``C`` with ``C* C = conj(gram)`` that the
    workspace factors and drops: the same deterministic call, same bits."""
    return cholesky_upper(np.conj(gram_monomials(mu, n)))


def test_gram_factor_is_upper_triangular_and_reproduces_gram(property_measures):
    for mu in property_measures:
        gram = gram_monomials(mu, 16)
        c = _onb_factor(mu, 16)
        assert np.max(np.abs(np.tril(c, -1))) == 0.0
        err = np.max(np.abs(c.conj().T @ c - np.conj(gram)))
        assert err <= 1e-10


def test_frame_section_matches_interior_tstar_t(property_measures):
    # mstar_m is the exact section of M*M; it must agree with T*T of the
    # compressed matrix away from the dead edge.
    for mu in property_measures:
        w = build_truncation(mu, 24)
        keep = w.N - w.margin
        diff = w.T.conj().T @ w.T - w.mstar_m
        assert np.max(np.abs(diff[:keep, :keep])) <= 1e-12


def test_frame_section_matches_the_two_product_reference(seeded_measure):
    # The bordered product Y* Y against inv(c)* conj(G') inv(c) with G' the
    # shifted block of the size N+1 Gram matrix.  The reference also
    # carries the Cholesky backward error inv(c)* (C* C - conj G) inv(c),
    # which grows with N (measured up to 1.3e-13 * max|M| at N=384), so the
    # bound is N * 1e-15 * max|M|.
    rng = np.random.default_rng(96)
    for size in (48, 96, 384):
        for k in range(1, 9):
            w = build_truncation(seeded_measure(rng, k), size)
            c_inv = np.linalg.inv(_onb_factor(w.mu, size))
            shifted = np.conj(gram_monomials(w.mu, size + 1)[1:, 1:])
            ref = c_inv.conj().T @ shifted @ c_inv
            m = w.mstar_m
            assert np.max(np.abs(m - ref)) <= size * 1e-15 * np.max(np.abs(ref))
            assert np.array_equal(m, m.conj().T)


def test_cauchy_dual_matches_the_inverse(property_measures, seeded_measure):
    rng = np.random.default_rng(97)
    cases = [(mu, 48) for mu in property_measures]
    cases += [(seeded_measure(rng, k), 384) for k in (1, 4, 8)]
    for mu, size in cases:
        w = build_truncation(mu, size)
        ref = w.T @ np.linalg.inv(w.mstar_m)
        assert np.max(np.abs(cauchy_dual(w) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_woodbury_dual_matches_the_dense_inverse(seeded_measure):
    # The built workspace carries F, so the dual is T - (T F)(I_k + F* F)^-1 F*.
    rng = np.random.default_rng(99)
    for size in (48, 96, 384):
        for k in range(1, 9):
            w = build_truncation(seeded_measure(rng, k), size)
            assert w.frame_factor.shape == (size, k)
            ref = w.T @ np.linalg.inv(w.mstar_m)
            assert np.max(np.abs(cauchy_dual(w) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_replace_rebuilds_from_mu_and_size_only(canonical_mu):
    # Every field but mu and N is computed, so it cannot be replaced and
    # never goes stale; a new size builds the workspace at that size.
    w = build_truncation(canonical_mu, 48)
    for name, value in (("T", 0.5 * w.T), ("frame_factor", 2.0 * w.frame_factor)):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(w, **{name: value})
    resized = dataclasses.replace(w, N=96)
    assert np.array_equal(resized.T, build_truncation(canonical_mu, 96).T)


def test_T_is_the_only_full_size_field(canonical_mu):
    # Neither the Gram matrix nor its factor outlives construction.
    w = build_truncation(canonical_mu, 48)
    full = []
    for f in dataclasses.fields(w):
        value = getattr(w, f.name)
        parts = value if isinstance(value, tuple) else (value,)
        if any(np.shape(part) == (48, 48) for part in parts):
            full.append(f.name)
    assert full == ["T"]


def test_truncation_and_oracle_invert_only_diagonal_blocks(monkeypatch, canonical_mu):
    # The Gram factor is inverted by blocks: every inverse is of a
    # diagonal block of at most _TRI_BLOCK rows, in order down the
    # diagonal.  The dual solves only against I_k + F* F, and no first
    # form is dense: the shift's and the dual's both come from F and two
    # edge columns.
    invs, solves, forms = [], [], []
    inv, solve, first_form = np.linalg.inv, np.linalg.solve, cdsp._first_form

    def counted_inv(a, *args, **kwargs):
        invs.append(np.array(a))
        return inv(a, *args, **kwargs)

    def counted_solve(a, b, *args, **kwargs):
        solves.append(np.shape(a))
        return solve(a, b, *args, **kwargs)

    def counted_form(b):
        forms.append(b)
        return first_form(b)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(cdsp, "_first_form", counted_form)
    w = build_truncation(canonical_mu, 384)
    assert forms == []
    _oracle_run(w, 6)
    c = _onb_factor(canonical_mu, 384)
    start = 0
    for block in invs:
        size = block.shape[0]
        assert block.shape == (size, size) and size <= cdsp._TRI_BLOCK
        assert np.array_equal(block, c[start : start + size, start : start + size])
        start += size
    assert start == 384
    assert solves == [(2, 2)]
    assert forms == []


@pytest.mark.parametrize("size", [8, 31, 33, 48, 80, 130, 384])
def test_upper_inverse_residual_matches_numpy(seeded_measure, size):
    # ||X c - I||_F of the block inverse is at most twice numpy.linalg.inv's,
    # on Gram factors and on random triangular matrices, and X is upper
    # triangular.
    rng = np.random.default_rng([100, size])
    factors = [_onb_factor(seeded_measure(rng, k), size) for k in (1, 2, 5, 8)]
    for _ in range(4):
        c = np.triu(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        c /= np.sqrt(size)
        c[np.diag_indices(size)] = rng.uniform(1.0, 2.0, size) * np.exp(
            2j * np.pi * rng.uniform(size=size)
        )
        factors.append(c)
    eye = np.eye(size)
    for c in factors:
        x = cdsp._upper_inverse(c)
        assert np.max(np.abs(np.tril(x, -1))) == 0.0
        ref = np.linalg.norm(np.linalg.inv(c) @ c - eye)
        assert np.linalg.norm(x @ c - eye) <= 2.0 * ref


def test_upper_inverse_leading_blocks_match_across_sizes(canonical_mu):
    # The splits sit at power-of-two multiples of _TRI_BLOCK at every size,
    # so the leading 40 x 40 block of the inverse is the same bits at each.
    c = _onb_factor(canonical_mu, 384)
    lead = cdsp._upper_inverse(c[:40, :40])
    for size in (64, 100, 200, 384):
        assert np.array_equal(cdsp._upper_inverse(c[:size, :size])[:40, :40], lead)


def test_shift_form_and_frame_section_have_rank_k_structure(seeded_measure):
    # M*M = I + F F* with F of width k, and I - T*T adds only the two
    # edge columns e and d: the factor is at most k + 2 wide.  The dual's
    # I - D*D is written down from F and two moved edge columns u, v.
    rng = np.random.default_rng(98)
    for size in (48, 96, 384):
        for k in range(1, 9):
            w = build_truncation(seeded_measure(rng, k), size)
            dual, _, dual_form = _gated_dual(w)
            for x, (f, h) in ((w.T, w.shift_form), (dual, dual_form)):
                assert f.shape[1] == h.shape[0] <= k + 2
                dense = np.eye(size) - x.conj().T @ x
                err = np.max(np.abs(f @ h @ f.conj().T - dense))
                assert err <= 1e-13 * max(1.0, np.max(np.abs(dense)))
            ones = np.abs(np.linalg.eigvalsh(w.mstar_m) - 1.0) <= 1e-12
            assert np.count_nonzero(ones) == size - k


def test_known_zero_forms_stay_at_the_noise_floor():
    # At N=384 the forms that vanish or are nonnegative in exact arithmetic
    # read only round-off: the dual's Agler forms of known-subnormal
    # measures at orders 1-4, and the shift's hyperexpansivity forms at
    # orders 2-4 (zero interior for a 2-isometry).
    for text in ("1", "1:w=3", "1;-1"):
        w = build_truncation(parse_measure(text), 384)
        dual = cauchy_dual(w)
        assert min(agler_min_eig(dual, n, w.margin) for n in range(1, 5)) >= -1e-11
    for text in ("1;i", "deg:0;deg:120;deg:240", "deg:10;deg:100;deg:190;deg:280"):
        w = build_truncation(parse_measure(text), 384)
        assert max(hyperexpansivity_max_eig(w, n) for n in range(2, 5)) <= 3e-12


def test_norm_T_is_the_spectral_norm(seeded_measure):
    # norm_T is read off the written-down first form, with no SVD.
    rng = np.random.default_rng(90)
    for size in (24, 48, 96):
        for k in range(1, 9):
            w = build_truncation(seeded_measure(rng, k), size)
            ref = np.linalg.norm(w.T, 2)
            assert abs(w.norm_T - ref) <= 1e-12 * ref


def test_dual_interior_norm_is_the_spectral_norm(monkeypatch, seeded_measure):
    # The contraction gate reads the norm of D[:keep, :keep] off the
    # dual's first form and a rank-(k + 1) edge block, with no SVD.  Its
    # reading, taken before the gate raises, matches the SVD within 1e-11
    # relative (measured up to 3.3e-12 at N=384), and the gate trips on
    # the same inputs as the SVD would.  At N=8 keep = 4 is no wider than
    # the factor, so no unit singular value is joined and norms below 1
    # read as they are.
    readings = []
    interior_norm = cdsp._interior_norm

    def recorded(*args):
        readings.append(interior_norm(*args))
        return readings[-1]

    monkeypatch.setattr(cdsp, "_interior_norm", recorded)
    rng = np.random.default_rng(92)
    trips, small = 0, []
    for size in (8, 24, 48, 96, 384):
        for k in range(1, 9):
            benign = seeded_measure(rng, k)
            wide = make_measure(
                list(benign.points), list(np.exp(rng.uniform(np.log(1e-3), np.log(1e3), k)))
            )
            for mu in (benign, wide):
                w = build_truncation(mu, size)
                f = w.frame_factor
                y = np.linalg.solve(np.eye(k) + f.conj().T @ f, f.conj().T)
                keep = size - w.margin
                ref = np.linalg.norm((w.T - (w.T @ f) @ y)[:keep, :keep], 2)
                try:
                    _gated_dual(w)
                    tripped = False
                except NonConvergence:
                    tripped = True
                got = readings[-1]
                assert abs(got - ref) <= 1e-11 * ref
                assert tripped == (ref > 1.0 + 1e-6)
                trips += tripped
                if size == 8:
                    small.append(got)
    assert 0 < trips < len(readings) == 80
    assert min(small) < 0.95
    with pytest.raises(NonConvergence, match=r"norm 1\.000002282 exceeds 1 \+ 1e-6$"):
        _gated_dual(build_truncation(parse_measure("deg:0;deg:15"), 48))


def test_leading_blocks_stabilize(canonical_mu):
    # Upper Cholesky of a leading principal submatrix is the leading
    # block of the factor, so T's leading block is size-independent; the
    # Cauchy dual inherits the stability up to round-off.
    t48 = build_truncation(canonical_mu, 48)
    t96 = build_truncation(canonical_mu, 96)
    assert np.max(np.abs(t48.T[:24, :24] - t96.T[:24, :24])) == 0.0
    d48 = cauchy_dual(t48)
    d96 = cauchy_dual(t96)
    assert np.max(np.abs(d48[:24, :24] - d96[:24, :24])) <= 1e-12


def test_two_isometry_defect_canonical_measures(property_measures):
    for mu in property_measures[:3]:
        w = build_truncation(mu, 64)
        assert two_isometry_defect(w) < 1e-8


def test_two_isometry_defect_detects_violation(canonical_mu):
    # B_2 of a perturbed bare matrix has interior entries far from 0.
    w = build_truncation(canonical_mu, 24)
    bad = w.T.copy()
    bad[0, 0] += 0.25
    m = w.N - w.margin
    f, h = list(_defect_factors(bad, 2))[1]
    assert np.max(np.abs(f[:m] @ h @ f[:m].conj().T)) > 1e-3


def test_cauchy_dual_is_interior_contraction(property_measures):
    for mu in property_measures[:3]:
        w = build_truncation(mu, 64)
        dual = cauchy_dual(w)
        keep = w.N - w.margin
        nrm = np.linalg.norm(dual[:keep, :keep], 2)
        assert nrm <= 1.0 + 1e-6


def test_cauchy_dual_near_merged_atoms_raises():
    # Nearly coincident atoms push the interior norm over the
    # contraction gate at small sizes; the failure must be loud.
    mu = make_measure(
        [np.exp(0.0j), np.exp(0.26179938779914944j)], [1.0, 1.0]
    )
    with pytest.raises(NonConvergence):
        cauchy_dual(build_truncation(mu, 48))


def test_cauchy_dual_near_merged_atoms_recovers():
    mu = make_measure(
        [np.exp(0.0j), np.exp(0.26179938779914944j)], [1.0, 1.0]
    )
    dual = cauchy_dual(build_truncation(mu, 96))
    assert dual.shape == (96, 96)


def test_isometry_degeneration():
    # Vanishing mass turns D(mu) into H^2, where the shift is an
    # isometry and the dual coincides with it on the interior.
    mu = make_measure([1.0 + 0.0j], [1e-12])
    w = build_truncation(mu, 32)
    dual = cauchy_dual(w)
    keep = w.N - w.margin
    assert np.max(np.abs(dual[:keep, :keep] - w.T[:keep, :keep])) <= 1e-10


def test_agler_positive_for_known_subnormal():
    for mu in (
        make_measure([1.0 + 0.0j], [1.0]),
        make_measure([1.0 + 0.0j, -1.0 + 0.0j], [1.0, 1.0]),
    ):
        w = build_truncation(mu, 64)
        dual = cauchy_dual(w)
        for n in range(1, 5):
            assert agler_min_eig(dual, n, w.margin) >= -1e-6


def test_agler_negative_for_counterexample(canonical_mu):
    w = build_truncation(canonical_mu, 64)
    dual = cauchy_dual(w)
    got = agler_min_eig(dual, 6, w.margin)
    assert abs(got - AGLER_N6_CANONICAL) <= 1e-3 * abs(AGLER_N6_CANONICAL)


def test_agler_stable_across_truncation(canonical_mu):
    vals = []
    for size in (48, 64, 96):
        w = build_truncation(canonical_mu, size)
        vals.append(agler_min_eig(cauchy_dual(w), 6, w.margin))
    spread = max(vals) - min(vals)
    assert spread <= 0.10 * max(abs(v) for v in vals)


def test_agler_order_validation(canonical_mu):
    w = build_truncation(canonical_mu, 48)
    dual = cauchy_dual(w)
    with pytest.raises(ValidationError):
        agler_min_eig(dual, 0, w.margin)
    with pytest.raises(ValidationError):
        agler_min_eig(dual, 11, w.margin)
    with pytest.raises(
        ValidationError,
        match=r"^truncation size 8 with margin 4 leaves 1 interior rows for order 3, fewer than 2$",
    ):
        agler_min_eig(dual[:8, :8], 3, 4)


def test_hyperexpansivity_canonical(property_measures):
    for mu in property_measures[:3]:
        w = build_truncation(mu, 64)
        for n in range(2, 5):
            assert hyperexpansivity_max_eig(w, n) <= 1e-6


def test_hyperexpansivity_order_validation(canonical_mu):
    w = build_truncation(canonical_mu, 48)
    with pytest.raises(ValidationError):
        hyperexpansivity_max_eig(w, 1)
    with pytest.raises(ValidationError):
        hyperexpansivity_max_eig(w, 7)


def test_shift_norm_bounded(property_measures):
    # The shift on D(mu) is expansive but bounded; the recorded norm of
    # the section must sit in a sane window and grow with the size.
    for mu in property_measures:
        w48 = build_truncation(mu, 48)
        w96 = build_truncation(mu, 96)
        assert 1.0 <= w48.norm_T <= 6.0
        assert w96.norm_T >= w48.norm_T - 1e-9


def _binomial_defect_forms(t, nmax):
    """Reference: ``[sum_j (-1)^j binom(n, j) (T^j)* T^j for n = 1..nmax]``
    from one set of powers."""
    grams, power = [], np.eye(t.shape[0], dtype=complex)
    for _ in range(nmax + 1):
        grams.append(power.conj().T @ power)
        power = t @ power
    return [
        sum((-1) ** j * math.comb(n, j) * grams[j] for j in range(n + 1))
        for n in range(1, nmax + 1)
    ]


def _assembled(factors):
    """The forms ``W H W*`` of a sequence of factors."""
    return [w @ h @ w.conj().T for w, h in factors]


def test_defect_recursion_matches_binomial_sum(property_measures):
    # The recursion B_n = B_{n-1} - T* B_{n-1} T is an exact identity on
    # any square matrix, so its assembled factors must match the binomial
    # sum on the whole section, edge included, up to round-off of the
    # sum's largest term.
    for mu in property_measures:
        w = build_truncation(mu, 96)
        for t, orders in ((cauchy_dual(w), range(1, 7)), (w.T, range(2, 5))):
            forms = _assembled(_defect_factors(t, max(orders)))
            assert len(forms) == max(orders)
            dense = _binomial_defect_forms(t, max(orders))
            scale = max(1.0, np.linalg.norm(t, 2))
            for n in orders:
                err = np.max(np.abs(forms[n - 1] - dense[n - 1]))
                assert err <= 1e-14 * scale ** (2 * n)
    assert list(_defect_factors(w.T, 0)) == []


def test_report_oracle_equals_public_functions(property_measures):
    # The report writes the dual's first form down from the frame, and the
    # bare-matrix agler_min_eig takes eigh of it: two exact factorizations,
    # equal within the bound of test_oracle_figures_match_the_dense_recursion.
    for mu in property_measures[1:3]:
        doc = build_report(mu, trunc=48, nmax=6)
        for run in doc["oracle"]["runs"]:
            w = build_truncation(mu, run["N"])
            dual, gate_norm, _ = _gated_dual(w)
            assert run["cauchy_dual_interior_norm"] == gate_norm
            assert run["two_isometry_defect"] == two_isometry_defect(w)
            assert list(run["agler_min_eig"]) == [str(n) for n in range(1, 7)]
            for n in range(1, 7):
                got, ref = run["agler_min_eig"][str(n)], agler_min_eig(dual, n, w.margin)
                assert abs(got - ref) <= 1e-10 * (abs(ref) if abs(ref) > 1e-6 else 1.0)
            assert run["hyperexpansivity_max_eig"] == {
                str(n): hyperexpansivity_max_eig(w, n) for n in (2, 3, 4)
            }


def test_interior_extremes_match_dense_forms(seeded_measure):
    # Every interior extreme the report reads equals eigvalsh of the dense
    # binomial-sum form's block within 1e-12 * max(1, ||B||_F), where
    # ||B||_F = ||H||_F because W is orthonormal.
    rng = np.random.default_rng(91)
    spread8 = make_measure(list(np.exp(2j * np.pi * np.arange(8) / 8)), [1.0] * 8)
    pair20 = make_measure([1.0 + 0.0j, np.exp(1j * np.deg2rad(20.0))], [1.0, 1.0])
    cases = [(mu, n) for mu in (spread8, pair20) for n in (48, 96, 384)]
    cases += [(seeded_measure(rng, k), n) for n in (48, 96) for k in range(1, 9)]
    cases += [(seeded_measure(rng, k), 384) for k in (2, 5, 8)]
    for mu, size in cases:
        w = build_truncation(mu, size)
        for t, orders, lowest in ((cauchy_dual(w), range(1, 7), True), (w.T, (2, 3, 4), False)):
            dense = _binomial_defect_forms(t, max(orders))
            for n, (f, h) in enumerate(_defect_factors(t, max(orders)), 1):
                if n not in orders:
                    continue
                keep = w.N - w.margin - n
                exact = np.linalg.eigvalsh(dense[n - 1][:keep, :keep])[0 if lowest else -1]
                got = _extreme(f, h, keep, lowest)
                assert abs(got - exact) <= 1e-12 * max(1.0, np.linalg.norm(h))


def _dense_extremes(t, orders, margin, lowest):
    """Reference: the dense recursion ``B_n = B_{n-1} - T* B_{n-1} T``, two
    ``N x N`` matmuls per order, and ``eigvalsh`` of each interior block.
    Returns ``{n: extreme}`` and the max-magnitude interior entry of ``B_2``."""
    size = t.shape[0]
    b, extremes, entry = np.eye(size, dtype=complex), {}, None
    for n in range(1, max(orders) + 1):
        b = b - t.conj().T @ b @ t
        if n == 2:
            entry = np.max(np.abs(b[: size - margin, : size - margin]))
        if n in orders:
            vals = np.linalg.eigvalsh(b[: size - margin - n, : size - margin - n])
            extremes[str(n)] = vals[0] if lowest else vals[-1]
    return extremes, entry


def test_oracle_figures_match_the_dense_recursion(seeded_measure):
    # Every figure the report reads agrees with the dense recursion within
    # 1e-10 relative where |x| > 1e-6 and 1e-10 absolute elsewhere.
    rng = np.random.default_rng(95)
    cases = [(make_measure([1.0 + 0.0j, 1.0j], [1.0, 1.0]), n) for n in (48, 96, 384)]
    cases += [(seeded_measure(rng, k), n) for n in (64, 96) for k in range(1, 9)]
    cases += [(seeded_measure(rng, k), 384) for k in (2, 3, 5, 8)]
    for mu, size in cases:
        w = build_truncation(mu, size)
        run = _oracle_run(w, 6)
        agler, _ = _dense_extremes(cauchy_dual(w), range(1, 7), w.margin, lowest=True)
        hyper, defect = _dense_extremes(w.T, (2, 3, 4), w.margin, lowest=False)
        pairs = [(run["two_isometry_defect"], defect)]
        pairs += [(run["agler_min_eig"][n], v) for n, v in agler.items()]
        pairs += [(run["hyperexpansivity_max_eig"][n], v) for n, v in hyper.items()]
        for got, ref in pairs:
            assert abs(got - ref) <= 1e-10 * (abs(ref) if abs(ref) > 1e-6 else 1.0)


def test_extreme_joins_the_zeros_off_the_factor():
    # A factor of width 16 with one-signed h: the zeros of the block off
    # the factor's range decide the other end.
    rng = np.random.default_rng(92)
    x = rng.standard_normal((40, 16)) + 1j * rng.standard_normal((40, 16))
    v = np.linalg.qr(x)[0]
    h = np.diag(rng.uniform(1.0, 2.0, 16))
    for sign in (1.0, -1.0):
        exact = np.linalg.eigvalsh(v @ (sign * h) @ v.conj().T)
        assert abs(_extreme(v, sign * h, 40, lowest=True) - exact[0]) <= 1e-12
        assert abs(_extreme(v, sign * h, 40, lowest=False) - exact[-1]) <= 1e-12
        assert _extreme(v, sign * h, 40, lowest=sign > 0) == 0.0


def test_bare_matrix_first_form_is_eigh_of_the_whole_form(monkeypatch):
    # A bare matrix has no frame, so eigh of its whole I - X*X gives the
    # factor, here of full rank.
    rng = np.random.default_rng(93)
    x = (rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))) / 8
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    factors = list(_defect_factors(x, 3))
    assert shapes[0] == (60, 60)
    assert factors[0][1].shape == (60, 60)
    dense = _binomial_defect_forms(x, 3)
    for n, form in enumerate(_assembled(factors), 1):
        assert np.max(np.abs(form - dense[n - 1])) <= 1e-13 * max(1.0, np.linalg.norm(x, 2)) ** (2 * n)
    for lowest in (True, False):
        exact = np.linalg.eigvalsh(dense[0][:50, :50])[0 if lowest else -1]
        assert abs(_extreme(*factors[0], 50, lowest) - exact) <= 1e-13


def test_oracle_run_no_svd_and_small_eigensolves(monkeypatch, seeded_measure):
    # At N=384 the truncation and its oracle run no 2-norm (the
    # contraction gate reads a factor), and eigh/eigvalsh only see factor
    # cores, never an N x N form.  A first form is k + 2 wide and each order adds at
    # most two, so the largest core, the order-6 step's [W_5, X* W_5],
    # is at most 2 (k + 2 + 2 * 4).
    rng = np.random.default_rng(94)
    measures = [make_measure([1.0 + 0.0j, 1.0j], [1.0, 1.0])]
    measures += [seeded_measure(rng, k) for k in (1, 2, 3)]
    norms, shapes = [], []
    norm, eigh, eigvalsh = np.linalg.norm, np.linalg.eigh, np.linalg.eigvalsh

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            norms.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    def counted(solver):
        def run(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return solver(a, *args, **kwargs)

        return run

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(np.linalg, "eigh", counted(eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(eigvalsh))
    for mu in measures:
        norms.clear()
        shapes.clear()
        _oracle_run(build_truncation(mu, 384), 6)
        assert len(norms) == 0
        assert shapes
        assert max(max(s) for s in shapes) <= 2 * (mu.k + 2 + 2 * 4)
