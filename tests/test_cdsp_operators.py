"""Finite-section shift, Cauchy dual, and defect-form diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from cauchydual import (
    NonConvergence,
    SingularFrame,
    ValidationError,
    agler_min_eig,
    build_report,
    build_truncation,
    cauchy_dual,
    hyperexpansivity_max_eig,
    make_measure,
    two_isometry_defect,
)
from cauchydual.cdsp import CERT_REL, PROBE_COLS, _defect_forms, _extreme, _oracle_run

AGLER_N6_CANONICAL = -1.203254e-02


def test_truncation_shape_and_margin(canonical_mu):
    w = build_truncation(canonical_mu, 48)
    assert w.T.shape == (48, 48)
    assert w.margin == 6
    assert build_truncation(canonical_mu, 24).margin == 4


def test_truncation_size_validation(canonical_mu):
    with pytest.raises(ValidationError):
        build_truncation(canonical_mu, 7)


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


def test_onb_factor_reproduces_gram(property_measures):
    for mu in property_measures:
        w = build_truncation(mu, 16)
        c = w.onb_factor
        assert np.max(np.abs(np.tril(c, -1))) == 0.0
        err = np.max(np.abs(c.conj().T @ c - np.conj(w.gram)))
        assert err <= 1e-10


def test_frame_section_matches_interior_tstar_t(property_measures):
    # mstar_m is the exact section of M*M; it must agree with T*T of the
    # compressed matrix away from the dead edge.
    for mu in property_measures:
        w = build_truncation(mu, 24)
        keep = w.N - w.margin
        diff = w.T.conj().T @ w.T - w.mstar_m
        assert np.max(np.abs(diff[:keep, :keep])) <= 1e-12


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
    w = build_truncation(canonical_mu, 24)
    bad = w.T.copy()
    bad[0, 0] += 0.25
    spoofed = dataclasses.replace(w, T=bad)
    assert two_isometry_defect(spoofed) > 1e-3


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
    with pytest.raises(ValidationError):
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


def _binomial_defect_form(t, n):
    """Reference: the explicit sum ``sum_j (-1)^j binom(n, j) (T^j)* T^j``."""
    size = t.shape[0]
    b = np.zeros((size, size), dtype=complex)
    power = np.eye(size, dtype=complex)
    for j in range(n + 1):
        b += (-1) ** j * math.comb(n, j) * power.conj().T @ power
        power = t @ power
    return b


def test_defect_recursion_matches_binomial_sum(property_measures):
    # The recursion B_n = B_{n-1} - T* B_{n-1} T is an exact identity on
    # any square matrix, so it must match the binomial sum on the whole
    # section, edge included, up to round-off of the sum's largest term.
    for mu in property_measures:
        w = build_truncation(mu, 96)
        for t, orders in ((cauchy_dual(w), range(1, 7)), (w.T, range(2, 5))):
            forms = list(_defect_forms(t, max(orders)))
            assert len(forms) == max(orders)
            scale = max(1.0, np.linalg.norm(t, 2))
            for n in orders:
                err = np.max(np.abs(forms[n - 1] - _binomial_defect_form(t, n)))
                assert err <= 1e-14 * scale ** (2 * n)
    assert list(_defect_forms(w.T, 0)) == []


def test_report_oracle_equals_public_functions(property_measures):
    for mu in property_measures[1:3]:
        doc = build_report(mu, trunc=48, nmax=6)
        for run in doc["oracle"]["runs"]:
            w = build_truncation(mu, run["N"])
            dual = cauchy_dual(w)
            keep = w.N - w.margin
            gate_norm = float(np.linalg.norm(dual[:keep, :keep], 2))
            assert run["cauchy_dual_interior_norm"] == gate_norm
            assert run["two_isometry_defect"] == two_isometry_defect(w)
            assert run["agler_min_eig"] == {
                str(n): agler_min_eig(dual, n, w.margin) for n in range(1, 7)
            }
            assert run["hyperexpansivity_max_eig"] == {
                str(n): hyperexpansivity_max_eig(w, n) for n in (2, 3, 4)
            }


def test_frame_gate_makes_no_eigvalsh_call(monkeypatch, canonical_mu):
    w = build_truncation(canonical_mu, 64)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a is w.mstar_m)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cauchy_dual(w)
    assert calls == []


@pytest.mark.parametrize("smallest, passes", [(2e-10, True), (5e-11, False)])
def test_frame_gate_bound(canonical_mu, smallest, passes):
    # T = 0 keeps the contraction gate out of the way, so only the frame
    # gate ``min eig(mstar_m) > 1e-10`` decides.
    w = build_truncation(canonical_mu, 8)
    w = dataclasses.replace(
        w,
        T=np.zeros_like(w.T),
        mstar_m=np.diag([1.0, smallest, 3.0, 1.0, 2.0, 1.0, 1.0, 4.0]).astype(complex),
    )
    if passes:
        assert np.max(np.abs(cauchy_dual(w))) == 0.0
    else:
        with pytest.raises(SingularFrame, match="min eigenvalue 5.000e-11"):
            cauchy_dual(w)


def _probe_residual(b, keep):
    """Reference for the certificate: ``||B - Q Q* B Q Q*||_F`` with ``Q``
    an orthonormal basis of the first ``PROBE_COLS`` columns of ``B``."""
    blk = b[:keep, :keep]
    q = np.linalg.qr(blk[:, : min(PROBE_COLS, keep)])[0]
    proj = q @ q.conj().T
    return float(np.linalg.norm(blk - proj @ blk @ proj))


def _interior_forms(w):
    """Every interior form the report reads at ``w``: (form, keep, lowest)."""
    for t, orders, lowest in ((cauchy_dual(w), range(1, 7), True), (w.T, (2, 3, 4), False)):
        for n, b in enumerate(_defect_forms(t, max(orders)), 1):
            if n in orders:
                yield b, w.N - w.margin - n, lowest


def test_extreme_within_its_certificate(seeded_measure):
    # Weyl: the probe's value and eigvalsh's differ by at most the
    # probe's residual, which stays under the acceptance bound.
    rng = np.random.default_rng(91)
    cases = [(make_measure([1.0 + 0.0j, np.exp(1j * np.deg2rad(20.0))], [1.0, 1.0]), 48)]
    cases += [(seeded_measure(rng, k), n) for n in (48, 96) for k in range(1, 9)]
    cases += [(seeded_measure(rng, k), 384) for k in (2, 5, 8)]
    for mu, size in cases:
        for b, keep, lowest in _interior_forms(build_truncation(mu, size)):
            resid = _probe_residual(b, keep)
            assert resid <= CERT_REL * max(1.0, np.linalg.norm(b[:keep, :keep]))
            exact = np.linalg.eigvalsh(b[:keep, :keep])[0 if lowest else -1]
            assert abs(_extreme(b, keep, lowest) - exact) <= resid + 1e-15


def test_extreme_counts_the_unprobed_zeros():
    # A block of exact rank PROBE_COLS: the probe sees only positive
    # (or only negative) eigenvalues, and the zeros outside it decide.
    rng = np.random.default_rng(92)
    x = rng.standard_normal((40, PROBE_COLS)) + 1j * rng.standard_normal((40, PROBE_COLS))
    v = np.linalg.qr(x)[0]
    b = v @ np.diag(rng.uniform(1.0, 2.0, PROBE_COLS)) @ v.conj().T
    for sign in (1.0, -1.0):
        exact = np.linalg.eigvalsh(sign * b)
        assert abs(_extreme(sign * b, 40, lowest=True) - exact[0]) <= 1e-12
        assert abs(_extreme(sign * b, 40, lowest=False) - exact[-1]) <= 1e-12
        assert _extreme(sign * b, 40, lowest=sign > 0) == 0.0


def test_extreme_full_rank_falls_back_to_eigvalsh():
    rng = np.random.default_rng(93)
    x = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    b = x + x.conj().T
    exact = np.linalg.eigvalsh(b[:50, :50])
    assert _extreme(b, 50, lowest=True) == exact[0]
    assert _extreme(b, 50, lowest=False) == exact[-1]


def test_oracle_run_eigvalsh_only_on_probes(monkeypatch, seeded_measure):
    # On the benchmark's domain every certificate holds at N=384, so no
    # interior block reaches eigvalsh; only the probes' small forms do.
    rng = np.random.default_rng(94)
    measures = [make_measure([1.0 + 0.0j, 1.0j], [1.0, 1.0])]
    measures += [seeded_measure(rng, k) for k in (1, 2, 3)]
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for mu in measures:
        _oracle_run(build_truncation(mu, 384), 6)
    assert len(shapes) == 9 * len(measures)
    assert max(max(s) for s in shapes) <= PROBE_COLS
