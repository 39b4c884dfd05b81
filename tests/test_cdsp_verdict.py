"""Closed-form verdict, canonical frame, coupling scalar, and sweeps."""

import numpy as np
import pytest

from cauchydual import (
    ValidationError,
    build_identification,
    build_model,
    canonical_frame,
    closed_form_test,
    coupling_determinant,
    make_measure,
    parse_measure,
    poly_eval,
    sweep_angle,
)
from cauchydual import cdsp

S_OFFDIAG = -230.719263940288
ROOT_PRODUCTS = (
    0.967575626606951 - 5.37631791548865j,
    0.967575626606951 + 5.37631791548865j,
)
COUPLING_DET = -0.13348007677575036


def test_counterexample_verdict(canonical_mu):
    res = closed_form_test(canonical_mu)
    assert res.verdict == "NotSubnormal"
    assert abs(res.s_offdiag - S_OFFDIAG) <= 1e-6 * abs(S_OFFDIAG)
    assert abs(res.s_offdiag.imag) <= 1e-6
    for got, want in zip(res.root_products, ROOT_PRODUCTS):
        assert abs(got - want) <= 1e-9
    assert len(res.citations) == 2


def test_single_atom_known_subnormal(single_mu):
    res = closed_form_test(single_mu)
    assert res.verdict == "KnownSubnormal"
    assert res.s_offdiag is None
    assert res.root_products == ()


def test_antipodal_known_subnormal(antipodal_mu):
    res = closed_form_test(antipodal_mu)
    assert res.verdict == "KnownSubnormal"


def test_three_atoms_inconclusive():
    mu = make_measure(
        [np.exp(0.2j), np.exp(1.9j), np.exp(4.0j)], [1.0, 0.7, 1.3]
    )
    res = closed_form_test(mu)
    assert res.verdict == "Inconclusive"
    assert res.s_offdiag is None


def test_small_angles_inconclusive():
    # Root products land on the ray [1, oo) for these separations, so
    # the ray criterion withholds judgement.
    for theta in (30.0, 45.0):
        point = np.exp(1j * np.deg2rad(theta))
        res = closed_form_test(make_measure([1.0 + 0j, point], [1.0, 1.0]))
        assert res.verdict == "Inconclusive"


def test_wide_angles_not_subnormal():
    for theta in (60.0, 90.0, 120.0, 165.0):
        point = np.exp(1j * np.deg2rad(theta))
        res = closed_form_test(make_measure([1.0 + 0j, point], [1.0, 1.0]))
        assert res.verdict == "NotSubnormal"


def test_verdict_rotation_invariant(canonical_mu):
    base = closed_form_test(canonical_mu)
    for phi in (np.pi / 7.0, np.pi / 3.0, 1.0):
        rot = np.exp(1j * phi)
        mu = make_measure([rot, 1j * rot], [1.0, 1.0])
        res = closed_form_test(mu)
        assert res.verdict == base.verdict
        assert abs(abs(res.s_offdiag) - abs(base.s_offdiag)) <= 1e-8 * abs(
            base.s_offdiag
        )
        for got, want in zip(res.root_products, base.root_products):
            assert abs(got - want) <= 1e-8


def test_verdict_reflection_invariant(canonical_mu):
    # Conjugating the measure conjugates the overlap sum, which is real.
    base = closed_form_test(canonical_mu)
    res = closed_form_test(make_measure([1.0 + 0j, -1j], [1.0, 1.0]))
    assert res.verdict == base.verdict
    assert abs(res.s_offdiag - base.s_offdiag) <= 1e-6 * abs(base.s_offdiag)


def test_verdict_weight_scaling(canonical_mu):
    for t in (0.5, 2.0):
        mu = make_measure([1.0 + 0j, 1j], [t, t])
        assert closed_form_test(mu).verdict == "NotSubnormal"


def test_canonical_frame_rotates_first_atom():
    mu = make_measure([np.exp(0.5j), np.exp(2.0j)], [1.5, 0.5])
    framed = canonical_frame(mu)
    assert framed.points[0] == 1.0 + 0j
    assert np.allclose(framed.weights, mu.weights)
    assert abs(framed.points[1] - np.exp(1.5j)) <= 1e-12


def test_canonical_frame_idempotent(canonical_mu):
    framed = canonical_frame(canonical_mu)
    again = canonical_frame(framed)
    assert np.max(np.abs(again.points - framed.points)) == 0.0


def _analysis(mu):
    model = build_model(mu)
    return model, build_identification(model)


def _rebuilt_frame(mu):
    """Reference: the whole pipeline rebuilt on ``canonical_frame(mu)``,
    its polynomials evaluated at its own outer roots."""
    model, ident = _analysis(canonical_frame(mu))
    alpha = model.fact.outer_roots
    return alpha, np.array([[poly_eval(pj, a) for pj in ident.p_polys] for a in alpha])


def _frame_scalars(frame):
    s_offdiag, products, scale = cdsp._overlap_scalars(frame)
    return s_offdiag, products, scale, cdsp._coupling(frame)


def _rotated_pairs(rng, count):
    """``(mu, wrapped)``: two atoms at a random turn, 20-179.9 degrees
    apart, with log-uniform weights in [0.1, 10], equal for every fourth
    pair (its outer roots tie in modulus, so the turn can reorder them);
    ``wrapped`` when the second atom passes 360 degrees and so becomes the
    first."""
    for i in range(count):
        start = rng.uniform(0.0, 360.0)
        stop = start + rng.uniform(20.0, 179.9)
        weights = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
        if i % 4 == 0:
            weights[1] = weights[0]
        yield make_measure(np.exp(1j * np.deg2rad([start, stop])), weights), stop >= 360.0


def test_rotation_identity_matches_the_rebuilt_canonical_frame():
    # The canonical-frame scalars come from the measure's own analysis;
    # the pipeline rebuilt on canonical_frame(mu) gives the same values.
    wraps = 0
    for mu, wrapped in _rotated_pairs(np.random.default_rng(1409), 200):
        wraps += wrapped
        got = _frame_scalars(cdsp._canonical_values(mu, _analysis(mu)))
        s_ref, p_ref, scale, c_ref = _frame_scalars(_rebuilt_frame(mu))
        assert abs(got[0] - s_ref) <= 1e-10 * scale
        assert abs(got[3] - c_ref) <= 1e-10 * abs(c_ref)
        for g, want in zip(got[1], p_ref, strict=True):
            assert abs(g - want) <= 1e-12 * abs(want)
    assert wraps >= 40


@pytest.mark.parametrize(
    "text", ["1;i", "1;-1", "1:w=0.3;deg:47.5:w=6", "1:w=9;deg:179.9:w=0.1"]
)
def test_rotation_identity_is_bit_identical_with_the_first_atom_at_one(text):
    mu = parse_measure(text)
    ref = _frame_scalars(_rebuilt_frame(mu))
    assert _frame_scalars(cdsp._canonical_values(mu, _analysis(mu))) == ref
    verdict = closed_form_test(mu)
    assert (verdict.s_offdiag, verdict.root_products) == ref[:2]
    assert coupling_determinant(mu) == ref[3]


def test_coupling_determinant_regression(canonical_mu):
    got = coupling_determinant(canonical_mu)
    assert abs(got - COUPLING_DET) <= 1e-9 * abs(COUPLING_DET)
    assert abs(got.imag) <= 1e-9


def test_coupling_determinant_needs_two_atoms(single_mu):
    with pytest.raises(ValidationError):
        coupling_determinant(single_mu)


def test_sweep_basic_grid():
    rows = sweep_angle([30.0, 60.0, 90.0, 180.0])
    assert [r.theta_deg for r in rows] == [30.0, 60.0, 90.0, 180.0]
    assert rows[0].verdict.verdict == "Inconclusive"
    assert rows[1].verdict.verdict == "NotSubnormal"
    assert rows[2].verdict.verdict == "NotSubnormal"
    assert rows[3].verdict.verdict == "KnownSubnormal"
    for r in rows:
        assert r.error is None


def test_sweep_out_of_range_angle_is_error_row():
    rows = sweep_angle([90.0, 181.0, 0.0])
    assert rows[0].error is None
    assert rows[1].error == "ValidationError"
    assert rows[1].verdict is None
    assert rows[2].error == "ValidationError"


def test_sweep_small_angles_carry_verdicts():
    # Close atoms put both root products on the ray [1, oo); the closed
    # form says so for every row, with no truncation gate in the way.
    rows = sweep_angle(range(1, 17))
    assert [r.error for r in rows] == [None] * 16
    assert {r.verdict.verdict for r in rows} == {"Inconclusive"}


def test_sweep_builds_no_truncation(monkeypatch):
    def refuse(mu, n):
        raise AssertionError(f"Gram matrix of size {n} was built")

    monkeypatch.setattr(cdsp, "gram_monomials", refuse)
    rows = sweep_angle(range(1, 181))
    assert [r.error for r in rows] == [None] * 180
    assert rows[-1].verdict.verdict == "KnownSubnormal"


def test_sweep_weights_forwarded():
    rows = sweep_angle([90.0], weights=(2.0, 0.5))
    assert rows[0].error is None
    assert rows[0].verdict.verdict == "NotSubnormal"
