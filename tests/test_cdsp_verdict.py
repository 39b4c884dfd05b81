"""Closed-form verdict, canonical frame, coupling scalar, and sweeps."""

from dataclasses import astuple

import numpy as np
import pytest

from cauchydual import (
    ResidualTooLarge,
    SingularGram,
    build_identification,
    build_model,
    canonical_frame,
    closed_form_test,
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


def _reference_scalars(frame):
    """Overlap sum, root products, threshold scale and coupling determinant
    of ``frame``, each by its own formula."""
    alpha, vals = frame
    w12 = complex(vals[0] @ np.conj(vals[1]))
    products = (
        complex(alpha[0] * np.conj(alpha[1])),
        complex(alpha[1] * np.conj(alpha[0])),
    )
    scale = float(np.max(np.abs(vals[0] * vals[1])))
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
    return complex(w12 + np.conj(w12)), products, scale, complex(total)


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
        got = cdsp._frame_scalars(mu, _analysis(mu))
        s_ref, p_ref, scale, c_ref = _reference_scalars(_rebuilt_frame(mu))
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
    ref = _reference_scalars(_rebuilt_frame(mu))
    assert cdsp._frame_scalars(mu, _analysis(mu)) == ref
    verdict = closed_form_test(mu)
    assert (verdict.s_offdiag, verdict.root_products, verdict.coupling_det) == (ref[0], ref[1], ref[3])


def _hex(value):
    """A complex written out in hex, bit for bit; anything else as is."""
    return (value.real.hex(), value.imag.hex()) if isinstance(value, complex) else value


def _bits(verdict):
    """The verdict's fields, every complex written out in hex."""
    return [tuple(map(_hex, f)) if isinstance(f, tuple) else _hex(f) for f in astuple(verdict)]


def _spread_measures(rng, k, count):
    """``count`` measures of ``k`` atoms about 360/k degrees apart, jittered
    by up to a sixth of the spacing, with weights log-uniform in [0.3, 3]."""
    for _ in range(count):
        spacing = 360.0 / k
        angles = rng.uniform(0.0, 360.0) + spacing * (np.arange(k) + rng.uniform(-1, 1, k) / 6)
        weights = np.exp(rng.uniform(np.log(0.3), np.log(3.0), k))
        yield make_measure(np.exp(1j * np.deg2rad(angles)), weights)


def test_verdict_from_a_prebuilt_analysis_is_bit_identical():
    rng = np.random.default_rng(2718)
    pairs = [mu for mu, _ in _rotated_pairs(rng, 60)]
    others = [mu for k in (1, 3, 4, 5, 6, 7, 8) for mu in _spread_measures(rng, k, 4)]
    for mu in pairs + others:
        verdict = closed_form_test(mu, _analysis(mu))
        assert _bits(verdict) == _bits(closed_form_test(mu))
        assert (verdict.coupling_det is None) == (mu.k != 2)


@pytest.mark.parametrize(
    "text, error",
    [("1:w=1e6;-1:w=1e6", ResidualTooLarge), ("1:w=1e8;-1:w=1e8", SingularGram)],
)
def test_antipodal_verdict_survives_a_failed_analysis(text, error):
    mu = parse_measure(text)
    with pytest.raises(error):
        _analysis(mu)
    res = closed_form_test(mu)
    assert res.verdict == "KnownSubnormal"
    assert (res.s_offdiag, res.root_products, res.coupling_det) == (None, (), None)


def test_coupling_det_regression(canonical_mu):
    got = closed_form_test(canonical_mu).coupling_det
    assert abs(got - COUPLING_DET) <= 1e-9 * abs(COUPLING_DET)
    assert abs(got.imag) <= 1e-9


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
