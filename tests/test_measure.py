"""Measure grammar, moments, and the boundary weight numerator."""

import numpy as np
import pytest

from cauchydual import (
    ParseError,
    ValidationError,
    format_measure,
    make_measure,
    moment,
    parse_measure,
    poly_eval,
    weight_numerator,
)


def test_parse_symbolic_tokens():
    mu = parse_measure("1;i;-1;-i")
    assert mu.k == 4
    want = [1.0 + 0j, 1j, -1.0 + 0j, -1j]
    for point in want:
        assert min(abs(p - point) for p in mu.points) <= 1e-15


def test_parse_sorts_by_argument():
    mu = parse_measure("-1;i;1")
    angles = np.angle(np.array(mu.points)) % (2.0 * np.pi)
    assert np.all(np.diff(angles) > 0)
    assert mu.points[0] == 1.0 + 0j


def test_parse_degree_form_and_weights():
    mu = parse_measure("deg:0:w=2;deg:90:w=0.5")
    assert mu.k == 2
    assert mu.weights.tolist() == [2.0, 0.5]
    assert abs(mu.points[1] - 1j) <= 1e-15


def test_parse_weight_on_symbolic_token():
    mu = parse_measure("1:w=3")
    assert mu.weights.tolist() == [3.0]


def test_format_round_trip(property_measures):
    for mu in property_measures:
        again = parse_measure(format_measure(mu))
        assert again.k == mu.k
        assert np.max(np.abs(np.array(again.points) - np.array(mu.points))) <= 1e-12
        assert np.max(np.abs(np.array(again.weights) - np.array(mu.weights))) <= 1e-12


def test_parse_rejects_garbage():
    for bad in ("", "bogus", "1;;i", "deg:", "1:w=0", "1:w=-2", "deg:10:w="):
        with pytest.raises((ParseError, ValidationError)):
            parse_measure(bad)


def test_make_measure_validation():
    with pytest.raises(ValidationError):
        make_measure([0.5 + 0j], [1.0])
    with pytest.raises(ValidationError):
        make_measure([1.0 + 0j], [-1.0])
    with pytest.raises(ValidationError):
        make_measure([1.0 + 0j, 1.0 + 0j], [1.0, 1.0])
    with pytest.raises(ValidationError):
        make_measure([], [])
    with pytest.raises(ValidationError):
        make_measure(
            [np.exp(1j * k) for k in range(9)], [1.0] * 9
        )


@pytest.mark.parametrize(
    "point, weight",
    [(1.0 + 0j, np.inf), (1.0 + 0j, np.nan), (complex(np.nan, np.nan), 1.0), (complex(np.inf, 0.0), 1.0)],
)
def test_make_measure_rejects_non_finite(point, weight):
    # inf passes "weight > 0" and nan passes "| |p| - 1 | > 1e-12" as
    # False, so finiteness is its own gate.
    with pytest.raises(ValidationError, match="is not finite"):
        make_measure([point], [weight])


def test_moment_law(property_measures):
    for mu in property_measures:
        total = sum(mu.weights)
        assert abs(moment(mu, 0) - total) <= 1e-14
        for ell in (1, 2, 5):
            want = sum(
                w * np.conj(p) ** ell for p, w in zip(mu.points, mu.weights)
            )
            assert abs(moment(mu, ell) - want) <= 1e-13
            assert abs(moment(mu, -ell) - np.conj(moment(mu, ell))) <= 1e-13


def test_weight_numerator_canonical_table(canonical_mu):
    num = weight_numerator(canonical_mu)
    want = np.array([1j, -3.0 - 3.0j, 8.0, -3.0 + 3.0j, -1j])
    assert num.shape == want.shape
    assert np.max(np.abs(num - want)) <= 1e-12


def test_weight_numerator_double_mass_at_one():
    num = weight_numerator(make_measure([1.0 + 0j], [2.0]))
    want = np.array([-1.0, 4.0, -1.0], dtype=complex)
    assert num.shape == want.shape
    assert np.max(np.abs(num - want)) <= 1e-12


def _on_circle(num, z):
    k = len(num) // 2
    return np.conj(z) ** k * poly_eval(num, z)


def test_weight_numerator_nonnegative_on_circle(property_measures):
    grid = np.exp(2j * np.pi * np.arange(101) / 101)
    for mu in property_measures:
        num = weight_numerator(mu)
        vals = _on_circle(num, grid)
        assert np.max(np.abs(vals.imag)) <= 1e-10 * np.max(np.abs(vals.real))
        assert np.min(vals.real) >= -1e-10 * np.max(vals.real)
        assert num.shape == (2 * mu.k + 1,)


def test_quartic_matches_weight_numerator(canonical_mu):
    # i * z^2 * N(z) for the two-atom right-angle measure is the quartic
    # z^4 - (3+3i) z^3 + 8i z^2 + (3-3i) z - 1.
    num = weight_numerator(canonical_mu)
    quartic = np.array([-1.0, 3.0 - 3.0j, 8.0j, -(3.0 + 3.0j), 1.0])
    assert np.max(np.abs(1j * num - quartic)) <= 1e-12


def test_weight_numerator_is_bitwise_hermitian_and_matches_distances(property_measures, seeded_measure):
    rng = np.random.default_rng(17)
    measures = property_measures + [seeded_measure(rng, k) for k in range(1, 9)]
    measures.append(make_measure([1.0 + 0j, np.exp(0.01j)], [1e-3, 1e3]))
    grid = np.exp(2j * np.pi * np.arange(97) / 97)
    for mu in measures:
        num = weight_numerator(mu)
        assert np.array_equal(num, np.conj(num[::-1]))
        dist2 = np.abs(grid[:, None] - mu.points[None, :]) ** 2
        want = np.prod(dist2, axis=1) + sum(
            g * np.prod(np.delete(dist2, j, axis=1), axis=1) for j, g in enumerate(mu.weights)
        )
        got = _on_circle(num, grid)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
