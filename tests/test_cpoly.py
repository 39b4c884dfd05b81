"""Polynomial core: evaluation, roots, Laurent arithmetic, factorization."""

import re

import mpmath
import numpy as np
import pytest

from cauchydual import (
    BoundaryRoot,
    LaurentPoly,
    NonConvergence,
    ValidationError,
    build_report,
    find_roots,
    laurent_mul,
    parse_measure,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    spectral_factorize,
    validate_report,
    weight_numerator,
)

QUARTIC = np.array([-1.0, 3.0 - 3.0j, 8.0j, -(3.0 + 3.0j), 1.0], dtype=complex)

QUARTIC_ROOTS = np.array(
    [
        2.327982955044884 + 0.2078141561367861j,
        0.2078141561367838 + 2.327982955044884j,
        0.42616044007877457 + 0.038042448739554015j,
        0.03804244873955488 + 0.4261604400787739j,
    ]
)


def _match_sets(got, want, tol):
    got = np.asarray(got, dtype=complex)
    for w in want:
        j = int(np.argmin(np.abs(got - w)))
        assert abs(got[j] - w) <= tol
        got = np.delete(got, j)
    assert got.size == 0


def test_poly_eval_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        z = rng.standard_normal() + 1j * rng.standard_normal()
        assert abs(poly_eval(c, z) - np.polyval(c[::-1], z)) <= 1e-12 * (
            1.0 + abs(np.polyval(c[::-1], z))
        )


def test_poly_eval_vectorized_and_scalar():
    c = np.array([1.0, 2.0, 3.0], dtype=complex)
    zs = np.array([0.0, 1.0, 1j])
    vals = poly_eval(c, zs)
    assert vals.shape == (3,)
    assert vals[0] == 1.0
    assert isinstance(poly_eval(c, 0.5 + 0j), complex)
    assert poly_eval(np.array([], dtype=complex), 2.0 + 0j) == 0.0


def test_poly_derivative_matches_numpy():
    rng = np.random.default_rng(12)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    want = np.polyder(c[::-1])[::-1]
    assert np.allclose(poly_derivative(c), want, atol=1e-14)
    assert poly_derivative(np.array([3.0 + 0j])).size == 0


def test_poly_from_roots_reconstructs():
    rng = np.random.default_rng(13)
    roots = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    c = poly_from_roots(roots)
    assert c[-1] == 1.0
    assert np.max(np.abs(poly_eval(c, roots))) <= 1e-10
    assert poly_from_roots(np.array([], dtype=complex)).tolist() == [1.0 + 0j]


def test_find_roots_quartic_frozen_order():
    roots = find_roots(QUARTIC, tol=1e-10)
    assert np.max(np.abs(roots - QUARTIC_ROOTS)) <= 1e-10


def test_find_roots_equal_modulus_tie_break():
    # Conjugate-reflected pairs have equal modulus in exact arithmetic but
    # differ by an ulp in floating point; the order must still follow the
    # ascending-argument rule inside the tie group.
    roots = find_roots(QUARTIC, tol=1e-10)
    angles = np.angle(roots) % (2.0 * np.pi)
    assert angles[0] < angles[1]
    assert angles[2] < angles[3]


def test_find_roots_cross_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        deg = int(rng.integers(2, 9))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        got = find_roots(c, tol=1e-8)
        want = np.roots(c[::-1])
        _match_sets(got, want, 1e-6)


def _numerator_coeffs(mu):
    num = weight_numerator(mu)
    c = np.zeros(2 * num.bandwidth + 1, dtype=complex)
    for j, v in num.coeffs.items():
        c[j + num.bandwidth] = v
    return c


def test_find_roots_matches_mpmath(seeded_measure):
    rng = np.random.default_rng(15)
    polys = [QUARTIC]
    polys += [_numerator_coeffs(seeded_measure(rng, k)) for k in range(1, 9) for _ in range(2)]
    with mpmath.workdps(40):
        for c in polys:
            want = mpmath.polyroots(
                [mpmath.mpc(v.real, v.imag) for v in c[::-1]], maxsteps=200, extraprec=80
            )
            got = find_roots(c)
            for w in want:
                w = complex(w)
                j = int(np.argmin(np.abs(got - w)))
                assert abs(got[j] - w) <= 1e-14 * abs(w)
                got = np.delete(got, j)


def test_find_roots_gate_refuses_perturbed_roots(monkeypatch):
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) * (1.0 + 1e-3))
    with pytest.raises(NonConvergence, match="root backward error") as info:
        find_roots(QUARTIC)
    observed = float(re.search(r"error (\S+) exceeds 1\.0e-10", str(info.value)).group(1))
    assert observed > 1e-10


def test_find_roots_deterministic():
    a = find_roots(QUARTIC, tol=1e-10)
    b = find_roots(QUARTIC, tol=1e-10)
    assert np.array_equal(a, b)


def test_find_roots_rejects_degenerate():
    with pytest.raises(ValidationError):
        find_roots(np.array([1.0 + 0j]))
    with pytest.raises(ValidationError):
        find_roots(np.array([1.0, 0.0], dtype=complex) * 0.0)


def test_laurent_eval_and_defect():
    lp = LaurentPoly({0: 2.0 + 0j, 1: -1.0 + 0j, -1: -1.0 + 0j})
    assert lp.hermitian_defect() <= 1e-15
    z = np.exp(0.7j)
    assert abs(lp.eval(z) - abs(z - 1.0) ** 2) <= 1e-12
    skew = LaurentPoly({1: 1.0 + 0j})
    assert skew.hermitian_defect() == 1.0


def test_laurent_mul_brute_force():
    a = LaurentPoly({0: 1.0 + 0j, 1: 2.0 - 1j})
    b = LaurentPoly({-1: 0.5j, 2: 3.0 + 0j})
    prod = laurent_mul(a, b)
    grid = np.exp(2j * np.pi * np.arange(7) / 7)
    assert np.max(np.abs(prod.eval(grid) - a.eval(grid) * b.eval(grid))) <= 1e-12


def test_spectral_factorize_properties(property_measures):
    for mu in property_measures:
        num = weight_numerator(mu)
        fact = spectral_factorize(num)
        assert fact.d > 0.0
        assert np.all(np.abs(fact.outer_roots) > 1.0)
        assert np.all(np.abs(fact.inner_roots) < 1.0)
        assert fact.q[-1] == 1.0
        grid = np.exp(2j * np.pi * np.arange(64) / 64)
        nvals = num.eval(grid).real
        model_vals = fact.d * np.abs(poly_eval(fact.q, grid)) ** 2
        assert np.max(np.abs(nvals - model_vals)) <= 1e-9 * np.max(np.abs(nvals))


def test_spectral_factorize_reflection_pairing(canonical_mu):
    fact = spectral_factorize(weight_numerator(canonical_mu))
    reflected = np.sort_complex(1.0 / np.conj(fact.outer_roots))
    assert np.max(np.abs(np.sort_complex(fact.inner_roots) - reflected)) <= 1e-9


@pytest.mark.parametrize("text", ["1;i;-1;-i", "1;i;-1;-i:w=10"])
@pytest.mark.parametrize("skip_oracle", [True, False])
def test_imaginary_axis_roots_pair_up(text, skip_oracle):
    # Roots on the imaginary axis have real parts of round-off size and
    # either sign, so a sorted pairing would interleave them.
    doc = build_report(parse_measure(text), skip_oracle=skip_oracle)
    validate_report(doc)
    assert len(doc["factorization"]["outer_roots"]) == 4


def test_spectral_factorize_boundary_root():
    # Root just off the circle, placed between the positivity-grid
    # nodes so the near-zero dip is invisible to the grid and the
    # root-distance gate is the one that fires.
    alpha = (1.0 + 5e-9) * np.exp(1j * np.pi / 20.0)
    num = LaurentPoly(
        {0: 1.0 + abs(alpha) ** 2, 1: -np.conj(alpha), -1: -alpha}
    )
    with pytest.raises(BoundaryRoot):
        spectral_factorize(num)


def test_spectral_factorize_rejects_near_zero_dip():
    # The same root rotated onto a grid node trips the strict
    # positivity validation first.
    r0 = 1.0 + 5e-9
    num = LaurentPoly({0: 1.0 + r0 * r0, 1: -r0 + 0j, -1: -r0 + 0j})
    with pytest.raises(ValidationError):
        spectral_factorize(num)


def test_spectral_factorize_rejects_bad_input():
    with pytest.raises(ValidationError):
        spectral_factorize(LaurentPoly({0: -1.0 + 0j}))
    with pytest.raises(ValidationError):
        spectral_factorize(LaurentPoly({0: 1.0 + 0j, 1: 5.0 + 0j}))
