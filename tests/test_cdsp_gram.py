"""Monomial Gram matrix against the quadrature energy oracle."""

import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import cauchydual.cdsp
from cauchydual import (
    ValidationError,
    cross_energy,
    gram_monomials,
    make_measure,
    moment,
    quadrature_energy,
)
from cauchydual.cdsp import QUAD_LEVELS, _angular_moments, _radial_nodes
from cauchydual.cpoly import poly_derivative


def _basis(n):
    f = np.zeros(n + 1, dtype=complex)
    f[n] = 1.0
    return f


def test_gram_closed_form(property_measures):
    for mu in property_measures:
        n = 8
        gram = gram_monomials(mu, n)
        for m in range(n):
            for ell in range(n):
                want = (1.0 if m == ell else 0.0) + min(m, ell) * moment(
                    mu, ell - m
                )
                assert abs(gram[m, ell] - want) <= 1e-13
        assert np.max(np.abs(gram - gram.conj().T)) <= 1e-13


def test_gram_positive_definite(property_measures):
    for mu in property_measures:
        eigs = np.linalg.eigvalsh(gram_monomials(mu, 12))
        assert eigs[0] > 0.9


def test_gram_size_validation(canonical_mu):
    with pytest.raises(ValidationError):
        gram_monomials(canonical_mu, 1)


def test_quadrature_level_validation(canonical_mu):
    with pytest.raises(ValidationError):
        quadrature_energy(_basis(1), canonical_mu, 0)
    with pytest.raises(ValidationError):
        quadrature_energy(_basis(1), canonical_mu, 4)


def test_quadrature_energy_constant_is_zero(canonical_mu):
    assert quadrature_energy(_basis(0), canonical_mu, 1) == 0.0


def test_quadrature_diag_spot(canonical_mu):
    # <z^n, z^n> - 1 = n * total mass; level-1 already resolves small n.
    gram = gram_monomials(canonical_mu, 5)
    for n in (1, 2, 3):
        exact = gram[n, n].real - 1.0
        got = quadrature_energy(_basis(n), canonical_mu, 1)
        assert abs(got - exact) <= 2e-2 * max(1.0, exact)


def test_quadrature_levels_tighten(canonical_mu):
    # Each level must meet its documented band; strict monotonicity is
    # not asserted because low-degree entries converge to the noise
    # floor already at level 1.
    exact = float(gram_monomials(canonical_mu, 5)[3, 3].real - 1.0)
    errs = [
        abs(quadrature_energy(_basis(3), canonical_mu, level) - exact)
        for level in (1, 2, 3)
    ]
    for err, band in zip(errs, (2e-2, 5e-3, 1e-3)):
        assert err <= band
    assert errs[2] <= errs[0] + 1e-12


def test_cross_energy_polarization_consistency(canonical_mu):
    rng = np.random.default_rng(41)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    self_pair = cross_energy(f, f, canonical_mu, 1)
    direct = quadrature_energy(f, canonical_mu, 1)
    assert abs(self_pair - direct) <= 1e-10 * (1.0 + abs(direct))


def test_cross_energy_matches_gram_offdiagonal(property_measures):
    # <z^n, z^m> - delta = cross energy of the monomials; spot pairs at
    # level 1 keep this test fast, the full sweep runs in acceptance.
    for mu in property_measures[:3]:
        gram = gram_monomials(mu, 5)
        for n, m in ((1, 1), (2, 1), (3, 2), (3, 3)):
            want = gram[n, m] - (1.0 if n == m else 0.0)
            got = cross_energy(_basis(n), _basis(m), mu, 1)
            assert abs(got - want) <= 2e-2 * max(1.0, abs(want))


def test_cross_energy_hermitian(canonical_mu):
    a = cross_energy(_basis(2), _basis(1), canonical_mu, 1)
    b = cross_energy(_basis(1), _basis(2), canonical_mu, 1)
    assert abs(a - np.conj(b)) <= 1e-10 * (1.0 + abs(a))


def test_cross_energy_equals_polarized_energy(canonical_mu):
    # Reference: the polarization of quadrature_energy, which cross_energy
    # replaces with one pass; only the summation order differs.
    rng = np.random.default_rng(7)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    g = np.pad(rng.standard_normal(3) + 1j * rng.standard_normal(3), (0, 2))
    e = lambda c: quadrature_energy(c, canonical_mu, 2)
    want = (e(f + g) - e(f - g) + 1j * e(f + 1j * g) - 1j * e(f - 1j * g)) / 4.0
    got = cross_energy(f, g[:3], canonical_mu, 2)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
    assert cross_energy(f, [2.0], canonical_mu, 2) == 0.0


def test_cross_energy_reuses_radial_nodes(monkeypatch, canonical_mu):
    # Gauss-Legendre nodes are built once per radial count and shared
    # read-only; a warm call must not rebuild them, nor the moment table.
    first = cross_energy(_basis(3), _basis(2), canonical_mu, 1)
    table = cauchydual.cdsp._MOMENTS[1]

    def rebuilt(*args, **kwargs):
        raise AssertionError("leggauss called on a warm cache")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", rebuilt)
    assert cross_energy(_basis(3), _basis(2), canonical_mu, 1) == first
    assert cauchydual.cdsp._MOMENTS[1] is table
    r, wr = _radial_nodes(64)
    assert not r.flags.writeable and not wr.flags.writeable
    # The moment table is one read-only object per level, one column per
    # radial node.
    assert table is _angular_moments(1, 0) and not table.flags.writeable
    assert table.shape[1] == QUAD_LEVELS[1][0]


def _full_grid_moments(level, size):
    # The level's whole nr x na warp grid in one expression, its powers by
    # repeated products, each row of the table the mean over every angular
    # node.
    nr, na = QUAD_LEVELS[level]
    r, _ = _radial_nodes(nr)
    eipsi = np.exp(2j * np.pi * np.arange(na) / na)
    rr = r[:, None]
    eitau = (eipsi + rr) / (1.0 + rr * eipsi)
    power = np.ones((nr, na), dtype=complex)
    want = np.empty((size, nr), dtype=complex)
    for s in range(size):
        want[s] = np.mean(power, axis=1)
        power = power * eitau
    return want


def test_moment_table_is_the_one_expression_table_built_by_row_blocks(monkeypatch):
    # Filled by blocks of radial rows, the table is the full-grid one bit
    # for bit, and a cold level-3 build peaks at about two block buffers,
    # far below the 8.4 MB that one full-grid array would take.
    monkeypatch.setattr(cauchydual.cdsp, "_MOMENTS", {})
    for level in QUAD_LEVELS:
        want = _full_grid_moments(level, 16)
        assert _angular_moments(level, 15).tobytes() == want.tobytes()
    monkeypatch.setattr(cauchydual.cdsp, "_MOMENTS", {})
    tracemalloc.start()
    try:
        table = _angular_moments(3, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (16, 256)
    assert peak < 2e6


def test_moment_table_is_not_the_poisson_moments():
    # The oracle stays independent of the closed form it checks only while
    # the table is the rule's own node average: the exact Poisson moments
    # r^s would make it the closed form.
    for level in QUAD_LEVELS:
        r, _ = _radial_nodes(QUAD_LEVELS[level][0])
        table = _angular_moments(level, 15)[:16]
        assert np.max(np.abs(table - r ** np.arange(16)[:, None])) > 1e-4


def test_cross_energy_bits_do_not_depend_on_the_table_size(monkeypatch, seeded_measure):
    # Degree 3, then 6, then 40 grow each level's table from 4 to 8 to 64
    # rows; the degree-3 and degree-6 calls after them read the large table
    # and must give the bits they gave on the small ones.
    monkeypatch.setattr(cauchydual.cdsp, "_MOMENTS", {})
    rng = np.random.default_rng(31)
    mu = seeded_measure(rng, 3)
    low = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    mid = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    high = rng.standard_normal(42) + 1j * rng.standard_normal(42)
    for level in QUAD_LEVELS:
        cold = [cross_energy(low, low[:4], mu, level)]
        assert len(_angular_moments(level, 0)) == 4
        cold.append(cross_energy(mid, low, mu, level))
        small = _angular_moments(level, 0)
        assert len(small) == 8
        cross_energy(high, low, mu, level)
        assert len(_angular_moments(level, 0)) == 64
        assert _angular_moments(level, 0)[:8].tobytes() == small.tobytes()
        warm = [cross_energy(low, low[:4], mu, level), cross_energy(mid, low, mu, level)]
        assert warm == cold


def _reference_cross_energy(f, g, mu, level):
    # The one-pass full-grid body of the same rule, kept verbatim: it
    # evaluates f' and g' at every node, cross_energy sums in coefficient
    # space, so the two agree to round-off.
    df = poly_derivative(f)
    dg = df if g is f else poly_derivative(g)
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


def test_cross_energy_matches_the_full_grid_body(seeded_measure):
    # Same nodes and weights, summed in another order: within 1e-13 of the
    # full-grid value, relative to max(1, |value|), on every case.  Each
    # (k, level) runs one nonconstant pair in turn, which keeps the
    # full-grid reference affordable; every pair meets every level.
    rng = np.random.default_rng(20)
    f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    top_zero = np.array([1.0, 2.0, 0.0])  # f' = [2, 0]: zero top coefficient
    # f' = [1j, 0, 0, 8-4j, 0, 3j]: interior zeros, a non-real top coefficient
    sparse = np.array([0, 1j, 0, 0, 2 - 1j, 0, 0.5j])
    pairs = [
        (f, g), (g, f), (f, f), (top_zero, g), (top_zero, top_zero),
        (_basis(10), _basis(6)), (sparse, g),
    ]
    for k in range(1, 9):
        mu = seeded_measure(rng, k)
        for level in QUAD_LEVELS:
            a, b = pairs[(k + level) % len(pairs)]
            want = _reference_cross_energy(a, b, mu, level)
            assert abs(cross_energy(a, b, mu, level) - want) <= 1e-13 * max(1.0, abs(want))
            assert cross_energy(f, [2.0], mu, level) == 0j
            assert cross_energy([2.0], g, mu, level) == 0j


def test_cross_energy_allocates_no_full_grid_array():
    # A full level-3 grid is 256 x 2048 complex, 8.4 MB per array; a warm
    # call's temporaries are at most (deg f' + deg g' + 1) x 256 complex,
    # about 0.5 MB for a pair of degree 64.
    mu = make_measure(np.exp([0.3j, 2.0j, 4.1j]), [0.5, 0.4, 0.6])
    rng = np.random.default_rng(64)
    dense = rng.standard_normal((2, 65)) + 1j * rng.standard_normal((2, 65))
    for f, g in ((_basis(10), _basis(6)), tuple(dense)):
        want = cross_energy(f, g, mu, 3)
        tracemalloc.start()
        try:
            got = cross_energy(f, g, mu, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2e6


def test_cross_energy_runs_under_the_callers_errstate():
    # One atom: |f'|^2 = 1e320 r^60 overflows only in the rows with
    # r > 0.5 (at r < 0.49 it stays below 2e301).  The product
    # a_30 r^30 * conj(a_30 r^30) of those rows forms in the caller's own
    # thread, so its errstate turns that overflow into an error, and the
    # call leaves no thread behind.
    mu = make_measure([1.0], [1.0])
    f = np.zeros(32, dtype=complex)
    f[31] = 1e160 / 31
    before = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        cross_energy(f, f, mu, 1)
    assert threading.active_count() == before
    cross_energy(_basis(3), _basis(3), mu, 1)
    assert threading.active_count() == before


_ONE_CPU_PAIRS = """
import ast, os, sys
import numpy as np
from cauchydual import cross_energy, make_measure
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert len(os.sched_getaffinity(0)) == 1
for f, g, points, weights, level in ast.literal_eval(sys.stdin.read()):
    mu = make_measure(points, weights)
    print(repr(cross_energy(np.array(f), np.array(g), mu, level)))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
def test_cross_energy_bits_do_not_depend_on_the_cpu_count(seeded_measure):
    # A child pinned to one CPU builds its moment tables and sums on that
    # CPU; its values must be the in-process ones, repr for repr.
    rng = np.random.default_rng(28)
    cases = []
    for level in QUAD_LEVELS:
        for k in (1, 3):
            mu = seeded_measure(rng, k)
            f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            cases.append(
                (f.tolist(), g.tolist(), mu.points.tolist(), mu.weights.tolist(), level)
            )
    want = [
        repr(cross_energy(np.array(f), np.array(g), make_measure(p, w), level))
        for f, g, p, w, level in cases
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_PAIRS],
        input=repr(cases),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == want


def test_gram_moment_table_is_bitwise_per_moment(seeded_measure):
    # The vectorized moment table must reproduce one moment() call per
    # degree exactly, the squared row and every signed zero included.
    rng = np.random.default_rng(81)
    n = 385
    idx = np.arange(n)
    for k in range(1, 9):
        for _ in range(3):
            mu = seeded_measure(rng, k)
            pos = np.array([moment(mu, ell) for ell in range(n)], dtype=complex)
            full = np.concatenate((np.conj(pos[:0:-1]), pos))
            band = full[idx[None, :] - idx[:, None] + n - 1]
            want = np.eye(n, dtype=complex) + np.minimum.outer(idx, idx) * band
            assert gram_monomials(mu, n).tobytes() == want.tobytes()
