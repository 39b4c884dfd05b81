"""Identification with H(B): numerator matrix, Cholesky factor, Schur row."""

import numpy as np
import pytest

from cauchydual import (
    NotPSD,
    ResidualTooLarge,
    boundary_function_eval,
    build_identification,
    build_model,
    cholesky_upper,
    compute_A,
    kernel_full,
    kernel_hat,
    kernel_hb,
    make_measure,
    parse_measure,
    poly_eval,
    schur_row_eval,
)
from cauchydual import cpoly, debranges, dirichlet

A11 = 17.1334199164530
A12 = -5.46269136247035 - 5.46269136247035j
A22 = 4.71734553342817
P_PRINTED = np.array(
    [[4.13925355, -1.31972862 - 1.31972862j], [0.0, 1.11084575]], dtype=complex
)


def test_compute_a_canonical_entries(canonical_mu):
    a = compute_A(build_model(canonical_mu))
    assert abs(a[0, 0] - A11) <= 1e-8
    assert abs(a[0, 1] - A12) <= 1e-8
    assert abs(a[1, 0] - np.conj(A12)) <= 1e-8
    assert abs(a[1, 1] - A22) <= 1e-8


def test_compute_a_hermitian_psd(property_measures):
    for mu in property_measures:
        a = compute_A(build_model(mu))
        assert a.shape == (mu.k, mu.k)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-9 * max(1.0, np.max(np.abs(a)))
        eigs = np.linalg.eigvalsh(a)
        assert eigs[0] >= -1e-8 * max(1.0, float(np.trace(a).real))


def test_cholesky_upper_matches_numpy_oracle():
    rng = np.random.default_rng(31)
    for n in (2, 3, 5):
        for _ in range(5):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = x.conj().T @ x + np.eye(n)
            p = cholesky_upper(a)
            want = np.linalg.cholesky(a).conj().T
            assert np.max(np.abs(p - want)) <= 1e-10 * np.max(np.abs(want))
            assert np.max(np.abs(np.tril(p, -1))) == 0.0
            assert np.all(np.diag(p).real > 0.0)
            assert np.max(np.abs(np.diag(p).imag)) == 0.0


def test_cholesky_upper_rank_deficient():
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    p = cholesky_upper(a)
    assert np.max(np.abs(p.conj().T @ p - a)) <= 1e-12
    assert abs(p[1, 1]) == 0.0


def test_cholesky_upper_rejects_indefinite():
    with pytest.raises(NotPSD):
        cholesky_upper(np.diag([1.0, -1.0]).astype(complex))


def test_identification_canonical_reference_values(canonical_mu):
    ident = build_identification(build_model(canonical_mu))
    assert np.max(np.abs(ident.P - P_PRINTED)) <= 1e-6
    # p_1(z) = 4.13925355 z + (-1.31972862 - 1.31972862i) z^2,
    # p_2(z) = 1.11084575 z^2; constant terms vanish identically.
    p1, p2 = ident.p_polys
    assert p1[0] == 0.0 and p2[0] == 0.0
    assert abs(p1[1] - 4.13925355) <= 1e-6
    assert abs(p1[2] - (-1.31972862 - 1.31972862j)) <= 1e-6
    assert abs(p2[1]) <= 1e-6
    assert abs(p2[2] - 1.11084575) <= 1e-6


def test_identification_reconstruction(property_measures):
    for mu in property_measures:
        ident = build_identification(build_model(mu))
        recon = ident.P.conj().T @ ident.P
        assert np.max(np.abs(recon - ident.A)) <= 1e-9 * max(
            1.0, float(np.max(np.abs(ident.A)))
        )


def test_kernel_hb_equality(property_measures):
    rng = np.random.default_rng(32)
    for mu in property_measures:
        model = build_model(mu)
        ident = build_identification(model)
        for _ in range(40):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            w = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            full = kernel_full(model, z, w)
            assert abs(kernel_hb(ident, z, w) - full) <= 1e-8 * (1.0 + abs(full))


def test_kernel_hb_normalization(canonical_mu):
    ident = build_identification(build_model(canonical_mu))
    for z in (0.0 + 0j, 0.4 - 0.3j, -0.7 + 0.2j):
        assert abs(kernel_hb(ident, z, 0.0 + 0j) - 1.0) <= 1e-12


def test_schur_row_bound(property_measures):
    # sup of the squared row norm over a polar grid of radius <= 0.995
    # must not exceed 1 (the row is a Schur function).
    radii = np.linspace(0.995 / 40, 0.995, 40)
    angles = 2.0 * np.pi * np.arange(40) / 40
    for mu in property_measures:
        ident = build_identification(build_model(mu))
        worst = 0.0
        for r in radii:
            for t in angles:
                row = schur_row_eval(ident, r * np.exp(1j * t))
                worst = max(worst, float(np.sum(np.abs(row) ** 2)))
        assert worst <= 1.0 + 1e-8


def test_schur_row_vanishes_at_origin(property_measures):
    for mu in property_measures:
        ident = build_identification(build_model(mu))
        assert np.max(np.abs(schur_row_eval(ident, 0.0 + 0j))) == 0.0


def test_schur_row_reproduces_kernel(canonical_mu):
    # (1 - sum_j b_j(z) conj(b_j(w)))/(1 - z conj(w)) equals the full
    # kernel times the multiplier correction; equivalently the H(B)
    # numerator quadratic form matches the row outer product.
    model = build_model(canonical_mu)
    ident = build_identification(model)
    rng = np.random.default_rng(33)
    for _ in range(20):
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        w = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        row_z = schur_row_eval(ident, z)
        row_w = schur_row_eval(ident, w)
        val = (1.0 - row_z @ np.conj(row_w)) / (1.0 - z * np.conj(w))
        assert abs(val - kernel_hb(ident, z, w)) <= 1e-10 * (1.0 + abs(val))


def test_rotation_covariance_of_a(canonical_mu):
    base = np.linalg.eigvalsh(compute_A(build_model(canonical_mu)))
    for phi in (np.pi / 7, np.pi / 3, 1.0):
        rot = np.exp(1j * phi)
        mu = make_measure(
            [rot * p for p in canonical_mu.points], list(canonical_mu.weights)
        )
        eigs = np.linalg.eigvalsh(compute_A(build_model(mu)))
        assert np.max(np.abs(eigs - base)) <= 1e-8 * max(1.0, float(base[-1]))


def test_p_polys_degree_bound(property_measures):
    for mu in property_measures:
        ident = build_identification(build_model(mu))
        assert len(ident.p_polys) == mu.k
        for pj in ident.p_polys:
            assert pj.size == mu.k + 1
            assert poly_eval(pj, 0.0 + 0j) == 0.0


def _numerator_at(model, z, wb):
    # Per-point reference for the kernel numerator E(z, wb).
    pts = model.mu.points
    op = model.o_prime
    s = sum(
        np.conj(model.b_inv[r, t])
        / (op[r] * np.conj(op[t]) * (z - pts[r]) * (wb - np.conj(pts[t])))
        for r in range(model.mu.k)
        for t in range(model.mu.k)
    )
    q, p = model.fact.q, model.atom_poly
    return poly_eval(q, z) * poly_eval(np.conj(q), wb) - poly_eval(
        p, z
    ) * poly_eval(np.conj(p), wb) / model.fact.d * (1.0 + (1.0 - z * wb) * s)


def _interpolated_a(model):
    # Reference: fit the numerator's coefficients by two Vandermonde solves
    # on a (k+1) x (k+1) node grid.
    k = model.mu.k
    radii = (0.3, 0.55, 0.8)
    nodes = np.array(
        [radii[j % 3] * np.exp(2j * np.pi * j / (k + 1)) for j in range(k + 1)]
    )
    vand = nodes[:, None] ** np.arange(k + 1)[None, :]
    emat = np.array([[_numerator_at(model, za, wb) for wb in nodes] for za in nodes])
    ahat = np.linalg.solve(vand, np.linalg.solve(vand, emat.T).T)
    return ahat[1:, 1:]


def _seeded_measure(rng, k):
    spacing = 2.0 * np.pi / k
    angles = rng.uniform(0.0, 2.0 * np.pi) + spacing * (
        np.arange(k) + rng.uniform(-0.15, 0.15, k)
    )
    return make_measure(list(np.exp(1j * angles)), list(rng.uniform(0.7, 1.4, k)))


def test_closed_form_a_matches_interpolation():
    rng = np.random.default_rng(71)
    for k in range(1, 9):
        for _ in range(3):
            model = build_model(_seeded_measure(rng, k))
            want = _interpolated_a(model)
            got = compute_A(model)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_numerator_grid_matches_pointwise():
    rng = np.random.default_rng(72)
    for k in (1, 2, 5, 8):
        model = build_model(_seeded_measure(rng, k))
        z, wb = (
            0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
            for n in (4, 3)
        )
        grid = debranges._numerator_grid(model, z, wb)
        want = np.array([[_numerator_at(model, a, b) for b in wb] for a in z])
        assert grid.shape == (4, 3)
        assert np.max(np.abs(grid - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_compute_a_single_atom_is_outer_root():
    # One unit atom: A = (3 + sqrt 5) / 2, the outer root of the weight
    # numerator.
    a = compute_A(build_model(parse_measure("1")))
    exact = (3.0 + np.sqrt(5.0)) / 2.0
    assert a.shape == (1, 1)
    assert abs(a[0, 0] - exact) <= 1e-14 * exact


def test_compute_a_makes_no_pointwise_evaluations(monkeypatch):
    models = [build_model(parse_measure(m)) for m in ("1", "1;i", "1;i;-1:w=2")]
    calls = []

    def counted(p, z):
        calls.append(1)
        return cpoly.poly_eval(p, z)

    monkeypatch.setattr(debranges, "poly_eval", counted)
    for model in models:
        compute_A(model)
    assert calls == []


def test_compute_a_half_degree_separation_fails_origin_gate():
    model = build_model(parse_measure("deg:0;deg:0.5"))
    with pytest.raises(ResidualTooLarge, match="nonvanishing origin coefficients"):
        compute_A(model)


def test_compute_a_check_grid_gate_names_the_coefficient_residual(monkeypatch):
    # The gate compares the closed-form coefficients with the numerator
    # evaluated directly; a shifted numerator must trip it by name.
    grid = debranges._numerator_grid
    monkeypatch.setattr(
        debranges, "_numerator_grid", lambda model, z, wb: grid(model, z, wb) + 1e-3
    )
    with pytest.raises(
        ResidualTooLarge, match=r"coefficient residual 1\.000e-03 on the check grid exceeds 1e-8 \* "
    ):
        compute_A(build_model(parse_measure("1;i")))


def test_model_readers_rebuild_no_cofactor(monkeypatch, seeded_measure):
    # build_model builds the cofactors N_r once; compute_A, kernel_hat and
    # boundary_function_eval read them off the model.
    rng = np.random.default_rng(33)
    models = [build_model(seeded_measure(rng, k)) for k in range(1, 9)]

    def refuse(roots):
        raise AssertionError("poly_from_roots called after build_model")

    for module in (cpoly, dirichlet, debranges):
        monkeypatch.setattr(module, "poly_from_roots", refuse, raising=False)
    for model in models:
        compute_A(model)
        kernel_hat(model, 0.3 + 0.2j, -0.1 + 0.4j)
        boundary_function_eval(model, model.mu.k - 1, np.array([0.5j, -0.2]))
