"""End-to-end acceptance gates.

Each test covers one numbered criterion and prints a single
``criterion NN (<name>): PASS`` or ``FAIL`` line (visible through the
``-rA`` report section) before asserting.  Expected constants are frozen
from independently validated reference computations; see the module
tests for the per-operation oracles backing them.
"""

import json
import subprocess
import sys
import time

import numpy as np

from cauchydual import (
    build_identification,
    build_model,
    build_report,
    cauchy_dual,
    agler_min_eig,
    build_truncation,
    closed_form_test,
    cross_energy,
    find_roots,
    gram_monomials,
    hyperexpansivity_max_eig,
    kernel_full,
    kernel_hb,
    make_measure,
    parse_measure,
    poly_eval,
    render_json,
    two_isometry_defect,
    weight_numerator,
)

QUARTIC_ROOTS = (
    2.327982955044884 + 0.2078141561367861j,
    0.2078141561367838 + 2.327982955044884j,
    0.42616044007877457 + 0.038042448739554015j,
    0.03804244873955488 + 0.4261604400787739j,
)
A_CONST = 2.53579711118167
B_CONST = 5.46269136247034
C_CONST = 0.464202888818329
D_CONST = 0.183059948594236
P_CONST = 0.954692530486206
Q_CONST = 0.297593972106043
M_CONST = 1.10401859575639
U_CONST = 0.695548570053500
V_CONST = 0.127327085478790
S_CONST = 0.967575626606929 + 0.177124344467703j
A11 = 17.1334199164530
A12 = -5.46269136247035 - 5.46269136247035j
A22 = 4.71734553342817
P_MATRIX = np.array(
    [[4.13925355, -1.31972862 - 1.31972862j], [0.0, 1.11084575]],
    dtype=complex,
)
S_OFFDIAG = -230.719263940288
ROOT_PRODUCTS = (
    0.967575626606951 - 5.37631791548865j,
    0.967575626606951 + 5.37631791548865j,
)

CANONICAL = ("1", "1;i", "1;-1")


def _gate(num, name, checks):
    failed = [label for label, ok in checks if not ok]
    print(f"criterion {num:02d} ({name}): {'FAIL' if failed else 'PASS'}")
    assert not failed, f"criterion {num:02d} ({name}) failed: {failed}"


def _canonical_quartic():
    # The weight numerator of delta_1 + delta_i holds the ascending
    # coefficients of z^2 * N(z); times i they are the quartic.
    return 1j * weight_numerator(parse_measure("1;i"))


def test_criterion_01_quartic_roots():
    coeffs = _canonical_quartic()
    start = time.perf_counter()
    roots = find_roots(coeffs, tol=1e-10)
    elapsed = time.perf_counter() - start
    checks = [
        (f"root {j + 1}", abs(roots[j] - QUARTIC_ROOTS[j]) <= 1e-10)
        for j in range(4)
    ]
    reference = np.roots(coeffs[::-1])
    matched = [min(abs(reference - r)) for r in roots]
    checks.append(("np.roots cross-check", max(matched) <= 1e-10))
    checks.append(("runtime < 0.1 s", elapsed < 0.1))
    _gate(1, "quartic roots", checks)


def test_criterion_02_factorization_constants():
    model = build_model(parse_measure("1;i"))
    alpha = model.fact.outer_roots
    beta = model.fact.inner_roots
    a = (alpha[0] + alpha[1]) / (1.0 + 1j)
    b = alpha[0] * alpha[1] / 1j
    c = (beta[0] + beta[1]) / (1.0 + 1j)
    d = beta[0] * beta[1] / 1j
    checks = [
        ("a", abs(a - A_CONST) <= 1e-9),
        ("b", abs(b - B_CONST) <= 1e-9),
        ("c", abs(c - C_CONST) <= 1e-9),
        ("d", abs(d - D_CONST) <= 1e-9),
        ("d recorded", abs(model.fact.d - D_CONST) <= 1e-9),
        ("c/(di) = -ai", abs(c / (d * 1j) + a * 1j) <= 1e-9),
        ("1/(di) = -bi", abs(1.0 / (d * 1j) + b * 1j) <= 1e-9),
    ]
    _gate(2, "factorization constants", checks)


def test_criterion_03_model_scalars():
    model = build_model(parse_measure("1;i"))
    gram = model.gram_f
    checks = [
        ("O'(1)", abs(model.o_prime[0] - (-P_CONST - Q_CONST * 1j)) <= 1e-9),
        ("O'(i)", abs(model.o_prime[1] - (Q_CONST + P_CONST * 1j)) <= 1e-9),
        ("m", abs(gram[0, 0].real - M_CONST) <= 1e-9),
        ("(u, v)", abs(gram[0, 1] - (-U_CONST - V_CONST * 1j)) <= 1e-9),
        ("s", abs(model.b_inv[0, 1] - S_CONST) <= 1e-9),
        ("diagonal residue is real", abs(gram[0, 0].imag) < 1e-10),
    ]
    _gate(3, "model scalars", checks)


def test_criterion_04_identification_matrices():
    ident = build_identification(build_model(parse_measure("1;i")))
    p1, p2 = ident.p_polys
    checks = [
        ("a11", abs(ident.A[0, 0] - A11) <= 1e-8),
        ("a12", abs(ident.A[0, 1] - A12) <= 1e-8),
        ("a22", abs(ident.A[1, 1] - A22) <= 1e-8),
        ("P", float(np.max(np.abs(ident.P - P_MATRIX))) <= 1e-6),
        ("p1 z coeff", abs(p1[1] - P_MATRIX[0, 0]) <= 1e-6),
        ("p1 z^2 coeff", abs(p1[2] - P_MATRIX[0, 1]) <= 1e-6),
        ("p2 z coeff", abs(p2[1]) <= 1e-6),
        ("p2 z^2 coeff", abs(p2[2] - P_MATRIX[1, 1]) <= 1e-6),
        ("zero constant terms", abs(p1[0]) + abs(p2[0]) == 0.0),
    ]
    _gate(4, "identification matrices", checks)


def test_criterion_05_verdicts():
    start = time.perf_counter()
    counterexample = closed_form_test(parse_measure("1;i"))
    single = closed_form_test(make_measure([1j], [3.0]))
    antipodal = closed_form_test(parse_measure("1;-1"))
    elapsed = time.perf_counter() - start
    rp = counterexample.root_products
    checks = [
        ("verdict", counterexample.verdict == "NotSubnormal"),
        (
            "s_offdiag",
            abs(counterexample.s_offdiag - S_OFFDIAG)
            <= 1e-6 * abs(S_OFFDIAG),
        ),
        ("root product 1", abs(rp[0] - ROOT_PRODUCTS[0]) <= 1e-9),
        ("root product 2", abs(rp[1] - ROOT_PRODUCTS[1]) <= 1e-9),
        ("single atom", single.verdict == "KnownSubnormal"),
        ("antipodal", antipodal.verdict == "KnownSubnormal"),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _gate(5, "closed-form verdicts", checks)


def test_criterion_06_kernel_equality():
    model = build_model(parse_measure("1;i"))
    ident = build_identification(model)
    rng = np.random.default_rng(206)
    worst = 0.0
    for _ in range(200):
        u = rng.random(2)
        ang = rng.random(2)
        z = 0.9 * np.sqrt(u[0]) * np.exp(2j * np.pi * ang[0])
        lam = 0.9 * np.sqrt(u[1]) * np.exp(2j * np.pi * ang[1])
        full = kernel_full(model, z, lam)
        hb = kernel_hb(ident, z, lam)
        worst = max(worst, abs(hb - full) / abs(full))
    _gate(6, "kernel equality", [("max relative deviation", worst <= 1e-8)])


def _kernel_coeffs(model, lam, terms=40, radius=0.7, samples=128):
    theta = 2.0 * np.pi * np.arange(samples) / samples
    ring = radius * np.exp(1j * theta)
    vals = np.array([kernel_full(model, z, lam) for z in ring])
    coeffs = np.fft.fft(vals) / samples
    return coeffs[:terms] / radius ** np.arange(terms)


def test_criterion_07_reproducing_property():
    mu = parse_measure("1;i")
    model = build_model(mu)
    gram = gram_monomials(mu, 40)
    polys = [
        np.array([1.0 + 0j]),
        np.array([0.0, 1.0 + 0j]),
        np.array([1.0, 0.0, 0.0, -2.0 + 0j]),
        np.array([0.5, 0.0, 1j, 0.0, 0.0, 3.0 + 0j]),
        np.array([2.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0 + 1.0j]),
    ]
    rng = np.random.default_rng(207)
    worst = 0.0
    for _ in range(10):
        lam = 0.55 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        kvec = _kernel_coeffs(model, lam)
        for f in polys:
            fpad = np.pad(f, (0, 40 - f.size))
            paired = fpad @ gram @ np.conj(kvec)
            worst = max(worst, abs(paired - poly_eval(f, lam)))
    _gate(7, "reproducing property", [("max |<f, K> - f(lam)|", worst <= 1e-6)])


def test_criterion_08_gram_vs_quadrature():
    start = time.perf_counter()
    checks = []
    for text in CANONICAL:
        mu = parse_measure(text)
        gram = gram_monomials(mu, 7)
        for level, tol in ((2, 5e-3), (3, 1e-3)):
            worst = 0.0
            for n in range(7):
                for m in range(n + 1):
                    f = np.zeros(n + 1, dtype=complex)
                    f[n] = 1.0
                    g = np.zeros(m + 1, dtype=complex)
                    g[m] = 1.0
                    want = gram[n, m] - (1.0 if n == m else 0.0)
                    got = cross_energy(f, g, mu, level)
                    worst = max(worst, abs(got - want))
            checks.append((f"{text} level {level}", worst <= tol))
    checks.append(("runtime < 30 s", time.perf_counter() - start < 30.0))
    _gate(8, "gram vs quadrature", checks)


def test_criterion_09_operator_oracle():
    start = time.perf_counter()
    checks = []
    for text in CANONICAL:
        w = build_truncation(parse_measure(text), 64)
        checks.append((f"{text} defect", two_isometry_defect(w) < 1e-8))
        hyper = max(hyperexpansivity_max_eig(w, n) for n in (2, 3, 4))
        checks.append((f"{text} hyperexpansive", hyper <= 1e-6))
        dual = cauchy_dual(w)
        keep = w.N - w.margin
        nrm = float(np.linalg.norm(dual[:keep, :keep], 2))
        checks.append((f"{text} dual norm", nrm <= 1.0 + 1e-6))
        if text != "1;i":
            agler = min(agler_min_eig(dual, n, w.margin) for n in (1, 2, 3, 4))
            checks.append((f"{text} agler n<=4", agler >= -1e-6))
    curves = {n: [] for n in range(1, 7)}
    for size in (48, 64, 96):
        w = build_truncation(parse_measure("1;i"), size)
        dual = cauchy_dual(w)
        for n in curves:
            curves[n].append(agler_min_eig(dual, n, w.margin))
    for n, vals in curves.items():
        scale = max(abs(v) for v in vals)
        if scale > 1e-8:
            drift = (max(vals) - min(vals)) / scale
            checks.append((f"1;i agler n={n} drift", drift <= 0.10))
    # A negative high-order eigenvalue corroborates the closed-form
    # verdict but is deliberately not gated here; the regression value
    # is pinned in the operator tests.
    checks.append(("runtime < 60 s", time.perf_counter() - start < 60.0))
    _gate(9, "operator oracle", checks)


def test_criterion_10_rotation_invariance():
    base = closed_form_test(parse_measure("1;i"))
    checks = []
    for phi in (np.pi / 7.0, np.pi / 3.0, 1.0):
        rot = np.exp(1j * phi)
        res = closed_form_test(make_measure([rot, 1j * rot], [1.0, 1.0]))
        checks.append((f"verdict phi={phi:.3f}", res.verdict == base.verdict))
        dev = abs(abs(res.s_offdiag) - abs(base.s_offdiag))
        checks.append(
            (f"|s| phi={phi:.3f}", dev <= 1e-8 * abs(base.s_offdiag))
        )
    _gate(10, "rotation invariance", checks)


def test_criterion_11_determinism(tmp_path):
    mu = parse_measure("1;i")
    text_a = render_json(build_report(mu))
    text_b = render_json(build_report(mu))
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "cauchydual",
                "analyze",
                "--measure",
                "1;i",
                "--out",
                str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    checks = [
        ("library renders byte-identical", text_a == text_b),
        ("CLI reports byte-identical", paths[0].read_bytes() == paths[1].read_bytes()),
        ("report parses", bool(json.loads(paths[0].read_bytes()))),
    ]
    _gate(11, "determinism", checks)
