"""The exact k x k Agler forms of the Cauchy dual, against the truncation.

By the local Dirichlet formula every interior Agler form ``B_n`` of the
Cauchy dual has rank k, on the span of the boundary functions ``f_r``.
There it reads ``H_n``, built from the boundary Gram matrix alone.  With
``P = conj(gram_f) = R* R`` (``R`` upper triangular), ``Gamma =
diag(weights)`` and ``Z = diag(points)``:

    X = R Z (P + Gamma)^-1 R*,    H_1 = I - R (P + Gamma)^-1 R*,
    H_n = H_{n-1} - X* H_{n-1} X.

``X`` is not ``identification.A``, the H(B) matrix.  docs/walkthrough.md
derives the form.
"""

import numpy as np
import pytest

from cauchydual import ToolkitError, build_model, parse_measure
from cauchydual.cdsp import _oracle_run, build_truncation

EIGHT = "deg:10;deg:55:w=1.3;deg:100;deg:150:w=0.8;deg:200;deg:245:w=1.2;deg:290;deg:330:w=0.9"
MEASURES = ["1;i", "deg:0;deg:30", "deg:0;deg:170", "1;i;-1:w=2", "deg:0;deg:15", EIGHT]
IDS = ["1;i", "30deg", "170deg", "1;i;-1:w=2", "15deg", "eight"]
ORDERS = range(1, 11)


def _form(model):
    """``(X, H_1)`` of the model's measure."""
    mu = model.mu
    p = np.conj(model.gram_f)
    r = np.linalg.cholesky(p).conj().T
    s = np.linalg.solve(p + np.diag(mu.weights), r.conj().T)
    return r @ np.diag(mu.points) @ s, np.eye(mu.k) - r @ s


def _curve(x, h):
    """``lambda_min(H_n)`` at every order in ORDERS."""
    mins = []
    for _ in ORDERS:
        mins.append(np.linalg.eigvalsh(h)[0])
        h = h - x.conj().T @ h @ x
    return mins


@pytest.mark.parametrize("text", MEASURES, ids=IDS)
def test_eigenvalues_of_x_are_the_inner_roots(text):
    model = build_model(parse_measure(text))
    eigs = np.linalg.eigvals(_form(model)[0])
    inner = 1.0 / np.conj(model.fact.outer_roots)
    gaps = np.abs(eigs[:, None] - inner[None, :])
    # One eigenvalue per inner root, each within 1e-12 (5.6e-14 at most).
    assert sorted(np.argmin(gaps, axis=1)) == list(range(model.mu.k))
    assert np.max(np.min(gaps, axis=1)) <= 1e-12


@pytest.mark.parametrize("text", MEASURES, ids=IDS)
def test_agler_minima_match_the_truncation_at_every_order(text):
    # The truncation's interior minimum is 0 wherever H_n is positive
    # semidefinite, since B_n has rank k; the gap is 2.2e-12 at most.
    mu = parse_measure(text)
    exact = _curve(*_form(build_model(mu)))
    run = _oracle_run(build_truncation(mu, 256), max(ORDERS))["agler_min_eig"]
    for n, value in zip(ORDERS, exact):
        assert abs(min(0.0, value) - run[str(n)]) <= 1e-10, n


def test_paper_counterexample_first_fails_at_order_6():
    mins = _curve(*_form(build_model(parse_measure("1;i"))))[:6]
    assert [round(v, 4) for v in mins] == [0.3557, 0.2453, 0.1526, 0.0801, 0.0263, -0.0120]


def test_h1_is_positive_definite_on_the_hostile_grid(hostile_texts):
    # Gamma > 0 gives R (P + Gamma)^-1 R* < R P^-1 R* = I.  eig(X) is not
    # checked here: it drifts from the inner roots by up to 8.1e-6 on this
    # grid, the model's own error.
    ratios = []
    for text in hostile_texts:
        try:
            model = build_model(parse_measure(text))
        except ToolkitError:
            continue
        eigs = np.linalg.eigvalsh(_form(model)[1])
        ratios.append(eigs[0] / eigs[-1])
    # 385 models build; the smallest ratio is 4.74e-5.
    assert len(ratios) >= 385
    assert min(ratios) >= 1e-5
