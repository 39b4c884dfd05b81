"""Selftest rows print only the digits their checks pin."""

import itertools

import numpy as np
import pytest

from cauchydual import cdsp, make_measure, selftest

CHECKS = {check.check_id: check for check in selftest._registry()}


@pytest.fixture(scope="module")
def ctx():
    return selftest._context()


def _nudged(observed):
    """Observed value moved by round-off: relative 1e-13, absolute 1e-15."""
    dirs = (1, -1, 1j, -1j) if np.iscomplexobj(observed) else (1, -1)
    for rel, shift in itertools.product((0,) + dirs, (0,) + dirs):
        yield observed * (1 + 1e-13 * rel) + 1e-15 * shift


@pytest.mark.parametrize("check_id", selftest.list_checks())
def test_row_bytes_survive_roundoff(check_id, ctx):
    check = CHECKS[check_id]
    observed, expected, tol = check.fn(ctx)
    base = selftest._render(check, observed, expected, tol)
    assert base.status == "PASS"
    if isinstance(observed, str):
        return
    for value in _nudged(observed):
        assert selftest._render(check, value, expected, tol).line == base.line


def test_quadrature_row_same_on_both_machines():
    # The value pinned in docs/reproduction.md and one seen elsewhere;
    # they differ at the 11th digit from platform summation order.
    check = CHECKS["gram.quadrature"]
    tol = selftest._QUAD_SPOT_TOL
    lines = {
        selftest._render(check, value, 0.0, tol).line
        for value in (7.03896780762358e-05, 7.03896780781199e-05)
    }
    assert lines == {"PASS gram.quadrature        observed=0.00007 bound=0.02"}


def test_fmt_rounds_to_resolution():
    assert selftest._fmt(2.535797111181669, 1e-9) == "2.535797111"
    assert selftest._fmt(-230.71926357347, 2.3e-4) == "-230.7193"
    assert selftest._fmt(-1e-17, 1e-9) == "0"
    assert selftest._fmt(0.427855055590367 - 1.65e-17j, 1e-9) == "0.427855056"
    assert selftest._fmt(-5.46269136247035 - 5.46269136247035j, 1e-8) == (
        "-5.46269136-5.46269136i"
    )
    assert selftest._fmt(1234.5, 100.0) == "1200"
    assert selftest._fmt("NotSubnormal", None) == "NotSubnormal"


def test_resolution_per_mode():
    assert selftest._resolution("abs", 3.0, 1e-9) == 1e-9
    assert selftest._resolution("rel", -200.0, 1e-6) == pytest.approx(2e-4)
    assert selftest._resolution("upper", 0.0, 2e-2) == pytest.approx(1e-5)
    assert selftest._resolution("exact", "x", None) is None


def _field(line, name):
    return next(t for t in line.split() if t.startswith(name + "="))


def _perturbed(observed, expected):
    """The observed value moved well past any row's tolerance."""
    if isinstance(observed, str):
        return observed + "X"
    ref = abs(complex(expected)) if expected is not None else 0.0
    return complex(observed) + 1e-3 * (1.0 + ref)


def test_failed_rows_show_the_mismatch(ctx):
    failed = set()
    for check_id, check in CHECKS.items():
        observed, expected, tol = check.fn(ctx)
        result = selftest._render(check, _perturbed(observed, expected), expected, tol)
        if result.status != "FAIL":
            continue
        failed.add(check_id)
        if "expected=" in result.line:
            observed = _field(result.line, "observed").split("=", 1)[1]
            expected = _field(result.line, "expected").split("=", 1)[1]
            assert observed != expected, result.line
    assert "cdsp.s_offdiag" in failed


def test_selftest_builds_the_reference_analysis_once(monkeypatch):
    models, kernel_runs = [], []
    for module in (selftest, cdsp):
        monkeypatch.setattr(
            module, "build_model",
            lambda m, real=module.build_model: models.append(m) or real(m),
        )
    monkeypatch.setattr(
        selftest, "_kernel_checks",
        lambda *args, real=selftest._kernel_checks: kernel_runs.append(args) or real(*args),
    )
    assert selftest.run_selftest()[1] == 0
    reference = make_measure([1.0 + 0j, 1j], [1.0, 1.0])
    assert sum(mu == reference for mu in models) == 1
    assert len(kernel_runs) == 1
