"""Selftest rows print only the digits their checks pin."""

import itertools

import numpy as np
import pytest

from cauchydual import cdsp, make_measure, selftest

CHECKS = {check.check_id: check for check in selftest.CHECKS}


@pytest.fixture(scope="module")
def observed():
    return selftest._observe()


def _nudged(observed):
    """Observed value moved by round-off: relative 1e-13, absolute 1e-15."""
    dirs = (1, -1, 1j, -1j) if np.iscomplexobj(observed) else (1, -1)
    for rel, shift in itertools.product((0,) + dirs, (0,) + dirs):
        yield observed * (1 + 1e-13 * rel) + 1e-15 * shift


def test_table_ids_are_unique():
    ids = [check.check_id for check in selftest.CHECKS]
    assert len(ids) == len(set(ids)) == 36
    assert selftest.list_checks() == ids


def test_list_checks_builds_no_analysis(monkeypatch):
    def refuse(mu):
        raise AssertionError("list_checks built a model")

    for module in (selftest, cdsp):
        monkeypatch.setattr(module, "build_model", refuse)
    assert selftest.list_checks()[0] == "roots.quartic.1"


def test_observe_keys_match_the_table(observed):
    assert set(observed) == set(CHECKS)


@pytest.mark.parametrize("check_id", selftest.list_checks())
def test_row_bytes_survive_roundoff(check_id, observed):
    check = CHECKS[check_id]
    base = selftest._render(check, observed[check_id])
    assert base.status == "PASS"
    if isinstance(observed[check_id], str):
        return
    for value in _nudged(observed[check_id]):
        assert selftest._render(check, value).line == base.line


def test_quadrature_row_same_on_both_machines():
    # The value pinned in docs/reproduction.md and one seen elsewhere;
    # they differ at the 11th digit from platform summation order.
    check = CHECKS["gram.quadrature"]
    lines = {
        selftest._render(check, value).line
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


def test_failed_rows_show_the_mismatch(observed):
    failed = set()
    for check_id, check in CHECKS.items():
        result = selftest._render(check, _perturbed(observed[check_id], check.expected))
        if result.status != "FAIL":
            continue
        failed.add(check_id)
        if "expected=" in result.line:
            shown = _field(result.line, "observed").split("=", 1)[1]
            expected = _field(result.line, "expected").split("=", 1)[1]
            assert shown != expected, result.line
    assert "cdsp.s_offdiag" in failed


def test_selftest_builds_the_reference_analysis_once(monkeypatch):
    models, root_runs, passes = [], [], []
    for module in (selftest, cdsp):
        monkeypatch.setattr(
            module, "build_model",
            lambda m, real=module.build_model: models.append(m) or real(m),
        )
    monkeypatch.setattr(
        selftest, "find_roots",
        lambda *args, real=selftest.find_roots, **kw: root_runs.append(args) or real(*args, **kw),
    )
    monkeypatch.setattr(
        selftest, "_observe", lambda real=selftest._observe: passes.append(1) or real()
    )
    assert selftest.run_selftest()[1] == 0
    reference = make_measure([1.0 + 0j, 1j], [1.0, 1.0])
    assert sum(mu == reference for mu in models) == 1
    assert (len(root_runs), len(passes)) == (1, 1)
