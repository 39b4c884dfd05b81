"""Each benchmark check accepts the program's real output and rejects a
corrupted copy of it, so none of them passes vacuously.

Run from the root of a checkout:

    python3 -m pytest -q benchmarks/test_checks.py
"""

import copy
import json

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed


def _report(case):
    doc, text = workloads._analyze(case, workloads.ANALYZE_TRUNC)
    return json.loads(text), text


@pytest.fixture(scope="module")
def cases():
    mix = workloads.analyze_mix_cases(0)
    return {"paper": mix[0], "antipodal": mix[1], "k8": mix[-7], "family": mix[-1]}


@pytest.fixture(scope="module")
def paper(cases):
    return _report(cases["paper"])


@pytest.fixture(scope="module")
def antipodal(cases):
    return _report(cases["antipodal"])


def _report_args(case):
    return case.points, case.weights, case.probes


def test_checks_accept_real_reports(cases):
    for case in cases.values():
        workloads._check_analysis(case, workloads._analyze(case, workloads.ANALYZE_TRUNC))


def _corrupt(doc, edit):
    bad = copy.deepcopy(doc)
    edit(bad)
    return bad


def _shift(entry, by):
    entry["re"] += by


def test_factorization_rejects_scaled_d(paper, cases):
    def edit(d):
        d["factorization"]["d"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="d\\|q\\|"):
        checks.check_factorization(_corrupt(paper[0], edit), *_report_args(cases["paper"])[:2])


def test_outer_roots_reject_shifted_root(paper, cases):
    bad = _corrupt(paper[0], lambda d: _shift(d["factorization"]["outer_roots"][0], 1e-6))
    with pytest.raises(CheckFailed, match="numpy.roots by"):
        checks.check_outer_roots(bad, *_report_args(cases["paper"])[:2])


def test_outer_roots_reject_inner_root(paper, cases):
    def edit(d):
        root = d["factorization"]["outer_roots"][0]
        inner = 1.0 / np.conj(complex(root["re"], root["im"]))
        root["re"], root["im"] = inner.real, inner.imag
    with pytest.raises(CheckFailed, match="closed disk"):
        checks.check_outer_roots(_corrupt(paper[0], edit), *_report_args(cases["paper"])[:2])


def test_identification_rejects_non_hermitian_a(paper):
    bad = _corrupt(paper[0], lambda d: _shift(d["identification"]["A"][0][1], 1e-6))
    with pytest.raises(CheckFailed, match="not Hermitian"):
        checks.check_identification(bad)


def test_identification_rejects_indefinite_a(paper):
    def edit(d):
        a = d["identification"]["A"]
        for i in range(len(a)):
            a[i][i]["re"] -= 10.0
    with pytest.raises(CheckFailed, match="eigenvalue"):
        checks.check_identification(_corrupt(paper[0], edit))


def test_identification_rejects_wrong_cholesky_factor(paper):
    bad = _corrupt(paper[0], lambda d: _shift(d["identification"]["P"][0][0], 1e-6))
    with pytest.raises(CheckFailed, match="P\\*P - A"):
        checks.check_identification(bad)


def test_kernels_reject_non_hermitian_b_inv(paper, cases):
    bad = _corrupt(paper[0], lambda d: _shift(d["dirichlet_model"]["b_inv"][0][1], 1e-4))
    with pytest.raises(CheckFailed, match="not Hermitian"):
        checks.check_kernels(bad, cases["paper"].probes)


def test_kernels_reject_wrong_origin_value(paper, cases):
    def edit(d):
        d["factorization"]["d"] *= 1.0 + 1e-4
    with pytest.raises(CheckFailed, match="K\\(z, 0\\)"):
        checks.check_kernels(_corrupt(paper[0], edit), cases["paper"].probes)


def test_kernels_reject_mismatched_a(paper, cases):
    def edit(d):
        a = d["identification"]["A"]
        a[-1][-1]["re"] *= 1.0 + 1e-4
    with pytest.raises(CheckFailed, match="kernel_full - kernel_hb"):
        checks.check_kernels(_corrupt(paper[0], edit), cases["paper"].probes)


def test_verdict_rejects_flipped_verdict(paper):
    bad = _corrupt(paper[0], lambda d: d["cdsp"].update(verdict="KnownSubnormal"))
    with pytest.raises(CheckFailed, match="expected NotSubnormal"):
        checks.check_verdict(bad, "NotSubnormal", None)


def test_verdict_rejects_rotation_change(paper):
    with pytest.raises(CheckFailed, match="rotated measure"):
        checks.check_verdict(paper[0], None, "Inconclusive")


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("two_isometry_defect", 1e-6, "defect"),
        ("cauchy_dual_interior_norm", 1.0 + 1e-5, "Cauchy dual norm"),
        ("hyperexpansivity_max_eig", {"2": 0.0, "3": 1e-5, "4": 0.0}, "hyperexpansivity"),
    ],
)
def test_oracle_rejects_out_of_bound_value(paper, key, value, match):
    bad = _corrupt(paper[0], lambda d: d["oracle"]["runs"][1].update({key: value}))
    with pytest.raises(CheckFailed, match=match):
        checks.check_oracle(bad)


def test_agler_rejects_negative_low_order(antipodal):
    bad = _corrupt(antipodal[0], lambda d: d["oracle"]["runs"][0]["agler_min_eig"].update({"3": -1e-5}))
    with pytest.raises(CheckFailed, match="Agler minimum"):
        checks.check_agler_subnormal(bad)


def test_order6_rejects_nonnegative_value(paper):
    bad = _corrupt(paper[0], lambda d: d["oracle"]["runs"][0]["agler_min_eig"].update({"6": 1e-3}))
    with pytest.raises(CheckFailed, match="not negative"):
        checks.check_paper_order6(bad)


def test_order6_rejects_drift_across_sizes(paper):
    def edit(d):
        curve = d["oracle"]["runs"][0]["agler_min_eig"]
        curve["6"] *= 1.05
    with pytest.raises(CheckFailed, match="vs N=96"):
        checks.check_paper_order6(_corrupt(paper[0], edit))


def test_render_rejects_changed_bytes(paper):
    with pytest.raises(CheckFailed, match="renders"):
        checks.check_render(paper[1], paper[1].replace("\n", "\r\n", 1))


@pytest.fixture(scope="module")
def pair():
    case = workloads.quadrature_cases(0)[-1]
    return case, workloads._pair(case)


def test_energy_accepts_real_values_and_rejects_offset(pair):
    case, values = pair
    workloads._check_pair(case, values)
    for level, got in zip(workloads.QUAD_LEVELS, values):
        with pytest.raises(CheckFailed, match="off by"):
            checks.check_energy(got + 1e-2, case.n, case.m, case.points, case.weights, level)


def test_energy_hermitian_rejects_offset(pair):
    case, values = pair
    swapped = workloads.cdsp.cross_energy(case.g, case.f, case.mu, workloads.QUAD_LEVELS[0])
    with pytest.raises(CheckFailed, match="not Hermitian"):
        checks.check_energy_hermitian(values[0], swapped + 1e-6)
