"""Report assembly, deterministic serialization, schema, and CSV."""

import json

import jsonschema
import numpy as np
import pytest

from cauchydual import (
    build_report,
    make_measure,
    render_csv,
    render_json,
    sweep_angle,
    validate_report,
)
from cauchydual.report import SWEEP_CSV_HEADER, _render


def test_report_validates_with_oracle(canonical_mu):
    doc = build_report(canonical_mu, trunc=48, nmax=3)
    validate_report(doc)
    sizes = [run["N"] for run in doc["oracle"]["runs"]]
    assert sizes == [48, 64, 96]
    run = doc["oracle"]["runs"][0]
    assert set(run["agler_min_eig"]) == {"1", "2", "3"}
    assert set(run["hyperexpansivity_max_eig"]) == {"2", "3", "4"}


def test_report_extra_trunc_size(canonical_mu):
    doc = build_report(canonical_mu, trunc=80, nmax=2, skip_oracle=False)
    assert [run["N"] for run in doc["oracle"]["runs"]] == [48, 64, 80, 96]


def test_report_two_norm_svds_per_size(monkeypatch, canonical_mu):
    # One 2-norm for the shift and one for the dual's contraction gate,
    # which the report reuses as cauchy_dual_interior_norm.
    calls = []
    norm = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    doc = build_report(canonical_mu, trunc=128, nmax=6)
    assert len(doc["oracle"]["runs"]) == 4
    assert len(calls) == 2 * 4


def test_report_skip_oracle(canonical_mu):
    doc = build_report(canonical_mu, skip_oracle=True)
    validate_report(doc)
    assert doc["oracle"] is None


def test_report_single_atom_nulls(single_mu):
    doc = build_report(single_mu, skip_oracle=True)
    validate_report(doc)
    fact = doc["factorization"]
    assert fact["a"] is None and fact["b"] is None and fact["c"] is None
    assert fact["d"] > 0.0
    assert doc["dirichlet_model"]["s"] is None
    assert doc["cdsp"]["s_offdiag"] is None
    assert doc["cdsp"]["coupling_det"] is None
    assert doc["cdsp"]["verdict"] == "KnownSubnormal"


def test_report_canonical_form_constants(canonical_mu):
    fact = build_report(canonical_mu, skip_oracle=True)["factorization"]
    assert abs(fact["a"] - 2.53579711118167) <= 1e-9
    assert abs(fact["b"] - 5.46269136247034) <= 1e-8
    assert abs(fact["c"] - 0.464202888818329) <= 1e-9
    assert abs(fact["d"] - 0.183059948594236) <= 1e-9


def test_render_deterministic(canonical_mu):
    a = render_json(build_report(canonical_mu, skip_oracle=True))
    b = render_json(build_report(canonical_mu, skip_oracle=True))
    assert a == b
    assert a.endswith("\n")


def test_render_parse_round_trip(canonical_mu):
    # Parsing the rendered text and rendering again must reproduce the
    # bytes: 17 significant digits round-trip every double.
    doc = build_report(canonical_mu, skip_oracle=True)
    text = render_json(doc)
    assert render_json(json.loads(text)) == text


def test_render_scalars():
    assert _render(None, 0) == "null"
    assert _render(True, 0) == "true"
    assert _render(7, 0) == "7"
    assert _render(0.1, 0) == "0.10000000000000001"
    assert _render(1.0 + 2.0j, 0) == '{"re": 1, "im": 2}'
    assert _render("a\"b", 0) == '"a\\"b"'
    assert _render([], 0) == "[]"
    assert _render({}, 0) == "{}"


def test_render_rejects_non_finite():
    with pytest.raises(ValueError):
        render_json({"x": float("nan")})
    with pytest.raises(ValueError):
        render_json({"x": float("inf")})


def test_render_rejects_unknown_type():
    with pytest.raises(TypeError):
        render_json({"x": object()})


def test_validate_catches_missing_field(canonical_mu):
    doc = build_report(canonical_mu, skip_oracle=True)
    del doc["cdsp"]["verdict"]
    with pytest.raises(jsonschema.ValidationError):
        validate_report(doc)


def test_validate_catches_extra_field(canonical_mu):
    doc = build_report(canonical_mu, skip_oracle=True)
    doc["unexpected"] = 1
    with pytest.raises(jsonschema.ValidationError):
        validate_report(doc)


def test_validate_catches_bad_verdict(canonical_mu):
    doc = build_report(canonical_mu, skip_oracle=True)
    doc["cdsp"]["verdict"] = "Maybe"
    with pytest.raises(jsonschema.ValidationError):
        validate_report(doc)


def test_meta_block(canonical_mu):
    meta = build_report(canonical_mu, skip_oracle=True)["meta"]
    assert meta["wall_time_s"] is None
    assert meta["seed"] == 0
    assert "dual_contraction_gate" in meta["tolerances"]


def test_csv_header_and_rows():
    rows = sweep_angle([90.0, 180.0])
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert len(fields) == 7
    assert fields[0] == "90"
    assert fields[1] == "NotSubnormal"
    assert float(fields[2]) < -100.0
    assert float(fields[3]) == 0.0
    assert abs(float(fields[6])) < 1e-6
    assert lines[2].split(",")[1] == "KnownSubnormal"
    assert text.endswith("\n")


def test_csv_error_row():
    rows = sweep_angle([181.0])
    lines = render_csv(rows).splitlines()
    assert lines[1] == "181,ERROR:ValidationError,,,,,"


def test_csv_matches_row_values():
    row = sweep_angle([120.0])[0]
    fields = render_csv([row]).splitlines()[1].split(",")
    assert float(fields[2]) == row.verdict.s_offdiag.real
    assert float(fields[4]) == row.verdict.root_products[0].real
    assert float(fields[6]) == row.min_agler_n2


def test_report_rotation_keeps_verdict(canonical_mu):
    # The cdsp block is frame-pinned, so a rotated input reports the
    # same verdict and overlap magnitude.
    rot = np.exp(1j * np.pi / 7.0)
    doc_a = build_report(canonical_mu, skip_oracle=True)
    doc_b = build_report(
        make_measure([rot, 1j * rot], [1.0, 1.0]), skip_oracle=True
    )
    assert doc_a["cdsp"]["verdict"] == doc_b["cdsp"]["verdict"]
    sa = doc_a["cdsp"]["s_offdiag"]
    sb = doc_b["cdsp"]["s_offdiag"]
    assert abs(sa["re"] - sb["re"]) <= 1e-8 * abs(sa["re"])
