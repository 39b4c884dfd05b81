"""Report assembly, deterministic serialization, schema, and CSV."""

import json

import jsonschema
import numpy as np
import pytest

from cauchydual import (
    SchemaViolation,
    ValidationError,
    build_report,
    closed_form_test,
    make_measure,
    render_csv,
    render_json,
    sweep_angle,
    validate_report,
)
from cauchydual import cdsp, report
from cauchydual.report import (
    REPORT_SCHEMA,
    SWEEP_CSV_HEADER,
    _check,
    _cpx,
    _render,
)


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


def test_report_runs_no_two_norm(monkeypatch, canonical_mu):
    # No 2-norm runs: the dual's contraction gate, which the report reuses
    # as cauchy_dual_interior_norm, and the shift's norm both come from
    # factored defect forms.
    calls = []
    norm = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    doc = build_report(canonical_mu, trunc=128, nmax=6)
    assert len(doc["oracle"]["runs"]) == 4
    assert len(calls) == 0


def _count_builds(monkeypatch, name):
    """Record every ``name`` call that ``report`` or ``cdsp`` makes."""
    calls = []
    for module in (cdsp, report):
        monkeypatch.setattr(
            module, name,
            lambda m, real=getattr(module, name): calls.append(m) or real(m),
        )
    return calls


def test_report_builds_canonical_model_once(monkeypatch):
    # A two-atom report builds one model, in the input frame; the verdict
    # and the coupling read their canonical-frame values off it.
    mu = make_measure([np.exp(0.4j), np.exp(2.0j)], [1.0, 1.3])
    calls = _count_builds(monkeypatch, "build_model")
    doc = build_report(mu, skip_oracle=True)
    assert len(calls) == 1
    verdict = closed_form_test(mu)
    assert doc["cdsp"]["verdict"] == verdict.verdict
    assert doc["cdsp"]["s_offdiag"] == _cpx(verdict.s_offdiag)
    assert doc["cdsp"]["root_products"] == [_cpx(p) for p in verdict.root_products]
    assert doc["cdsp"]["coupling_det"] == _cpx(verdict.coupling_det)


@pytest.mark.parametrize("k", range(1, 9))
def test_report_builds_one_analysis_for_every_k(monkeypatch, seeded_measure, k):
    mu = seeded_measure(np.random.default_rng(70 + k), k)
    models = _count_builds(monkeypatch, "build_model")
    idents = _count_builds(monkeypatch, "build_identification")
    build_report(mu, skip_oracle=True)
    assert (len(models), len(idents)) == (1, 1)


@pytest.mark.parametrize("k", [7, 8])
def test_report_builds_on_spread_measures_with_wide_weights(k):
    # Atoms 360/k degrees apart, each moved by up to 15% of the spacing,
    # weights log-uniform in [0.3, 3]: numerators whose roots an
    # absolute residual test used to refuse.
    rng = np.random.default_rng(16 + k)
    spacing = 2.0 * np.pi / k
    for _ in range(30):
        angles = rng.uniform(0.0, 2.0 * np.pi) + spacing * (
            np.arange(k) + rng.uniform(-0.15, 0.15, k)
        )
        weights = np.exp(rng.uniform(np.log(0.3), np.log(3.0), k))
        mu = make_measure(list(np.exp(1j * angles)), list(weights))
        validate_report(build_report(mu, skip_oracle=True))


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
    with pytest.raises(SchemaViolation):
        validate_report(doc)


def test_validate_catches_extra_field(canonical_mu):
    doc = build_report(canonical_mu, skip_oracle=True)
    doc["unexpected"] = 1
    with pytest.raises(SchemaViolation):
        validate_report(doc)


def test_validate_catches_bad_verdict(canonical_mu):
    doc = build_report(canonical_mu, skip_oracle=True)
    doc["cdsp"]["verdict"] = "Maybe"
    with pytest.raises(SchemaViolation):
        validate_report(doc)


def _parity_reports():
    """Reports for seeded measures with 1-8 atoms, with and without the
    oracle, fewest atoms first."""
    rng = np.random.default_rng(20231)
    docs = []
    for k in range(1, 9):
        angles = (rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(k) / k
                  + rng.uniform(-0.2, 0.2, k) * np.pi / k)
        mu = make_measure(np.exp(1j * angles), rng.uniform(0.7, 1.4, k))
        for skip in (True, False):
            docs.append(render_json(build_report(mu, nmax=2, skip_oracle=skip)))
    return docs


def _nodes(value, path=()):
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _nodes(item, (*path, key))


_REPLACEMENTS = [None, True, 1, 1.5, "s", [], {}, {"re": 1.0}]


def _mutations(value):
    """Names and functions ``f(parent, key)`` that mutate one node in place."""
    def replace(new):
        return lambda parent, key: parent.__setitem__(key, new)

    def delete(parent, key):
        del parent[key]

    yield "delete", delete
    if isinstance(value, dict):
        # "7" is one of the curves' listed orders; "extra" matches nothing.
        yield "key 7", lambda parent, key: parent[key].__setitem__("7", 0.5)
        yield "key extra", lambda parent, key: parent[key].__setitem__("extra", 0)
    if isinstance(value, list):
        if value:
            yield "copy item", lambda parent, key: parent[key].append(parent[key][-1])
        yield "item 0", lambda parent, key: parent[key].append(0)
    for new in _REPLACEMENTS:
        yield f"replace {new!r}", replace(new)


def _shape(path, value):
    """Nodes with the same shape sit under the same subschema and hold the
    same JSON type: array indices and curve orders are generalized."""
    parts = tuple("[]" if isinstance(p, int) else "{n}" if p.isdigit() else p
                  for p in path)
    return parts, type(value).__name__, bool(value) if isinstance(value, list) else None


def _accepts(validate):
    try:
        validate()
    except SchemaViolation:
        return False
    return True


def test_validator_matches_jsonschema_on_mutated_reports():
    # jsonschema is the reference: the built-in validator must accept or
    # reject every mutated report exactly when Draft7Validator does.  A
    # mutation's outcome depends only on the node's shape (see _shape),
    # so each (shape, mutation) pair is checked once, in the first report
    # that holds it; every node below the root of every report is covered
    # by its shape.
    jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)
    reference = jsonschema.Draft7Validator(REPORT_SCHEMA)
    seen = set()
    checked = rejected = 0
    for text in _parity_reports():
        base = json.loads(text)
        assert reference.is_valid(base)
        validate_report(base)
        for path, value in _nodes(base):
            if not path:
                continue
            for name, mutate in _mutations(value):
                key = (_shape(path, value), name)
                if key in seen:
                    continue
                seen.add(key)
                doc = json.loads(text)
                parent = doc
                for part in path[:-1]:
                    parent = parent[part]
                mutate(parent, path[-1])
                expected = reference.is_valid(doc)
                got = _accepts(lambda: _check(doc, REPORT_SCHEMA, "$"))
                assert got == expected, (path, name)
                checked += 1
                rejected += not expected
                # validate_report checks the rendered text, which the
                # serializer may refuse (a string in a complex pair) or
                # coerce (a bool there prints as a number).
                try:
                    rendered = json.loads(render_json(doc))
                except (TypeError, ValueError) as exc:
                    with pytest.raises(type(exc)):
                        validate_report(doc)
                    continue
                if json.dumps(rendered) != json.dumps(doc):
                    expected = reference.is_valid(rendered)
                assert _accepts(lambda: validate_report(doc)) == expected, (path, name)
    assert checked > 1000 and 0 < rejected < checked


def test_validator_names_the_path(canonical_mu):
    doc = build_report(canonical_mu, nmax=2)
    doc["oracle"]["runs"][1]["agler_min_eig"]["2"] = "x"
    # A violation inside the nullable oracle is named at its own path.
    with pytest.raises(SchemaViolation) as exc:
        validate_report(doc)
    assert str(exc.value) == (
        '$.oracle.runs[1].agler_min_eig["2"]: expected number, got string'
    )
    doc = build_report(canonical_mu, skip_oracle=True)
    doc["cdsp"]["verdict"] = True
    with pytest.raises(SchemaViolation, match=r"^\$\.cdsp\.verdict: "):
        validate_report(doc)


def test_validator_refuses_unknown_keywords():
    for schema in (
        {"type": "number", "minimum": 0},
        {"type": "array", "items": {"additionalProperties": {"type": "string"}}},
        {"type": "array", "items": [{"type": "number"}]},
        {"$ref": "#/$defs/x"},
        {"oneOf": [{"type": "number"}, {"type": "null"}]},
        {"type": "object", "patternProperties": {"^[0-9]+$": {"type": "number"}}},
        {"const": 1},
        {"enum": [1, "a"]},
        {"type": "array", "items": {"const": None}},
    ):
        with pytest.raises(NotImplementedError):
            _check([{"a": 1}], schema, "$")
    with pytest.raises(NotImplementedError, match="minimum"):
        _check(1, {"minimum": 0}, "$")


def _draft7(schema):
    return lambda value: _check(value, schema, "$")


def test_validator_draft7_types_and_equality():
    integer = _draft7({"type": "integer"})
    integer(3)
    integer(3.0)
    for bad in (True, 3.5, "3", None):
        with pytest.raises(SchemaViolation, match=r"^\$: expected integer"):
            integer(bad)
    with pytest.raises(SchemaViolation, match="got boolean"):
        _draft7({"type": "number"})(False)
    _draft7({"type": ["string", "null"]})(None)
    # const and enum take strings only: other literals would need draft-07
    # equality (1 == 1.0, True != 1), which no schema entry uses.
    for schema, value in (
        ({"const": 1}, 1.0),
        ({"enum": [1, "a"]}, "a"),
        ({"const": [1]}, [1]),
    ):
        with pytest.raises(NotImplementedError, match="const and enum"):
            _draft7(schema)(value)
    _draft7({"enum": ["a", "b"]})("b")
    for bad in ("1", 1, True, None):
        with pytest.raises(SchemaViolation):
            _draft7({"const": "a"})(bad)
    with pytest.raises(SchemaViolation, match="is not one of"):
        _draft7({"enum": ["a", "b"]})(1)
    curve = _draft7(report._CURVE)
    curve({"1": 0.5, "10": -0.5})
    for bad in ({"10": "x"}, {"0": 0.5}, {"11": 0.5}, {"x1": 0.5}):
        with pytest.raises(SchemaViolation):
            curve(bad)

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
    assert len(fields) == 6
    assert fields[0] == "90"
    assert fields[1] == "NotSubnormal"
    assert float(fields[2]) < -100.0
    assert float(fields[3]) == 0.0
    assert lines[2].split(",")[1] == "KnownSubnormal"
    assert text.endswith("\n")


def test_csv_error_row():
    rows = sweep_angle([181.0])
    lines = render_csv(rows).splitlines()
    assert lines[1] == "181,ERROR:ValidationError,,,,"
    assert lines[1].count(",") == SWEEP_CSV_HEADER.count(",")


def test_csv_matches_row_values():
    row = sweep_angle([120.0])[0]
    fields = render_csv([row]).splitlines()[1].split(",")
    assert float(fields[2]) == row.verdict.s_offdiag.real
    assert float(fields[4]) == row.verdict.root_products[0].real
    assert float(fields[5]) == row.verdict.root_products[0].imag


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


def test_validate_rejects_non_numeric_complex_parts(canonical_mu):
    # A {"re", "im"} dict renders compactly only when both parts are real
    # numbers; anything else is rendered as it is and refused by the schema.
    doc = build_report(canonical_mu, skip_oracle=True)
    doc["cdsp"]["s_offdiag"] = {"re": True, "im": "2.5"}
    assert '"re": true' in render_json(doc)
    with pytest.raises(SchemaViolation, match=r"^\$\.cdsp\.s_offdiag"):
        validate_report(doc)


def test_validate_returns_the_checked_text(canonical_mu):
    doc = build_report(canonical_mu, skip_oracle=True)
    assert validate_report(doc) == render_json(doc)


@pytest.mark.parametrize("nmax", [0, -3, 11])
@pytest.mark.parametrize("skip", [False, True])
def test_report_rejects_nmax_outside_range(canonical_mu, nmax, skip):
    with pytest.raises(ValidationError, match=r"defect order must be in 1\.\.10"):
        build_report(canonical_mu, nmax=nmax, skip_oracle=skip)


@pytest.mark.parametrize("skip", [False, True])
def test_report_rejects_trunc_below_8(canonical_mu, skip):
    with pytest.raises(ValidationError, match=r"^truncation size must be at least 8, got 7$"):
        build_report(canonical_mu, trunc=7, skip_oracle=skip)
    with pytest.raises(ValidationError, match=r"^truncation size 4097 is above the cap"):
        build_report(canonical_mu, trunc=4097, skip_oracle=skip)
