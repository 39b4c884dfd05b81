"""Deterministic report assembly and serialization.

Reports are plain nested dicts rendered to JSON by a custom serializer:
insertion-ordered keys, floats printed with 17 significant digits (enough
to round-trip doubles), and complex numbers as ``{"re": ..., "im": ...}``
objects.  Two runs with identical inputs produce byte-identical output;
for that reason wall time is reported on standard error by the CLI and
the report's ``meta.wall_time_s`` field is always null.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .cdsp import (
    AGLER_ORDERS,
    _check_oracle_size,
    _check_order,
    _check_size,
    _oracle_run,
    build_truncation,
    closed_form_test,
)
from .debranges import build_identification
from .dirichlet import build_model
from .errors import SchemaViolation
from .measure import format_measure

__all__ = [
    "build_report",
    "render_json",
    "render_csv",
    "validate_report",
    "REPORT_SCHEMA",
    "SWEEP_CSV_HEADER",
]

SWEEP_CSV_HEADER = "theta_deg,verdict,s_offdiag_re,s_offdiag_im,rootprod_re,rootprod_im"

TOLERANCES = {
    # find_roots' bound on each root's componentwise backward error.
    "root_residual": 1e-10,
    "boundary_root": 1e-8,
    "factorization_identity_rel": 1e-9,
    "gram_min_eig": 1e-10,
    "interpolation_residual": 1e-8,
    "psd_min_eig_rel": 1e-8,
    "cholesky_reconstruction_rel": 1e-9,
    "verdict_overlap_rel": 1e-8,
    "ray_band": 1e-10,
    "dual_contraction_gate": 1e-6,
}

def _object(properties):
    """Closed JSON object schema in which every listed property is required."""
    return {
        "type": "object",
        "required": list(properties),
        "additionalProperties": False,
        "properties": properties,
    }


def _or_null(schema):
    """``schema`` that also accepts null: draft-07 applies the object
    keywords only to objects."""
    return {**schema, "type": [schema["type"], "null"]}


_COMPLEX = _object({"re": {"type": "number"}, "im": {"type": "number"}})
_COMPLEX_OR_NULL = _or_null(_COMPLEX)
_NUMBER_OR_NULL = {"type": ["number", "null"]}
_COMPLEX_VECTOR = {"type": "array", "items": _COMPLEX}
_COMPLEX_MATRIX = {"type": "array", "items": _COMPLEX_VECTOR}
_CURVE = {
    "type": "object",
    "properties": {str(n): {"type": "number"} for n in AGLER_ORDERS},
    "additionalProperties": False,
}
_POINT_MASS = _object({"point": _COMPLEX, "weight": {"type": "number"}})
_ORACLE_RUN = _object(
    {
        "N": {"type": "integer"},
        "shift_norm": {"type": "number"},
        "two_isometry_defect": {"type": "number"},
        "cauchy_dual_interior_norm": {"type": "number"},
        "agler_min_eig": _CURVE,
        "hyperexpansivity_max_eig": _CURVE,
    }
)

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    **_object(
        {
            "schema_version": {"const": "1"},
            "measure": _object(
                {
                    "text": {"type": "string"},
                    "atoms": {"type": "array", "items": _POINT_MASS},
                }
            ),
            "factorization": _object(
                {
                    "outer_roots": _COMPLEX_VECTOR,
                    "inner_roots": _COMPLEX_VECTOR,
                    "q": _COMPLEX_VECTOR,
                    "a": _NUMBER_OR_NULL,
                    "b": _NUMBER_OR_NULL,
                    "c": _NUMBER_OR_NULL,
                    "d": {"type": "number"},
                }
            ),
            "dirichlet_model": _object(
                {
                    "o_prime": _COMPLEX_VECTOR,
                    "gram_f": _COMPLEX_MATRIX,
                    "b_inv": _COMPLEX_MATRIX,
                    "s": _COMPLEX_OR_NULL,
                    "m": _NUMBER_OR_NULL,
                }
            ),
            "identification": _object(
                {"A": _COMPLEX_MATRIX, "P": _COMPLEX_MATRIX, "p_polys": _COMPLEX_MATRIX}
            ),
            "cdsp": _object(
                {
                    "verdict": {
                        "enum": ["NotSubnormal", "KnownSubnormal", "Inconclusive"]
                    },
                    "s_offdiag": _COMPLEX_OR_NULL,
                    "root_products": _COMPLEX_VECTOR,
                    "coupling_det": _COMPLEX_OR_NULL,
                    "citations": {"type": "array", "items": {"type": "string"}},
                }
            ),
            "oracle": _or_null(
                _object({"runs": {"type": "array", "items": _ORACLE_RUN}})
            ),
            "meta": _object(
                {
                    "tolerances": {"type": "object"},
                    "wall_time_s": {"type": "null"},
                    "seed": {"type": "integer"},
                }
            ),
        }
    ),
}


# Draft-07 type names; a bool is not a number, and an integral float is an
# integer.  The first name that fits a value is its name in messages.
_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}
_KEYWORDS = {"$schema", "type", "required", "properties", "additionalProperties",
             "items", "const", "enum"}


def _equal(a, b):
    """Draft-07 equality: ``True`` is not ``1``, but ``1`` equals ``1.0``."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _child(key):
    return f".{key}" if key.isidentifier() else f"[{json.dumps(key)}]"


def _fail(path, message):
    raise SchemaViolation(f"{path}: {message}")


def _check(value, schema, path):
    """Raise :class:`SchemaViolation` at the first part of ``value`` that
    breaks the draft-07 ``schema``, naming its JSON path.

    Only the keywords in ``_KEYWORDS`` are implemented.  Any other keyword
    raises ``NotImplementedError`` wherever its schema is reached; none is
    ignored.
    """
    if not _KEYWORDS.issuperset(schema):
        unknown = sorted(set(schema) - _KEYWORDS)
        raise NotImplementedError(f"schema keywords not implemented: {unknown}")
    names = schema.get("type")
    if names is not None:
        names = (names,) if isinstance(names, str) else names
        if not any(_TYPES[name](value) for name in names):
            got = next(name for name, test in _TYPES.items() if test(value))
            _fail(path, f"expected {' or '.join(names)}, got {got}")
    if "const" in schema and not _equal(value, schema["const"]):
        _fail(path, f"expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and not any(_equal(value, o) for o in schema["enum"]):
        _fail(path, f"{value!r} is not one of {schema['enum']!r}")
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                _fail(path + _child(name), "required property is missing")
        props = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        if not isinstance(additional, bool):
            raise NotImplementedError("additionalProperties other than true or false")
        for key, item in value.items():
            if key in props:
                _check(item, props[key], path + _child(key))
            elif not additional:
                _fail(path + _child(key), "property is not allowed")
    if isinstance(value, list) and "items" in schema:
        if not isinstance(schema["items"], dict):
            raise NotImplementedError("items other than a single schema")
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{path}[{i}]")


def _cpx(value):
    if value is None:
        return None
    value = complex(value)
    return {"re": float(value.real), "im": float(value.imag)}


def _cvec(values):
    return [_cpx(v) for v in np.asarray(values, dtype=complex).ravel()]


def _cmat(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return [[_cpx(v) for v in row] for row in matrix]


def _canonical_form_constants(model):
    """Fit of q to the right-angle canonical form z^2 - a(1+i)z + b*i.

    Returns (a, b, c) or (None, None, None) when the form does not fit.
    The companion identities are b = 1/d and c = a*d.
    """
    q = model.fact.q
    d = model.fact.d
    if q.size != 3:
        return None, None, None
    a_cand = -q[1] / (1.0 + 1j)
    b = 1.0 / d
    if abs(a_cand.imag) > 1e-9 * (1.0 + abs(a_cand)):
        return None, None, None
    if abs(q[0] - 1j * b) > 1e-9 * max(1.0, abs(q[0])):
        return None, None, None
    a = float(a_cand.real)
    return a, float(b), float(a * d)


def build_report(mu, trunc=64, nmax=6, skip_oracle=False):
    """Assemble the full analysis report for a measure.

    Parameters
    ----------
    mu : MeasureSpec
    trunc : int, optional
        Extra truncation size to include in the oracle runs (the sizes
        48, 64, 96 always run so cross-size stability is visible).
    nmax : int, optional
        Largest defect order for the Agler curves, ``1 <= nmax <= 10``.
    skip_oracle : bool, optional
        Skip the truncated-operator section entirely.

    Returns
    -------
    dict
        JSON-ready nested structure (validate with
        :func:`validate_report`).

    Raises
    ------
    ValidationError
        If ``nmax`` lies outside ``1..10``, ``trunc`` outside
        ``8..MAX_TRUNC``, or, with the oracle, ``trunc`` below ``max(10, nmax + 6)``.
    """
    _check_order(nmax, AGLER_ORDERS, "defect")
    _check_size(trunc)
    if not skip_oracle:
        _check_oracle_size(trunc, nmax)
    model = build_model(mu)
    ident = build_identification(model)
    verdict = closed_form_test(mu, (model, ident))
    a, b, c = _canonical_form_constants(model)

    doc = {
        "schema_version": "1",
        "measure": {
            "text": format_measure(mu),
            "atoms": [
                {"point": _cpx(p), "weight": float(w)} for p, w in mu.atoms
            ],
        },
        "factorization": {
            "outer_roots": _cvec(model.fact.outer_roots),
            "inner_roots": _cvec(model.fact.inner_roots),
            "q": _cvec(model.fact.q),
            "a": a,
            "b": b,
            "c": c,
            "d": float(model.fact.d),
        },
        "dirichlet_model": {
            "o_prime": _cvec(model.o_prime),
            "gram_f": _cmat(model.gram_f),
            "b_inv": _cmat(model.b_inv),
            "s": _cpx(model.b_inv[0, 1]) if mu.k >= 2 else None,
            "m": float(model.gram_f[0, 0].real),
        },
        "identification": {
            "A": _cmat(ident.A),
            "P": _cmat(ident.P),
            "p_polys": [_cvec(pj) for pj in ident.p_polys],
        },
        "cdsp": {
            "verdict": verdict.verdict,
            "s_offdiag": _cpx(verdict.s_offdiag),
            "root_products": _cvec(verdict.root_products),
            "coupling_det": _cpx(verdict.coupling_det),
            "citations": list(verdict.citations),
        },
        "oracle": None,
        "meta": {
            "tolerances": dict(TOLERANCES),
            "wall_time_s": None,
            "seed": 0,
        },
    }

    if not skip_oracle:
        runs = [
            _oracle_run(build_truncation(mu, size), int(nmax))
            for size in sorted({48, 64, 96, int(trunc)})
        ]
        doc["oracle"] = {"runs": runs}
    return doc


def _fmt_float(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report")
    return format(x, ".17g")


def _render(value, level):
    pad = "  " * level
    inner = "  " * (level + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, complex):
        return _render(_cpx(value), level)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        if value.keys() == {"re", "im"} and all(map(_TYPES["number"], value.values())):
            return (
                "{"
                + f'"re": {_fmt_float(value["re"])}, "im": {_fmt_float(value["im"])}'
                + "}"
            )
        items = [
            f"{inner}{json.dumps(str(k))}: {_render(v, level + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [f"{inner}{_render(v, level + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def render_json(doc):
    """Serialize a report to deterministic JSON text.

    Keys keep insertion order; floats use 17 significant digits; complex
    values become ``{"re": ..., "im": ...}``.  The result ends with a
    newline.

    Parameters
    ----------
    doc : dict

    Returns
    -------
    str
    """
    return _render(doc, 0) + "\n"


def validate_report(doc):
    """Validate a report dict against the embedded JSON schema.

    Runs on the parsed form of the rendered text so the check covers the
    serializer as well.  ``_check`` implements the draft-07 keywords that
    ``REPORT_SCHEMA`` uses.

    Parameters
    ----------
    doc : dict

    Returns
    -------
    str
        The checked text, ``render_json(doc)``.

    Raises
    ------
    SchemaViolation
        If the document does not conform; the message names the JSON path
        of the first offending part, e.g. ``$.cdsp.verdict``.
    """
    text = render_json(doc)
    _check(json.loads(text), REPORT_SCHEMA, "$")
    return text


def render_csv(rows):
    """Serialize sweep rows to CSV text with the stable header.

    Error rows carry ``ERROR:<code>`` in the verdict column and one empty
    cell for each further column of the header.

    Parameters
    ----------
    rows : list of SweepRow

    Returns
    -------
    str
    """
    lines = [SWEEP_CSV_HEADER]
    empty = "," * (SWEEP_CSV_HEADER.count(",") - 1)
    for row in rows:
        theta = _fmt_float(row.theta_deg)
        if row.error is not None:
            lines.append(f"{theta},ERROR:{row.error}{empty}")
            continue
        verdict = row.verdict
        if verdict.s_offdiag is not None:
            s_re = _fmt_float(verdict.s_offdiag.real)
            s_im = _fmt_float(verdict.s_offdiag.imag)
        else:
            s_re = s_im = ""
        if verdict.root_products:
            rp = verdict.root_products[0]
            rp_re, rp_im = _fmt_float(rp.real), _fmt_float(rp.imag)
        else:
            rp_re = rp_im = ""
        lines.append(f"{theta},{verdict.verdict},{s_re},{s_im},{rp_re},{rp_im}")
    return "\n".join(lines) + "\n"
