"""Outcome contract over the measure grammar: every measure either yields a
``--skip-oracle`` report that validates, or fails at a named gate."""

import numpy as np
import pytest

from cauchydual import ToolkitError, build_report, parse_measure, validate_report

# The hostile grid: 400 measures from default_rng(HOSTILE_SEED), with k in
# 1..8 atoms at uniform angles and log-uniform weights in [1e-3, 1e3].
HOSTILE_SEED = 7
HOSTILE_COUNT = 400

# Reports the hostile grid builds today.  A change that builds more raises
# this floor.  Tallies of the 400: 137 reports, 248 ResidualTooLarge at
# compute_A's origin row, 14 NonConvergence at root pairing, 1
# ResidualTooLarge at the factorization identity.
HOSTILE_REPORTS = 137

# Extreme weights, eight atoms 45 degrees apart at three weights, and two
# atoms a microdegree apart.  Today: 1e308 ends in ResidualTooLarge, 1e-17 and
# the microdegree pair in BoundaryRoot; the 45-degree set builds a report
# at weights 1 and 1e-3 and stops at the origin row at 1e3.
EDGES = [
    "1:w=1e308",
    "1:w=1e-17",
    *(";".join(f"deg:{45 * j}:w={w}" for j in range(8)) for w in ("1", "1e-3", "1e3")),
    "deg:0;deg:0.000001",
]


def _hostile_texts():
    rng = np.random.default_rng(HOSTILE_SEED)
    texts = []
    for _ in range(HOSTILE_COUNT):
        k = rng.integers(1, 9)
        angles = rng.uniform(0.0, 360.0, k)
        weights = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), k))
        texts.append(";".join(
            f"deg:{float(a)!r}:w={float(w)!r}" for a, w in zip(angles, weights)))
    return texts


# The outcomes allowed: a report, or one of the named ToolkitError classes.
NAMED = {"report", *(cls.__name__ for cls in ToolkitError.__subclasses__())}


def _outcome(text):
    """``"report"`` when the report validates, else the error's class name.
    Any other exception propagates and fails the test."""
    try:
        validate_report(build_report(parse_measure(text), skip_oracle=True))
    except ToolkitError as exc:
        return type(exc).__name__
    return "report"


def test_hostile_grid_builds_a_report_or_fails_at_a_named_gate():
    outcomes = [_outcome(text) for text in _hostile_texts()]
    assert set(outcomes) <= NAMED
    assert outcomes.count("report") >= HOSTILE_REPORTS


@pytest.mark.parametrize("text", EDGES)
def test_edge_measure_builds_a_report_or_fails_at_a_named_gate(text):
    assert _outcome(text) in NAMED
