"""Seeded inputs and the timed operation of each benchmark workload.

Importing this module imports ``cauchydual`` from the ``src`` directory
of the checkout that holds this file, and nowhere else.  Program
functions are always called through their module (``report.build_report``)
so that the traced run sees the wrappers installed on those modules.

Every workload is a list of cases and one operation per case.  A run
repeats the whole list, so each run attempts whole rounds of the same
operations.  Seeds change positions, weights and probe points; the
composition of a round (atom counts, truncation size, quadrature levels
and degrees) is fixed, so the cost of a round hardly depends on the seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cauchydual" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no cauchydual sources under {SRC}")
sys.path.insert(0, str(SRC))

import cauchydual  # noqa: E402
from cauchydual import cdsp, measure, report  # noqa: E402

if Path(cauchydual.__file__).resolve().parent != (SRC / "cauchydual").resolve():
    raise SystemExit(f"benchmark: cauchydual was imported from {cauchydual.__file__}")

import checks  # noqa: E402

# Domain of the seeded measures.  Wider weights or closer atoms make the
# program fail on some seeds (see the README), and an operation that
# fails only on some seeds cannot be kept in a workload.
WEIGHT_RANGE = (0.7, 1.4)
JITTER = 0.15
FAMILY_THETA = (20.0, 180.0)
ANALYZE_TRUNC = 64
ORACLE_TRUNC = 384
QUAD_LEVELS = (2, 3)
QUAD_PAIRS = ((1, 1), (3, 2), (5, 5), (7, 3), (8, 8), (10, 6))
PAPER = "1;i"


@dataclass(frozen=True)
class Case:
    """One measure given to the analysis operation.

    ``text`` is what the operation parses; ``points`` and ``weights`` are
    the benchmark's own copy of the same measure, used by the checks.
    """

    text: str
    points: np.ndarray
    weights: np.ndarray
    expected_verdict: str | None
    rotated: object
    probes: np.ndarray


@dataclass(frozen=True)
class PairCase:
    """One ``cross_energy(z**n, z**m, mu, level)`` pair, evaluated at
    every level in QUAD_LEVELS."""

    mu: object
    points: np.ndarray
    weights: np.ndarray
    n: int
    m: int
    f: np.ndarray
    g: np.ndarray


def _deg_text(angles, weights):
    return ";".join(f"deg:{float(a)!r}:w={float(w)!r}" for a, w in zip(angles, weights))


def _case(rng, text, angles, weights, expected=None):
    angles = [float(a) for a in angles]
    weights = [float(w) for w in weights]
    points = np.exp(1j * np.deg2rad(angles))
    rotated = None
    if len(angles) == 2:
        rotated = measure.make_measure(points * np.exp(1j * rng.uniform(0, 2 * np.pi)), weights)
    probes = 0.7 * np.sqrt(rng.uniform(0, 1, 3)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    return Case(text, points, np.array(weights), expected, rotated, probes)


def _weights(rng, k):
    lo, hi = WEIGHT_RANGE
    return np.exp(rng.uniform(np.log(lo), np.log(hi), k))


def _spread_angles(rng, k):
    """``k`` angles spaced ``360/k`` apart, rotated and jittered."""
    spacing = 360.0 / k
    base = rng.uniform(0, 360) + spacing * np.arange(k)
    return (base + rng.uniform(-JITTER, JITTER, k) * spacing) % 360.0


def _random_case(rng, k):
    angles, weights = _spread_angles(rng, k), _weights(rng, k)
    expected = "KnownSubnormal" if k == 1 else None
    return _case(rng, _deg_text(angles, weights), angles, weights, expected)


def _antipodal_case(rng):
    angles = [rng.uniform(0, 180)]
    angles.append(angles[0] + 180.0)
    weights = _weights(rng, 2)
    return _case(rng, _deg_text(angles, weights), angles, weights, "KnownSubnormal")


def _paper_case(rng):
    return _case(rng, PAPER, [0.0, 90.0], [1.0, 1.0], "NotSubnormal")


def analyze_mix_cases(seed):
    """One round: ``1;i``, an antipodal pair, three seeded measures for
    each atom count 1-8, and six members of the two-atom family (atoms at
    1 and ``e^{i theta}``, one theta per equal stratum of FAMILY_THETA)."""
    rng = np.random.default_rng([seed, 1])
    cases = [_paper_case(rng), _antipodal_case(rng)]
    for k in range(1, 9):
        cases += [_random_case(rng, k) for _ in range(3)]
    lo, hi = FAMILY_THETA
    edges = np.linspace(lo, hi, 7)
    for a, b in zip(edges[:-1], edges[1:]):
        theta = rng.uniform(a, b)
        cases.append(_case(rng, f"1;deg:{float(theta)!r}", [0.0, theta], [1.0, 1.0]))
    return cases


def oracle_large_cases(seed):
    """One round: ``1;i``, one atom, an antipodal pair, two two-atom
    measures 60-150 degrees apart and one three-atom measure."""
    rng = np.random.default_rng([seed, 2])
    cases = [_paper_case(rng), _random_case(rng, 1), _antipodal_case(rng)]
    for _ in range(2):
        a = rng.uniform(0, 360)
        angles = [a, a + rng.uniform(60, 150)]
        weights = _weights(rng, 2)
        cases.append(_case(rng, _deg_text(angles, weights), angles, weights))
    cases.append(_random_case(rng, 3))
    return cases


def quadrature_cases(seed):
    """One round: every atom count 1-3 and degree pair in QUAD_PAIRS, each
    on its own seeded measure.  Weights are drawn from ``[0.3, 2/k]`` so
    the total mass stays at most 2, which keeps the degree-10 quadrature
    error inside each level's tolerance."""
    rng = np.random.default_rng([seed, 3])
    cases = []
    for k in (1, 2, 3):
        for n, m in QUAD_PAIRS:
            points = np.exp(1j * np.deg2rad(_spread_angles(rng, k)))
            weights = rng.uniform(0.3, 2.0 / k, k)
            f = np.zeros(n + 1, dtype=complex)
            f[n] = 1.0
            g = np.zeros(m + 1, dtype=complex)
            g[m] = 1.0
            cases.append(PairCase(measure.make_measure(points, weights), points, weights, n, m, f, g))
    return cases


def _analyze(case, trunc):
    mu = measure.parse_measure(case.text)
    doc = report.build_report(mu, trunc=trunc, nmax=6)
    report.validate_report(doc)
    return doc, report.render_json(doc)


def _check_analysis(case, out):
    doc, text = out
    checks.check_render(text, report.render_json(doc))
    rotated = cdsp.closed_form_test(case.rotated).verdict if case.rotated else None
    checks.check_report(
        json.loads(text), case.points, case.weights, case.probes,
        case.expected_verdict, rotated, case.text == PAPER,
    )


def _pair(case):
    return [cdsp.cross_energy(case.f, case.g, case.mu, level) for level in QUAD_LEVELS]


def _check_pair(case, values):
    for level, got in zip(QUAD_LEVELS, values):
        checks.check_energy(got, case.n, case.m, case.points, case.weights, level)
    level = QUAD_LEVELS[0]
    swapped = cdsp.cross_energy(case.g, case.f, case.mu, level)
    checks.check_energy_hermitian(values[0], swapped)


@dataclass(frozen=True)
class Workload:
    cases: list
    op: object
    check: object


def make(name, seed):
    """Build the named workload's cases for ``seed``."""
    if name == "analyze_mix":
        return Workload(analyze_mix_cases(seed), lambda c: _analyze(c, ANALYZE_TRUNC), _check_analysis)
    if name == "oracle_large":
        return Workload(oracle_large_cases(seed), lambda c: _analyze(c, ORACLE_TRUNC), _check_analysis)
    if name == "quadrature":
        return Workload(quadrature_cases(seed), _pair, _check_pair)
    raise ValueError(f"unknown workload {name!r}")
