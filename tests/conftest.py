"""Shared fixtures: reference measures and small helpers."""

import numpy as np
import pytest

from cauchydual import make_measure, parse_measure


@pytest.fixture
def canonical_mu():
    """Unit masses at 1 and i (the reference counterexample)."""
    return parse_measure("1;i")


@pytest.fixture
def single_mu():
    return parse_measure("1")


@pytest.fixture
def antipodal_mu():
    return parse_measure("1;-1")


@pytest.fixture
def property_measures():
    """A spread of measures for property tests: varied k, weights, angles."""
    return [
        parse_measure("1"),
        parse_measure("1;i"),
        parse_measure("1;-1"),
        make_measure(
            [np.exp(0.3j), np.exp(2.1j)], [2.0, 0.5]
        ),
        make_measure(
            [np.exp(0.2j), np.exp(1.9j), np.exp(4.0j)], [1.0, 0.7, 1.3]
        ),
    ]


def _seeded_measure(rng, k):
    spacing = 2.0 * np.pi / k
    angles = rng.uniform(0.0, 2.0 * np.pi) + spacing * (
        np.arange(k) + rng.uniform(-0.15, 0.15, k)
    )
    return make_measure(list(np.exp(1j * angles)), list(rng.uniform(0.7, 1.4, k)))


@pytest.fixture
def seeded_measure():
    """``seeded_measure(rng, k)``: ``k`` atoms ``360/k`` degrees apart,
    turned at random and each moved by up to 15% of the spacing, with
    weights in ``[0.7, 1.4]`` (the benchmark's domain)."""
    return _seeded_measure
