"""Finitely supported positive measures on the unit circle.

A measure is a list of (point, weight) atoms with unimodular points and
positive weights.  This module provides the text grammar used by the
command line, trigonometric moments, and the boundary weight numerator
that drives the spectral factorization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ResidualTooLarge, ValidationError

__all__ = [
    "MeasureSpec",
    "make_measure",
    "parse_measure",
    "format_measure",
    "moment",
    "weight_numerator",
]

_MAX_ATOMS = 8
_SYMBOLIC_POINTS = {
    "1": 1.0 + 0j,
    "i": 1j,
    "-1": -1.0 + 0j,
    "-i": -1j,
}
_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER_RE = re.compile(rf"^[+-]?{_FLOAT}$")


@dataclass(frozen=True)
class MeasureSpec:
    """Validated finitely supported measure on the unit circle.

    Attributes
    ----------
    atoms : tuple of (complex, float)
        Pairs (point, weight) in canonical order: ascending principal
        argument of the point in ``[0, 2*pi)``.

    Raises
    ------
    ValidationError
        If a point or weight is not finite, a point is off the circle
        beyond ``1e-12``, a weight is not positive, two points nearly
        coincide, or the atom count is outside ``1..8``.
    """

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((complex(p), float(w)) for p, w in self.atoms)
        if not 1 <= len(atoms) <= _MAX_ATOMS:
            raise ValidationError(
                f"measure must have between 1 and {_MAX_ATOMS} atoms, got {len(atoms)}"
            )
        for p, w in atoms:
            if not (np.isfinite(p) and np.isfinite(w)):
                raise ValidationError(f"atom ({p}, {w}) is not finite")
            if abs(abs(p) - 1.0) > 1e-12:
                raise ValidationError(f"support point {p} is not on the unit circle")
            if not w > 0.0:
                raise ValidationError(f"weight {w} is not positive")
        atoms = tuple(sorted(atoms, key=lambda a: np.angle(a[0]) % (2.0 * np.pi)))
        pts = [p for p, _ in atoms]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) <= 1e-9:
                    raise ValidationError(f"support points {pts[i]} and {pts[j]} coincide")
        object.__setattr__(self, "atoms", atoms)

    @property
    def points(self):
        """Support points as a complex array, in canonical order."""
        return np.array([p for p, _ in self.atoms], dtype=complex)

    @property
    def weights(self):
        """Weights as a float array, aligned with :attr:`points`."""
        return np.array([w for _, w in self.atoms], dtype=float)

    @property
    def k(self):
        """Number of atoms."""
        return len(self.atoms)


def make_measure(points, weights):
    """Build a :class:`MeasureSpec` from parallel point and weight lists."""
    return MeasureSpec(tuple(zip(np.asarray(points, dtype=complex), weights)))


def _parse_weight(token, atom_text):
    if not token.startswith("w="):
        raise ParseError(f"expected 'w=<weight>' in atom '{atom_text}'")
    body = token[2:]
    if not _NUMBER_RE.match(body):
        raise ParseError(f"malformed weight '{body}' in atom '{atom_text}'")
    return float(body)


def parse_measure(text):
    """Parse the measure grammar ``atom (";" atom)*``.

    An atom is either ``deg:<angle-degrees>[:w=<weight>]`` or one of the
    symbolic points ``1``, ``i``, ``-1``, ``-i``, optionally followed by
    ``:w=<weight>``.  Weights default to 1.  Points given in degrees are
    ``exp(i * angle * pi / 180)``.

    Parameters
    ----------
    text : str
        Measure description, e.g. ``"1;i"`` or ``"deg:0:w=2.5"``.

    Returns
    -------
    MeasureSpec

    Raises
    ------
    ParseError
        On malformed text.
    ValidationError
        On duplicate points, nonpositive weights, or atom-count violations.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty measure string")
    atoms = []
    for atom_text in text.split(";"):
        atom_text = atom_text.strip()
        if not atom_text:
            raise ParseError(f"empty atom in measure string '{text}'")
        parts = atom_text.split(":")
        if parts[0] == "deg":
            if len(parts) < 2 or not _NUMBER_RE.match(parts[1]):
                raise ParseError(f"malformed angle in atom '{atom_text}'")
            angle = float(parts[1])
            point = np.exp(1j * angle * np.pi / 180.0)
            rest = parts[2:]
        elif parts[0] in _SYMBOLIC_POINTS:
            point = _SYMBOLIC_POINTS[parts[0]]
            rest = parts[1:]
        else:
            raise ParseError(f"unrecognized point token '{parts[0]}' in '{atom_text}'")
        if len(rest) > 1:
            raise ParseError(f"too many ':' fields in atom '{atom_text}'")
        weight = _parse_weight(rest[0], atom_text) if rest else 1.0
        atoms.append((complex(point), weight))
    return MeasureSpec(tuple(atoms))


def format_measure(mu):
    """Render a measure back into the grammar of :func:`parse_measure`.

    Round-trips: ``parse_measure(format_measure(mu))`` equals ``mu`` within
    ``1e-14`` per atom.

    Parameters
    ----------
    mu : MeasureSpec

    Returns
    -------
    str
    """
    parts = []
    for p, w in mu.atoms:
        token = next((s for s, v in _SYMBOLIC_POINTS.items() if abs(p - v) < 1e-15), None)
        if token is None:
            angle = (np.angle(p) % (2.0 * np.pi)) * 180.0 / np.pi
            token = f"deg:{float(angle)!r}"
        if w != 1.0:
            token += f":w={float(w)!r}"
        parts.append(token)
    return ";".join(parts)


def moment(mu, l):
    """Trigonometric moment ``sum_k gamma_k * conj(zeta_k)**l``.

    Satisfies ``moment(mu, -l) == conj(moment(mu, l))`` exactly in
    structure.  An integer array ``l`` gives the array of its moments.

    Parameters
    ----------
    mu : MeasureSpec
    l : int or array_like of int

    Returns
    -------
    complex, or an ndarray shaped like an array ``l``
    """
    l = np.asarray(l, dtype=np.int64)
    moments = np.sum(mu.weights * np.conj(mu.points) ** l[..., None], axis=-1)
    return moments if l.ndim else complex(moments)


def weight_numerator(mu):
    """Boundary numerator of the Dirichlet weight, as ``z**k * N(z)``.

    ``N(z) = prod_j |z - zeta_j|**2 + sum_j gamma_j * prod_{i != j}
    |z - zeta_i|**2``, which on the circle equals ``(1 + sum_j gamma_j /
    |z - zeta_j|**2) * prod_j |z - zeta_j|**2``.  With ``z * |z - zeta|**2
    = -zeta + 2z - conj(zeta) z**2`` for ``|z| = |zeta| = 1``, ``z**k * N``
    is a polynomial of degree ``2k`` whose leading coefficient is ``(-1)**k
    * conj(prod zeta_j)``.

    Parameters
    ----------
    mu : MeasureSpec

    Returns
    -------
    ndarray
        The ``2k + 1`` ascending coefficients of ``z**k * N(z)``, where
        ``k`` is the number of atoms.  They are exactly Hermitian:
        ``num[2k - j] == conj(num[j])`` bit for bit.

    Raises
    ------
    ResidualTooLarge
        If a coefficient overflows.
    """
    factors = [np.array([-z, 2.0, -np.conj(z)]) for z in mu.points]

    def prod(start, items):
        out = np.array(start, dtype=complex)
        for f in items:
            out = np.convolve(out, f)
        return out

    total = prod([1.0], factors)
    for j, gamma in enumerate(mu.weights):
        total += prod([0.0, gamma, 0.0], factors[:j] + factors[j + 1 :])
    # Averaging with the conjugate reverse makes the symmetry exact; the
    # halves keep a coefficient near the float maximum finite.
    try:
        with np.errstate(over="raise", invalid="raise"):
            return 0.5 * total + 0.5 * np.conj(total[::-1])
    except FloatingPointError:
        scale = float(np.max(np.abs(total)))
        raise ResidualTooLarge(f"weight numerator coefficient overflows ({scale:.3e})") from None
