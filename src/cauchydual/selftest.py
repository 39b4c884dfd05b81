"""Built-in regression checks against frozen reference values.

Every check recomputes a quantity of the two-atom right-angle measure
(unit masses at 1 and i) and compares it with a frozen expected value.
The rows live in one table, :data:`CHECKS`, and print in its order; one
pass over the ``1;i`` analysis (:func:`_observe`) yields every row's
observed value.  Each number is printed only to the digits its own check
pins (see :func:`_resolution`), so round-off never reaches the table and
the transcript in ``docs/reproduction.md`` replays byte for byte on any
machine.  A printed ``0`` means "below the row's resolution".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cdsp import closed_form_test, cross_energy, gram_monomials
from .cpoly import find_roots, poly_eval
from .debranges import build_identification, kernel_hb
from .dirichlet import build_model, kernel_full, o_mu_eval
from .measure import make_measure

__all__ = ["Check", "CheckResult", "run_selftest", "list_checks"]


@dataclass(frozen=True)
class Check:
    """One row of the reference table.

    Attributes
    ----------
    check_id : str
    mode : str
        "abs" compares |observed - expected| against tol; "rel" scales
        tol by |expected|; "upper" asserts observed <= tol; "exact"
        compares strings.  The mode also sets the resolution the row's
        values print to (see :func:`_resolution`).
    expected : complex, float or str
        The frozen reference value (0 for "upper" rows).
    tol : float or None
        The tolerance or bound; None for "exact" rows.
    """

    check_id: str
    mode: str
    expected: object
    tol: float | None


CHECKS = (
    # Roots of i z^2 N(z) = z^4 - (3+3i) z^3 + 8i z^2 + (3-3i) z - 1.
    Check("roots.quartic.1", "abs", 2.327982955044884 + 0.2078141561367861j, 1e-10),
    Check("roots.quartic.2", "abs", 0.2078141561367838 + 2.327982955044884j, 1e-10),
    Check("roots.quartic.3", "abs", 0.42616044007877457 + 0.038042448739554015j, 1e-10),
    Check("roots.quartic.4", "abs", 0.03804244873955488 + 0.4261604400787739j, 1e-10),
    Check("fact.a", "abs", 2.535797111181669, 1e-9),
    Check("fact.b", "abs", 5.462691362470355, 1e-9),
    Check("fact.c", "abs", 0.4642028888183287, 1e-9),
    Check("fact.d", "abs", 0.18305994859423608, 1e-9),
    Check("fact.rel_c_di", "upper", 0.0, 1e-9),
    Check("fact.rel_1_di", "upper", 0.0, 1e-9),
    Check("model.o_prime.1", "abs", -0.9546925304862012 - 0.29759397210604244j, 1e-9),
    Check("model.o_prime.2", "abs", 0.29759397210604505 + 0.9546925304862008j, 1e-9),
    Check("model.m", "abs", 1.1040185957563877, 1e-9),
    Check("model.f1prime_imag", "upper", 0.0, 1e-10),
    Check("model.cross", "abs", -0.6955485700535073 - 0.12732708547878813j, 1e-9),
    Check("model.s", "abs", 0.967575626606929 + 0.177124344467703j, 1e-9),
    Check("model.o_at_zero", "abs", 0.42785505559036685, 1e-9),
    Check("model.binv_diag", "abs", 1.5357971111816688, 1e-9),  # fact.a - 1
    Check("ident.a11", "abs", 17.1334199164530, 1e-8),
    Check("ident.a12", "abs", -5.46269136247035 - 5.46269136247035j, 1e-8),
    Check("ident.a22", "abs", 4.71734553342817, 1e-8),
    Check("ident.P", "upper", 0.0, 1e-6),
    Check("ident.p1_alpha1", "abs", 3.817768332243295 - 7.512022375793067j, 1e-6),
    Check("ident.p2_alpha1", "abs", 5.972259911019765 + 1.0748272733308546j, 1e-6),
    Check("ident.p1_alpha2", "abs", 9.23241334110806 + 15.454455070239476j, 1e-6),
    Check("ident.p2_alpha2", "abs", -5.972259911019766 + 1.0748272733308426j, 1e-6),
    Check("cdsp.s_offdiag", "rel", -230.719263940288, 1e-6),
    Check("cdsp.rootprod.1", "abs", 0.967575626606951 - 5.37631791548865j, 1e-9),
    Check("cdsp.rootprod.2", "abs", 0.967575626606951 + 5.37631791548865j, 1e-9),
    Check("cdsp.verdict", "exact", "NotSubnormal", None),
    Check("cdsp.known_single", "exact", "KnownSubnormal", None),
    Check("cdsp.known_antipodal", "exact", "KnownSubnormal", None),
    Check("cdsp.coupling_det", "rel", -0.13348007677575036, 1e-9),
    Check("kernel.normalization", "upper", 0.0, 1e-9),
    Check("kernel.equality", "upper", 0.0, 1e-8),
    Check("gram.quadrature", "upper", 0.0, 2e-2),
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check."""

    check_id: str
    status: str
    line: str


def _resolution(mode, expected, tol):
    """Finest place value a row's check pins.

    ``abs`` rows are pinned to ``tol``, ``rel`` rows to ``tol * |expected|``
    and ``upper`` rows to 1e-3 of the decade of their bound.  ``exact``
    rows compare strings and have none.
    """
    if mode == "abs":
        return tol
    if mode == "rel":
        return tol * abs(complex(expected))
    if mode == "upper":
        return 1e-3 * 10.0 ** _decade(tol)
    return None


def _decade(x):
    # The slack absorbs representation error such as 1e-3 * 1e-2 < 1e-5.
    return math.floor(math.log10(x) + 1e-9)


def _fmt_real(x, decimals):
    text = format(round(x, decimals), f".{max(decimals, 0)}f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _fmt(value, resolution):
    """Render a value rounded to the decade of ``resolution``.

    Digits below the resolution are round-off on some machine, so they
    are never printed; trailing zeros are dropped, ``-0`` reads ``0``,
    and an imaginary part that rounds to zero is omitted.
    """
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    value = complex(value)
    decimals = -_decade(resolution)
    re = _fmt_real(value.real, decimals)
    im = _fmt_real(value.imag, decimals)
    if im == "0":
        return re
    return f"{re}{im if im.startswith('-') else '+' + im}i"


def _quadrature_spot(mu):
    gram = gram_monomials(mu, 4)
    err = 0.0
    for m, n in ((1, 1), (2, 1), (3, 3)):
        f = np.zeros(n + 1, dtype=complex)
        f[n] = 1.0
        g = np.zeros(m + 1, dtype=complex)
        g[m] = 1.0
        exact = gram[n, m] - (1.0 if m == n else 0.0)
        err = max(err, abs(cross_energy(f, g, mu, 1) - exact))
    return err


def _observe():
    """Every row's observed value, keyed by check id.

    Builds the ``1;i`` model, identification and verdict once, and finds
    the roots of the table's quartic once.
    """
    mu = make_measure([1.0 + 0j, 1j], [1.0, 1.0])
    model = build_model(mu)
    ident = build_identification(model)
    verdict = closed_form_test(mu, (model, ident))
    roots = find_roots(np.array([-1.0, 3.0 - 3.0j, 8.0j, -(3.0 + 3.0j), 1.0]), tol=1e-10)
    # The factorization constants: z^2 - a(1+i) z + b i and z^2 - c(1+i) z + d i.
    a = ((roots[0] + roots[1]) / (1.0 + 1j)).real
    b = (roots[0] * roots[1] / 1j).real
    c = ((roots[2] + roots[3]) / (1.0 + 1j)).real
    d = (roots[2] * roots[3] / 1j).real
    p_ref = np.array([[4.13925355, -1.31972862 - 1.31972862j], [0.0, 1.11084575]])
    alpha = model.fact.outer_roots
    zs = [0.31 + 0.22j, -0.18 + 0.55j, 0.62 - 0.11j]
    ws = [0.12 - 0.4j, 0.27 + 0.33j, -0.5 - 0.2j]
    return {
        **{f"roots.quartic.{j + 1}": roots[j] for j in range(4)},
        "fact.a": a,
        "fact.b": b,
        "fact.c": c,
        "fact.d": model.fact.d,
        "fact.rel_c_di": abs(c / (d * 1j) + a * 1j),
        "fact.rel_1_di": abs(1.0 / (d * 1j) + b * 1j),
        "model.o_prime.1": model.o_prime[0],
        "model.o_prime.2": model.o_prime[1],
        "model.m": model.gram_f[0, 0].real,
        "model.f1prime_imag": abs(model.gram_f[0, 0].imag),
        "model.cross": model.gram_f[0, 1],
        "model.s": model.b_inv[0, 1],
        "model.o_at_zero": o_mu_eval(model, 0.0 + 0j),
        "model.binv_diag": model.b_inv[0, 0],
        "ident.a11": ident.A[0, 0],
        "ident.a12": ident.A[0, 1],
        "ident.a22": ident.A[1, 1],
        "ident.P": float(np.max(np.abs(ident.P - p_ref))),
        "ident.p1_alpha1": poly_eval(ident.p_polys[0], alpha[0]),
        "ident.p2_alpha1": poly_eval(ident.p_polys[1], alpha[0]),
        "ident.p1_alpha2": poly_eval(ident.p_polys[0], alpha[1]),
        "ident.p2_alpha2": poly_eval(ident.p_polys[1], alpha[1]),
        "cdsp.s_offdiag": verdict.s_offdiag,
        "cdsp.rootprod.1": verdict.root_products[0],
        "cdsp.rootprod.2": verdict.root_products[1],
        "cdsp.verdict": verdict.verdict,
        "cdsp.known_single": closed_form_test(make_measure([1j], [3.0])).verdict,
        "cdsp.known_antipodal": closed_form_test(
            make_measure([1.0 + 0j, -1.0 + 0j], [1.0, 1.0])
        ).verdict,
        "cdsp.coupling_det": verdict.coupling_det,
        "kernel.normalization": max(abs(kernel_full(model, z, 0.0 + 0j) - 1.0) for z in zs),
        "kernel.equality": max(
            abs(kernel_hb(ident, z, w) - kernel_full(model, z, w)) for z in zs for w in ws
        ),
        "gram.quadrature": _quadrature_spot(mu),
    }


def list_checks():
    """Return the table's check ids in run order."""
    return [c.check_id for c in CHECKS]


def _render(check, observed):
    """Judge one row against its table entry and format its line; pure in
    its arguments."""
    expected, tol = check.expected, check.tol
    res = _resolution(check.mode, expected, tol)
    detail = f"observed={_fmt(observed, res)}"
    if check.mode == "exact":
        ok = observed == expected
        detail += f" expected={_fmt(expected, res)}"
    elif check.mode == "upper":
        ok = float(abs(observed)) <= tol
        detail += f" bound={format(tol, '.3g')}"
    elif check.mode == "rel":
        err = abs(complex(observed) - complex(expected))
        ok = err <= tol * abs(complex(expected))
        detail += f" expected={_fmt(expected, res)} rel_tol={format(tol, '.3g')}"
    else:
        err = abs(complex(observed) - complex(expected))
        ok = err <= tol
        detail += f" expected={_fmt(expected, res)} tol={format(tol, '.3g')}"
    status = "PASS" if ok else "FAIL"
    line = f"{status:<4} {check.check_id:<22} {detail}"
    return CheckResult(check_id=check.check_id, status=status, line=line)


def run_selftest():
    """Run every check in the table.

    Returns
    -------
    (list of CheckResult, int)
        Results in table order and the number of failures.
    """
    observed = _observe()
    results = [_render(check, observed[check.check_id]) for check in CHECKS]
    failures = sum(1 for r in results if r.status == "FAIL")
    return results, failures
