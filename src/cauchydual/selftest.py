"""Built-in regression checks against frozen reference values.

Every check recomputes a quantity of the two-atom right-angle measure
(unit masses at 1 and i) and compares it with a frozen expected value.
Checks are pure and deterministic; the table prints in registry order.
Each number is printed only to the digits its own check pins (see
:func:`_resolution`), so round-off never reaches the table and the
transcript in ``docs/reproduction.md`` replays byte for byte on any
machine.  A printed ``0`` means "below the row's resolution".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cdsp import (
    _canonical_values,
    _closed_form,
    _coupling,
    closed_form_test,
    cross_energy,
    gram_monomials,
)
from .cpoly import find_roots, poly_eval
from .debranges import build_identification, kernel_hb
from .dirichlet import build_model, kernel_full, o_mu_eval
from .measure import make_measure

__all__ = ["Check", "CheckResult", "run_selftest", "list_checks"]

_CANONICAL_QUARTIC = np.array(
    [-1.0, 3.0 - 3.0j, 8.0j, -(3.0 + 3.0j), 1.0], dtype=complex
)

_QUARTIC_ROOTS = (
    2.327982955044884 + 0.2078141561367861j,
    0.2078141561367838 + 2.327982955044884j,
    0.42616044007877457 + 0.038042448739554015j,
    0.03804244873955488 + 0.4261604400787739j,
)

_A_CONST = 2.535797111181669
_B_CONST = 5.462691362470355
_C_CONST = 0.4642028888183287
_D_CONST = 0.18305994859423608

_OPRIME_1 = -0.9546925304862012 - 0.29759397210604244j
_OPRIME_I = 0.29759397210604505 + 0.9546925304862008j
_M_CONST = 1.1040185957563877
_CROSS_F1F2 = -0.6955485700535073 - 0.12732708547878813j
_S_CONST = 0.967575626606929 + 0.177124344467703j
_O_AT_ZERO = 0.42785505559036685

_A11 = 17.1334199164530
_A12 = -5.46269136247035 - 5.46269136247035j
_A22 = 4.71734553342817
_P_MATRIX = np.array(
    [
        [4.13925355, -1.31972862 - 1.31972862j],
        [0.0, 1.11084575],
    ],
    dtype=complex,
)
_P1_ALPHA1 = 3.817768332243295 - 7.512022375793067j
_P2_ALPHA1 = 5.972259911019765 + 1.0748272733308546j
_P1_ALPHA2 = 9.23241334110806 + 15.454455070239476j
_P2_ALPHA2 = -5.972259911019766 + 1.0748272733308426j

_S_OFFDIAG = -230.719263940288
_ROOTPROD_1 = 0.967575626606951 - 5.37631791548865j
_ROOTPROD_2 = 0.967575626606951 + 5.37631791548865j
_COUPLING_DET = -0.13348007677575036

_QUAD_SPOT_TOL = 2e-2


@dataclass(frozen=True)
class Check:
    """One registry entry.

    Attributes
    ----------
    check_id : str
    mode : str
        "abs" compares |observed - expected| against tol; "rel" scales
        tol by |expected|; "upper" asserts observed <= tol; "exact"
        compares strings.  The mode also sets the resolution the row's
        values print to (see :func:`_resolution`).
    fn : callable
        Maps the shared context dict to (observed, expected, tol).
    """

    check_id: str
    mode: str
    fn: object


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


def _context():
    """Every row's inputs: the ``1;i`` analysis, built once, and what is
    read off it."""
    mu = make_measure([1.0 + 0j, 1j], [1.0, 1.0])
    model = build_model(mu)
    ident = build_identification(model)
    frame = _canonical_values(mu, (model, ident))
    return {
        "mu": mu,
        "model": model,
        "ident": ident,
        "verdict": _closed_form(mu, frame),
        "roots": find_roots(_CANONICAL_QUARTIC, tol=1e-10),
        "coupling": _coupling(frame),
        "kernel": _kernel_checks(model, ident),
    }


def _quartic_constants(roots):
    a = ((roots[0] + roots[1]) / (1.0 + 1j)).real
    b = (roots[0] * roots[1] / 1j).real
    c = ((roots[2] + roots[3]) / (1.0 + 1j)).real
    d = (roots[2] * roots[3] / 1j).real
    return a, b, c, d


def _kernel_checks(model, ident):
    zs = [0.31 + 0.22j, -0.18 + 0.55j, 0.62 - 0.11j]
    ws = [0.12 - 0.4j, 0.27 + 0.33j, -0.5 - 0.2j]
    norm_err = max(abs(kernel_full(model, z, 0.0 + 0j) - 1.0) for z in zs)
    eq_err = max(
        abs(kernel_hb(ident, z, w) - kernel_full(model, z, w))
        for z in zs
        for w in ws
    )
    return norm_err, eq_err


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


def _registry():
    checks = []

    def add(check_id, mode, fn):
        checks.append(Check(check_id=check_id, mode=mode, fn=fn))

    for j in range(4):
        add(
            f"roots.quartic.{j + 1}",
            "abs",
            lambda ctx, j=j: (ctx["roots"][j], _QUARTIC_ROOTS[j], 1e-10),
        )
    add("fact.a", "abs", lambda ctx: (_quartic_constants(ctx["roots"])[0], _A_CONST, 1e-9))
    add("fact.b", "abs", lambda ctx: (_quartic_constants(ctx["roots"])[1], _B_CONST, 1e-9))
    add("fact.c", "abs", lambda ctx: (_quartic_constants(ctx["roots"])[2], _C_CONST, 1e-9))
    add("fact.d", "abs", lambda ctx: (ctx["model"].fact.d, _D_CONST, 1e-9))

    def rel_c_di(ctx):
        a, _, c, d = _quartic_constants(ctx["roots"])
        return abs(c / (d * 1j) + a * 1j), 0.0, 1e-9

    def rel_1_di(ctx):
        _, b, _, d = _quartic_constants(ctx["roots"])
        return abs(1.0 / (d * 1j) + b * 1j), 0.0, 1e-9

    add("fact.rel_c_di", "upper", rel_c_di)
    add("fact.rel_1_di", "upper", rel_1_di)

    add("model.o_prime.1", "abs", lambda ctx: (ctx["model"].o_prime[0], _OPRIME_1, 1e-9))
    add("model.o_prime.2", "abs", lambda ctx: (ctx["model"].o_prime[1], _OPRIME_I, 1e-9))
    add("model.m", "abs", lambda ctx: (ctx["model"].gram_f[0, 0].real, _M_CONST, 1e-9))
    add(
        "model.f1prime_imag",
        "upper",
        lambda ctx: (abs(ctx["model"].gram_f[0, 0].imag), 0.0, 1e-10),
    )
    add("model.cross", "abs", lambda ctx: (ctx["model"].gram_f[0, 1], _CROSS_F1F2, 1e-9))
    add("model.s", "abs", lambda ctx: (ctx["model"].b_inv[0, 1], _S_CONST, 1e-9))
    add(
        "model.o_at_zero",
        "abs",
        lambda ctx: (o_mu_eval(ctx["model"], 0.0 + 0j), _O_AT_ZERO, 1e-9),
    )
    add(
        "model.binv_diag",
        "abs",
        lambda ctx: (ctx["model"].b_inv[0, 0], _A_CONST - 1.0, 1e-9),
    )

    add("ident.a11", "abs", lambda ctx: (ctx["ident"].A[0, 0], _A11, 1e-8))
    add("ident.a12", "abs", lambda ctx: (ctx["ident"].A[0, 1], _A12, 1e-8))
    add("ident.a22", "abs", lambda ctx: (ctx["ident"].A[1, 1], _A22, 1e-8))
    add(
        "ident.P",
        "upper",
        lambda ctx: (float(np.max(np.abs(ctx["ident"].P - _P_MATRIX))), 0.0, 1e-6),
    )

    def pval(ctx, j, r):
        alpha = ctx["model"].fact.outer_roots[r]
        return poly_eval(ctx["ident"].p_polys[j], alpha)

    add("ident.p1_alpha1", "abs", lambda ctx: (pval(ctx, 0, 0), _P1_ALPHA1, 1e-6))
    add("ident.p2_alpha1", "abs", lambda ctx: (pval(ctx, 1, 0), _P2_ALPHA1, 1e-6))
    add("ident.p1_alpha2", "abs", lambda ctx: (pval(ctx, 0, 1), _P1_ALPHA2, 1e-6))
    add("ident.p2_alpha2", "abs", lambda ctx: (pval(ctx, 1, 1), _P2_ALPHA2, 1e-6))

    add(
        "cdsp.s_offdiag",
        "rel",
        lambda ctx: (ctx["verdict"].s_offdiag, _S_OFFDIAG, 1e-6),
    )
    add(
        "cdsp.rootprod.1",
        "abs",
        lambda ctx: (ctx["verdict"].root_products[0], _ROOTPROD_1, 1e-9),
    )
    add(
        "cdsp.rootprod.2",
        "abs",
        lambda ctx: (ctx["verdict"].root_products[1], _ROOTPROD_2, 1e-9),
    )
    add("cdsp.verdict", "exact", lambda ctx: (ctx["verdict"].verdict, "NotSubnormal", None))
    add(
        "cdsp.known_single",
        "exact",
        lambda ctx: (
            closed_form_test(make_measure([1j], [3.0])).verdict,
            "KnownSubnormal",
            None,
        ),
    )
    add(
        "cdsp.known_antipodal",
        "exact",
        lambda ctx: (
            closed_form_test(make_measure([1.0 + 0j, -1.0 + 0j], [1.0, 1.0])).verdict,
            "KnownSubnormal",
            None,
        ),
    )
    add("cdsp.coupling_det", "rel", lambda ctx: (ctx["coupling"], _COUPLING_DET, 1e-9))

    add(
        "kernel.normalization",
        "upper",
        lambda ctx: (ctx["kernel"][0], 0.0, 1e-9),
    )
    add(
        "kernel.equality",
        "upper",
        lambda ctx: (ctx["kernel"][1], 0.0, 1e-8),
    )

    add(
        "gram.quadrature",
        "upper",
        lambda ctx: (_quadrature_spot(ctx["mu"]), 0.0, _QUAD_SPOT_TOL),
    )
    return checks


def list_checks():
    """Return the registered check ids in run order."""
    return [c.check_id for c in _registry()]


def _render(check, observed, expected, tol):
    """Judge one row and format its line; pure in its arguments."""
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
    """Run every registered check.

    Returns
    -------
    (list of CheckResult, int)
        Results in registry order and the number of failures.
    """
    ctx = _context()
    results = [_render(check, *check.fn(ctx)) for check in _registry()]
    failures = sum(1 for r in results if r.status == "FAIL")
    return results, failures
