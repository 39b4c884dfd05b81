"""Command-line front end.

Subcommands: ``analyze`` (full JSON report), ``kernel`` (kernel values at
a point pair), ``sweep`` (CSV verdict sweep over atom angles), and
``selftest`` (frozen-value regression table).

Exit codes are a stable contract: 0 success, 1 selftest mismatch, 2
input validation failure, 3 numerical failure or a report that breaks
its schema.  Wall time goes to standard error so identical runs stay
byte-identical on standard out.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
import time

from .cdsp import sweep_angle
from .debranges import build_identification, kernel_hb
from .dirichlet import build_model, kernel_full, kernel_hat, kernel_tilde
from .errors import ParseError, ToolkitError, ValidationError
from .measure import _FLOAT, _NUMBER_RE, parse_measure
from .report import build_report, render_csv, render_json, validate_report
from .selftest import list_checks, run_selftest

__all__ = ["main", "parse_complex"]

# Most rows one sweep may request; 0.1 degree steps over 180 degrees make 1801.
MAX_SWEEP_ROWS = 10_000

_RE_FULL = re.compile(rf"^([+-]?{_FLOAT})([+-]{_FLOAT})i$")
_RE_IMAG = re.compile(rf"^([+-]?{_FLOAT})i$")


def parse_complex(text):
    """Parse a complex literal of the form ``a+bi`` or ``a-bi``.

    Bare real (``0.3``) and bare imaginary (``0.5i``) literals are also
    accepted.  No spaces are allowed.

    Parameters
    ----------
    text : str

    Returns
    -------
    complex

    Raises
    ------
    ParseError
        If the literal does not match the grammar.
    """
    text = text.strip()
    if _NUMBER_RE.match(text):
        return complex(float(text), 0.0)
    m = _RE_FULL.match(text)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    m = _RE_IMAG.match(text)
    if m:
        return complex(0.0, float(m.group(1)))
    raise ParseError(f"invalid complex literal {text!r} (expected a+bi)")


@contextlib.contextmanager
def _output(path):
    """Yield a ``write(text)`` to ``path`` (stdout if None), opened for
    appending before the work: an unwritable path fails first, an existing
    file changes only when ``write`` replaces its content, and a new one is
    removed if the work raises.  An ``OSError`` in the block names the path.
    """
    if path is None:
        yield sys.stdout.write
        return
    created = not os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8") as fh:
            yield lambda text: fh.truncate(0) or fh.write(text)
    except BaseException as exc:
        if created and os.path.exists(path):
            os.remove(path)
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write {path!r}: {exc.strerror}") from None
        raise


def _cmd_analyze(args):
    mu = parse_measure(args.measure)
    with _output(args.out) as write:
        doc = build_report(mu, trunc=args.trunc, nmax=args.nmax, skip_oracle=args.skip_oracle)
        write(validate_report(doc))
    return 0


def _cmd_kernel(args):
    mu = parse_measure(args.measure)
    z = parse_complex(args.z)
    lam = parse_complex(args.lam)
    if abs(z) >= 1.0 or abs(lam) >= 1.0:
        raise ValidationError("kernel points must lie in the open unit disk")
    model = build_model(mu)
    ident = build_identification(model)
    doc = {
        "k_tilde": kernel_tilde(model, z, lam),
        "k_hat": kernel_hat(model, z, lam),
        "k": kernel_full(model, z, lam),
        "kernel_hb": kernel_hb(ident, z, lam),
    }
    sys.stdout.write(render_json(doc))
    return 0


def _floats(text, what, form, sep):
    """The ``sep``-separated floats of ``text``, as many as ``form`` has."""
    parts = text.split(sep)
    if len(parts) != len(form.split(sep)):
        raise ParseError(f"invalid {what} {text!r} (expected {form})")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"invalid {what} {text!r}: {exc}") from None


def _parse_angles(text):
    start, stop, step = _floats(text, "angle range", "start:stop:step", ":")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError(f"angle range {text!r} must be finite")
    if step <= 0.0:
        raise ValidationError("angle step must be positive")
    if stop < start:
        raise ValidationError("angle stop must not precede start")
    span = (stop - start) / step + 1e-9
    if span >= MAX_SWEEP_ROWS:
        rows = int(span) + 1 if math.isfinite(span) else span
        raise ValidationError(
            f"angle range {text!r} would make {rows} rows, more than {MAX_SWEEP_ROWS}"
        )
    return [start + j * step for j in range(int(span) + 1)]


def _parse_weights(text):
    w1, w2 = _floats(text, "weights", "w1,w2", ",")
    if not all(0.0 < w < math.inf for w in (w1, w2)):
        raise ValidationError(f"weights {text!r} must be positive and finite")
    return (w1, w2)


def _cmd_sweep(args):
    grid = _parse_angles(args.angles)
    weights = _parse_weights(args.weights)
    with _output(args.csv) as write:
        rows = sweep_angle(grid, weights=weights)
        write(render_csv(rows))
    if rows and all(row.error is not None for row in rows):
        return 3
    return 0


def _cmd_selftest(args):
    if args.list:
        for check_id in list_checks():
            print(check_id)
        return 0
    results, failures = run_selftest()
    for result in results:
        print(result.line)
    print(f"selftest: {len(results)} checks, {failures} failed")
    return 1 if failures else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cauchydual",
        description=(
            "Dirichlet-space kernels for finitely supported circle measures "
            "and subnormality tests for the Cauchy dual of the shift."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline and emit a JSON report")
    p.add_argument("--measure", required=True, help="measure grammar string, e.g. '1;i'")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--trunc", type=int, default=64, help=(
        "oracle truncation size, 8..4096, and at least max(10, nmax + 6) with the oracle"))
    p.add_argument("--nmax", type=int, default=6, help="largest defect order, 1..10")
    p.add_argument(
        "--skip-oracle", action="store_true", help="skip truncated-operator checks"
    )
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("kernel", help="evaluate the kernels at one point pair")
    p.add_argument("--measure", required=True)
    p.add_argument("--z", required=True, help="complex literal a+bi")
    p.add_argument("--lambda", dest="lam", required=True, help="complex literal a+bi")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("sweep", help="sweep the verdict over two-atom angles")
    p.add_argument("--angles", required=True, help="start:stop:step in degrees")
    p.add_argument("--weights", default="1,1", help="atom weights w1,w2")
    p.add_argument("--csv", default=None, help="output path (default: stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("selftest", help="check frozen reference values")
    p.add_argument("--list", action="store_true", help="print check ids and exit")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 3
    finally:
        elapsed = time.perf_counter() - start
        print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
