"""Per-layer spans and counts for the traced benchmark run.

:func:`install` wraps every public function of the layer modules on each
``cauchydual`` module that holds it, which is where callers look it up
(``report.build_model``, ``cdsp.build_model`` and ``dirichlet.build_model``
all get the same wrapper).  It also counts calls into three
``numpy.linalg`` routines and Gauss-Legendre node construction.  Nothing
under ``src/`` changes; the untimed runs never call :func:`install`.

A span is recorded only while an operation is open (between
:meth:`Tracer.begin` and :meth:`Tracer.end`), so the benchmark's checks,
which call some program functions too, add nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("measure", "cpoly", "dirichlet", "debranges", "cdsp", "report", "cli")


class Tracer:
    """Spans kept in memory, with per-name totals.

    ``spans`` holds ``(op, name, start, end, parent)`` tuples; ``parent``
    is the index of the enclosing span, or -1 for an operation's root.
    """

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []
        self._open = []
        self._child = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        self._child.append(0.0)
        return idx, time.perf_counter()

    def _exit(self, idx, name, start, tags=()):
        end = time.perf_counter()
        self._open.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += end - start
        parent = self._open[-1] if self._open else -1
        self.spans[idx] = (self.op, name, start, end, parent)
        for key in (name, *tags):
            self.calls[key] += 1
            self.total[key] += end - start
            self.self_time[key] += end - start - child

    def begin(self):
        """Open the root span of the next operation."""
        self.op += 1
        self.active = True
        self._root = self._enter("op")

    def end(self):
        """Close the operation's root span and stop recording."""
        idx, start = self._root
        self._exit(idx, "op", start)
        self.active = False

    def span(self, name, fn, tag=None):
        """Wrap ``fn`` so each active call records a span named ``name``;
        ``tag(args)`` may add a suffix key such as ``name.k3``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            tags = (f"{name}.{tag(args)}",) if tag else ()
            idx, start = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx, name, start, tags)

        return wrapper

    def counter(self, name, fn, when=None):
        """Wrap ``fn`` so each active call with ``when(args, kwargs)`` true
        adds one to ``calls[name]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active and (when is None or when(args, kwargs)):
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _ord_two(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs.get("ord")) == 2


_TAGS = {"debranges.compute_A": lambda args: f"k{args[0].mu.k}"}


def install(tracer):
    """Install the wrappers for the rest of the process."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"cauchydual.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn):
                name = f"{layer}.{attr}"
                wrappers[fn] = tracer.span(name, fn, _TAGS.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "cauchydual" and not modname.startswith("cauchydual."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    linalg = np.linalg
    linalg.norm = tracer.counter("linalg.norm2", linalg.norm, _ord_two)
    linalg.inv = tracer.counter("linalg.inv", linalg.inv)
    linalg.eigvalsh = tracer.counter("linalg.eigvalsh", linalg.eigvalsh)
    legendre = np.polynomial.legendre
    legendre.leggauss = tracer.counter("quad.leggauss", legendre.leggauss)
