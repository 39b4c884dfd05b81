"""Benchmark for cauchydual: one closed-loop client, three workloads.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload analyze_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` installs the per-layer wrappers of ``tracing.py`` and
reports per-layer metrics instead.  Every operation's output is checked
outside its timed span.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
same object, with the spans of a traced run, is also written under
``benchmarks/out/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("analyze_mix", "oracle_large", "quadrature")
PAPER = "1;i"
SETUP_PROBES = 2
CLI_SAMPLES = 10
IMPORT_SAMPLES = 5
SUBPROCESS_TIMEOUT = 60

# (metric, statistic, tracer key); "calls", "ms" and "self_ms" are per
# operation, "ms_per_call" is per call of the layer.
PER_LAYER = [
    ("dirichlet.build_model.calls", "calls", "dirichlet.build_model"),
    ("dirichlet.build_model.ms", "ms", "dirichlet.build_model"),
    ("debranges.build_identification.calls", "calls", "debranges.build_identification"),
    ("debranges.build_identification.ms", "ms", "debranges.build_identification"),
    ("cdsp.closed_form_test.ms", "ms", "cdsp.closed_form_test"),
    ("cdsp.coupling_determinant.ms", "ms", "cdsp.coupling_determinant"),
    *[
        (f"debranges.compute_A.k{k}.ms", "ms_per_call", f"debranges.compute_A.k{k}")
        for k in range(1, 9)
    ],
    ("cpoly.spectral_factorize.ms", "ms", "cpoly.spectral_factorize"),
    ("measure.parse_measure.ms", "ms", "measure.parse_measure"),
    ("report.build_report.self_ms", "self_ms", "report.build_report"),
    ("report.validate_report.ms", "ms", "report.validate_report"),
    ("report.render_json.ms", "ms", "report.render_json"),
    ("cdsp.build_truncation.ms", "ms", "cdsp.build_truncation"),
    ("cdsp.cauchy_dual.ms", "ms", "cdsp.cauchy_dual"),
    ("cdsp.agler_min_eig.ms", "ms", "cdsp.agler_min_eig"),
    ("cdsp.hyperexpansivity_max_eig.ms", "ms", "cdsp.hyperexpansivity_max_eig"),
    ("cdsp.two_isometry_defect.ms", "ms", "cdsp.two_isometry_defect"),
    ("linalg.norm2.calls", "calls", "linalg.norm2"),
    ("linalg.inv.calls", "calls", "linalg.inv"),
    ("linalg.eigvalsh.calls", "calls", "linalg.eigvalsh"),
    ("cdsp.cross_energy.ms", "ms", "cdsp.cross_energy"),
    ("quad.leggauss.calls", "calls", "quad.leggauss"),
]


def _env():
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _run(cmd):
    """Run ``cmd`` to completion; return (wall seconds, completed process)."""
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT,
    )
    return time.perf_counter() - start, proc


def _last_line(proc, what):
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: {what} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup(name, seed):
    """Import the program and the checks, build the inputs and run one
    warm-up operation.  Everything here counts toward ``setup_s``."""
    import workloads

    wl = workloads.make(name, seed)
    wl.op(wl.cases[0])
    return wl


def setup_probe(name, seed):
    """Setup time of a fresh interpreter, from the same code path."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    _, proc = _run(cmd)
    return float(_last_line(proc, "setup probe"))


class CliSampler:
    """Times fresh ``python -m cauchydual analyze`` processes and checks
    that each prints exactly the library's rendering.  The machine's speed
    drifts over seconds, so the samples are spread evenly over the run,
    between operations."""

    def __init__(self, expected, seconds):
        self.expected = expected
        self.interval = seconds / CLI_SAMPLES
        self.times = []
        self.ok = True

    def sample(self):
        wall, proc = _run([sys.executable, "-m", "cauchydual", "analyze", "--measure", PAPER])
        self.times.append(wall)
        if proc.returncode != 0 or proc.stdout != self.expected:
            print(f"benchmark: CLI output differs from render_json (exit {proc.returncode})",
                  file=sys.stderr)
            self.ok = False

    def due(self, elapsed):
        """Take the next sample once its share of the run has passed."""
        if len(self.times) < CLI_SAMPLES and elapsed >= len(self.times) * self.interval:
            self.sample()


def import_samples():
    """Seconds to import cauchydual in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import cauchydual; print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_SAMPLES):
        _, proc = _run([sys.executable, "-c", code, str(SRC)])
        out.append(float(_last_line(proc, "import probe")))
    return out


def measure(wl, seconds, tracer=None, between=None):
    """Closed loop over whole rounds of ``wl.cases`` until ``seconds`` of
    wall time have passed; ``between(elapsed)`` runs before each
    operation.  Returns the op times of passing operations, the number attempted, the
    number failed and the number whose output failed a check."""
    times, attempted, failed, wrong = [], 0, 0, 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for case in wl.cases:
            if between:
                between(time.perf_counter() - start)
            attempted += 1
            if tracer:
                tracer.begin()
            t0 = time.perf_counter()
            try:
                out = wl.op(case)
            except Exception:
                out = None
                traceback.print_exc()
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end()
            if out is None:
                failed += 1
                continue
            try:
                wl.check(case, out)
            except Exception:
                traceback.print_exc()
                failed += 1
                wrong += 1
                continue
            times.append(dt)
    return times, attempted, failed, wrong


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, seed, seconds):
    start = time.perf_counter()
    wl = setup(name, seed)
    setups = [time.perf_counter() - start]
    setups += [setup_probe(name, seed) for _ in range(SETUP_PROBES)]

    from cauchydual import measure as cd_measure, report

    expected = report.render_json(report.build_report(cd_measure.parse_measure(PAPER)))
    cli = CliSampler(expected, seconds)
    times, attempted, failed, wrong = measure(wl, seconds, between=cli.due)
    while len(cli.times) < CLI_SAMPLES:
        cli.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = [t * 1000.0 for t in times]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "op_ms": _metric(statistics.median(ms), "ms"),
        "op_p90_ms": _metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "ops_per_s": _metric(len(times) / sum(times), "1/s"),
        "cli_analyze_ms": _metric(statistics.median(cli.times) * 1000.0, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    extra = {"ops": len(times), "setup_samples_s": setups, "cli_samples_s": cli.times, "op_samples_s": times}
    return wrong == 0 and cli.ok, attempted, failed, metrics, extra


def per_layer(name, seed, seconds):
    import tracing

    wl = setup(name, seed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    times, attempted, failed, wrong = measure(wl, seconds, tracer)
    ops = tracer.calls["op"]
    stats = {
        "calls": lambda key: tracer.calls[key] / ops,
        "ms": lambda key: tracer.total[key] / ops * 1000.0,
        "self_ms": lambda key: tracer.self_time[key] / ops * 1000.0,
        "ms_per_call": lambda key: tracer.total[key] / max(tracer.calls[key], 1) * 1000.0,
    }
    metrics = {
        metric: _metric(stats[stat](key), "count" if stat == "calls" else "ms")
        for metric, stat, key in PER_LAYER
    }
    metrics["cli.import_ms"] = _metric(statistics.median(import_samples()) * 1000.0, "ms")
    metrics["traced.op_ms"] = _metric(statistics.median(times) * 1000.0, "ms")
    extra = {"ops": len(times), "spans": len(tracer.spans)}
    spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
    OUT.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return wrong == 0, attempted, failed, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        start = time.perf_counter()
        setup(args.workload, args.seed)
        print(time.perf_counter() - start)
        return 0

    run = per_layer if args.trace else end_to_end
    correct, attempted, failed, metrics, extra = run(args.workload, args.seed, args.seconds)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    import numpy

    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=platform.python_version(),
                  numpy=numpy.__version__, nproc=len(os.sched_getaffinity(0)), **extra)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
