"""CLI grammar, subcommands, exit codes, and output contracts."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cauchydual import ParseError, cdsp, selftest
from cauchydual.cli import main, parse_complex
from cauchydual.selftest import list_checks

ACCEPT = [
    ("1", 1.0 + 0.0j),
    ("-2.5", -2.5 + 0.0j),
    ("+0.5", 0.5 + 0.0j),
    (".25", 0.25 + 0.0j),
    ("2i", 2.0j),
    ("-0.3i", -0.3j),
    (".5i", 0.5j),
    ("1+2i", 1.0 + 2.0j),
    ("1.5-0.5i", 1.5 - 0.5j),
    ("-0.1+0.9i", -0.1 + 0.9j),
    ("1e-3+2.5e2i", 0.001 + 250.0j),
    ("  0.3  ", 0.3 + 0.0j),
]

REJECT = ["", "i", "-i", "1+2j", "1 + 2i", "1+", "2i+1", "1+2i3", "--1", "abc"]


def test_parse_complex_accepts():
    for text, want in ACCEPT:
        assert parse_complex(text) == want


def test_parse_complex_rejects():
    for text in REJECT:
        with pytest.raises(ParseError):
            parse_complex(text)


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_stdout(capsys, tmp_path):
    code, out, err = _run(
        ["analyze", "--measure", "1;i", "--skip-oracle"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["cdsp"]["verdict"] == "NotSubnormal"
    assert doc["oracle"] is None
    assert "wall_time_s=" in err


def test_analyze_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = _run(
        ["analyze", "--measure", "1;i", "--skip-oracle", "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    code, out, _ = _run(
        ["analyze", "--measure", "1;i", "--skip-oracle"], capsys
    )
    assert path.read_text(encoding="utf-8") == out


def test_analyze_with_oracle(capsys):
    code, out, _ = _run(["analyze", "--measure", "1", "--nmax", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [run["N"] for run in doc["oracle"]["runs"]] == [48, 64, 96]


def test_analyze_schema_violation_is_exit_3(capsys, monkeypatch):
    import cauchydual.cli as cli

    build = cli.build_report

    def broken(*args, **kwargs):
        doc = build(*args, **kwargs)
        doc["cdsp"]["verdict"] = "Maybe"
        return doc

    monkeypatch.setattr(cli, "build_report", broken)
    code, out, err = _run(["analyze", "--measure", "1;i", "--skip-oracle"], capsys)
    assert code == 3
    assert out == ""
    assert "error: SchemaViolation: $.cdsp.verdict: " in err


def test_analyze_does_not_import_jsonschema():
    code = (
        "import sys\n"
        "from cauchydual.cli import main\n"
        "assert main(['analyze', '--measure', '1;i']) == 0\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_analyze_bad_measure(capsys):
    code, _, err = _run(["analyze", "--measure", "bogus"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text", ["1:w=1e400", "deg:1e400", "1;deg:0.5:w=1e999"])
def test_analyze_non_finite_atom_exits_2(capsys, text):
    code, out, err = _run(["analyze", "--skip-oracle", "--measure", text], capsys)
    assert (code, out) == (2, "")
    assert "is not finite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--skip-oracle", "--measure", "1:w=1e308"], "root finding overflows at coefficient scale 1.000e+308"),
        (["--skip-oracle", "--measure", "1:w=1e308;i"], "weight numerator coefficient overflows (inf)"),
        (["--skip-oracle", "--measure", "1:w=1e154"], "root finding overflows at coefficient scale 1.000e+154"),
        (["--trunc", "48", "--measure", "1:w=1e20"], "SingularGram: Gram pivot 0 of 48"),
    ],
)
def test_analyze_overflowing_weight_exits_3(capsys, argv, message):
    code, out, err = _run(["analyze", *argv], capsys)
    assert (code, out) == (3, "")
    assert message in err


def test_kernel_at_origin(capsys):
    code, out, _ = _run(
        ["kernel", "--measure", "1;i", "--z", "0", "--lambda", "0"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    k = complex(doc["k"]["re"], doc["k"]["im"])
    assert abs(k - 1.0) <= 1e-12
    assert set(doc) == {"k_tilde", "k_hat", "k", "kernel_hb"}


def test_kernel_matches_library(capsys):
    from cauchydual import (
        build_identification,
        build_model,
        kernel_full,
        parse_measure,
    )

    code, out, _ = _run(
        ["kernel", "--measure", "1;i", "--z", "0.1+0.2i", "--lambda", "0.3"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    model = build_model(parse_measure("1;i"))
    want = kernel_full(model, 0.1 + 0.2j, 0.3 + 0j)
    assert abs(complex(doc["k"]["re"], doc["k"]["im"]) - want) <= 1e-12


def test_kernel_outside_disk(capsys):
    code, _, err = _run(
        ["kernel", "--measure", "1;i", "--z", "1", "--lambda", "0"], capsys
    )
    assert code == 2
    assert "unit disk" in err


def test_kernel_bad_literal(capsys):
    code, _, _ = _run(
        ["kernel", "--measure", "1;i", "--z", "1+2j", "--lambda", "0"], capsys
    )
    assert code == 2


def test_sweep_grid(capsys):
    code, out, _ = _run(["sweep", "--angles", "30:170:10"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    thetas = [float(line.split(",")[0]) for line in lines[1:]]
    assert thetas == [30.0 + 10.0 * j for j in range(15)]
    verdicts = [line.split(",")[1] for line in lines[1:]]
    assert verdicts[0] == "Inconclusive"
    assert "NotSubnormal" in verdicts


def test_sweep_csv_file(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = _run(
        ["sweep", "--angles", "60:120:30", "--csv", str(path)], capsys
    )
    assert code == 0
    assert out == ""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4


def test_sweep_all_rows_failed_is_exit_3(capsys):
    code, out, _ = _run(["sweep", "--angles", "181:181:1"], capsys)
    assert code == 3
    assert "ERROR:ValidationError" in out


def test_sweep_partial_failure_is_exit_0(capsys):
    code, out, _ = _run(["sweep", "--angles", "90:181:91"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "NotSubnormal" in lines[1]
    assert "ERROR:ValidationError" in lines[2]


def test_sweep_spread_weights_keep_their_verdicts(capsys):
    # The closed form alone decides each row; only the origin-row gate of
    # debranges.compute_A may still fail one.
    code, out, _ = _run(["sweep", "--weights", "0.01,50", "--angles", "5:180:5"], capsys)
    assert code == 0
    cells = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert len(cells) == 36
    assert set(cells) <= {"NotSubnormal", "KnownSubnormal", "ERROR:ResidualTooLarge"}
    assert cells[-1] == "KnownSubnormal"


def test_sweep_antipodal_row_survives_a_failed_analysis(capsys):
    # The antipodal pair is a known subnormal case, so the row keeps its
    # verdict though the origin-row gate refuses its analysis.
    code, out, _ = _run(["sweep", "--angles", "180:180:1", "--weights", "1e6,1e6"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "180,KnownSubnormal,,,,"


def test_analyze_antipodal_failed_analysis_exits_3(capsys):
    code, out, err = _run(["analyze", "--skip-oracle", "--measure", "1:w=1e6;-1:w=1e6"], capsys)
    assert (code, out) == (3, "")
    assert "ResidualTooLarge: kernel numerator has nonvanishing origin coefficients" in err


def test_sweep_has_no_trunc_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--angles", "90:90:1", "--trunc", "48"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --trunc 48" in captured.err


def test_sweep_bad_ranges(capsys):
    assert _run(["sweep", "--angles", "10:5:1"], capsys)[0] == 2
    assert _run(["sweep", "--angles", "10:20:0"], capsys)[0] == 2
    assert _run(["sweep", "--angles", "10:20"], capsys)[0] == 2
    assert _run(["sweep", "--angles", "a:b:c"], capsys)[0] == 2
    for angles in ("0:nan:1", "0:inf:1", "0:10:inf"):
        code, out, err = _run(["sweep", "--angles", angles], capsys)
        assert (code, out) == (2, "") and f"angle range {angles!r} must be finite" in err
    code, out, err = _run(["sweep", "--angles", "0:180:1e-5"], capsys)
    assert (code, out) == (2, "")
    assert "angle range '0:180:1e-5' would make 18000001 rows, more than 10000" in err
    code, out, err = _run(["sweep", "--angles=-1e308:1e308:1"], capsys)
    assert (code, out) == (2, "") and "would make inf rows" in err


def test_sweep_bad_weights(capsys):
    assert _run(["sweep", "--angles", "90:90:1", "--weights", "1,0"], capsys)[0] == 2
    assert _run(["sweep", "--angles", "90:90:1", "--weights", "x,y"], capsys)[0] == 2
    assert _run(["sweep", "--angles", "90:90:1", "--weights", "1"], capsys)[0] == 2
    for weights in ("nan,1", "inf,1"):
        code, out, err = _run(["sweep", "--angles", "90:90:1", "--weights", weights], capsys)
        assert (code, out) == (2, "") and f"weights {weights!r} must be positive and finite" in err


def test_selftest_list(capsys):
    code, out, _ = _run(["selftest", "--list"], capsys)
    assert code == 0
    assert out.splitlines() == list(list_checks())


def test_selftest_passes(capsys):
    code, out, _ = _run(["selftest"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "selftest: 36 checks, 0 failed"
    assert all(
        line.startswith(("PASS ", "selftest:")) for line in lines
    )


def test_selftest_perturb_exit_code(capsys, monkeypatch):
    table = tuple(
        dataclasses.replace(c, expected=c.expected * (1 + 1e-3))
        if c.check_id == "cdsp.s_offdiag" else c
        for c in selftest.CHECKS
    )
    monkeypatch.setattr(selftest, "CHECKS", table)
    code, out, _ = _run(["selftest"], capsys)
    assert code == 1
    assert any(line.startswith("FAIL cdsp.s_offdiag ") for line in out.splitlines())


@pytest.mark.parametrize(
    "argv", [["selftest"], ["analyze", "--measure", "1;i"]], ids=["selftest", "analyze"]
)
def test_cdsp_environment_is_ignored(argv):
    # The former knobs CDSP_QUAD_LEVEL and CDSP_SELFTEST_PERTURB change nothing.
    def run(env):
        return subprocess.run(
            [sys.executable, "-m", "cauchydual", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    clean = {k: v for k, v in os.environ.items() if not k.startswith("CDSP_")}
    knobs = dict(clean, CDSP_QUAD_LEVEL="7", CDSP_SELFTEST_PERTURB="cdsp.s_offdiag")
    plain, knobbed = run(clean), run(knobs)
    assert (plain.returncode, knobbed.returncode) == (0, 0)
    assert knobbed.stdout == plain.stdout


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cauchydual", "selftest", "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cdsp.verdict" in proc.stdout


def test_analyze_renders_once(capsys, monkeypatch):
    import cauchydual.cli as cli
    import cauchydual.report as report

    calls = []
    render = report.render_json

    def counted(doc):
        calls.append(1)
        return render(doc)

    monkeypatch.setattr(report, "render_json", counted)
    monkeypatch.setattr(cli, "render_json", counted)
    code, out, _ = _run(["analyze", "--measure", "1;i", "--skip-oracle"], capsys)
    assert code == 0
    assert len(calls) == 1
    assert out == render(cli.build_report(cli.parse_measure("1;i"), skip_oracle=True))


@pytest.mark.parametrize("nmax", ["0", "-3", "11"])
def test_analyze_nmax_outside_range_exits_2(capsys, nmax):
    code, out, err = _run(["analyze", "--measure", "1;i", "--nmax", nmax], capsys)
    assert code == 2
    assert out == ""
    assert "error: defect order must be in 1..10" in err


@pytest.mark.parametrize("skip", [[], ["--skip-oracle"]])
def test_analyze_trunc_below_8_exits_2(capsys, skip):
    code, out, err = _run(["analyze", "--measure", "1;i", "--trunc", "7", *skip], capsys)
    assert (code, out) == (2, "")
    assert "error: truncation size must be at least 8, got 7" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--measure", "1", "--skip-oracle", "--out"],
    ["sweep", "--angles", "90:90:1", "--csv"],
])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    path = str(tmp_path / "missing" / "x.out")
    code, out, err = _run([*argv, path], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot write {path!r}: No such file or directory" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--measure", "1;i", "--out"],
    ["sweep", "--angles", "1:180:1", "--csv"],
])
def test_unwritable_output_exits_2_before_the_work(capsys, monkeypatch, tmp_path, argv):
    import cauchydual.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before the output was opened")

    monkeypatch.setattr(cli, "build_report", refuse)
    monkeypatch.setattr(cli, "sweep_angle", refuse)
    path = str(tmp_path / "missing" / "x.out")
    code, out, err = _run([*argv, path], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot write {path!r}: No such file or directory" in err


def test_failed_run_leaves_no_output_file(capsys, tmp_path):
    # A new file is removed when the work raises; an existing one keeps
    # its content, and a successful run replaces all of it.
    path = tmp_path / "x.json"
    argv = ["analyze", "--measure", "deg:0;deg:15", "--out", str(path)]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (3, "")
    assert "NonConvergence" in err
    assert not path.exists()
    path.write_text("x" * 100_000)
    assert _run(argv, capsys)[0] == 3
    assert path.read_text() == "x" * 100_000
    argv = ["analyze", "--measure", "1", "--skip-oracle"]
    assert _run([*argv, "--out", str(path)], capsys)[0] == 0
    assert path.read_text() == _run(argv, capsys)[1]


@pytest.mark.parametrize("trunc, nmax, floor", [
    ("8", "6", 12), ("9", "2", 10), ("11", "6", 12), ("15", "10", 16),
])
def test_trunc_below_the_oracle_floor_exits_2(capsys, monkeypatch, trunc, nmax, floor):
    # Orders 2..4 of the shift and nmax of the dual each keep 2 interior
    # rows only from N = max(10, nmax + 6) on; the pair is checked before
    # any model is built.  The sizes from the floor on run, and
    # --skip-oracle still takes 8.
    from cauchydual import report

    build = report.build_model
    monkeypatch.setattr(report, "build_model", lambda mu: pytest.fail("model built"))
    argv = ["analyze", "--measure", "1", "--nmax", nmax, "--trunc"]
    code, out, err = _run([*argv, trunc], capsys)
    assert (code, out) == (2, "")
    assert (f"error: truncation size {trunc} is below {floor} = max(10, nmax + 6) "
            f"for nmax {nmax}") in err
    monkeypatch.setattr(report, "build_model", build)
    assert _run([*argv, str(floor)], capsys)[0] == 0
    assert _run([*argv, "8", "--skip-oracle"], capsys)[0] == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--measure", "1;i"],
    ["analyze", "--measure", "1;i", "--skip-oracle"],
])
@pytest.mark.parametrize("trunc", ["4097", str(10**9)])
def test_trunc_above_cap_exits_2(capsys, monkeypatch, argv, trunc):
    # The cap is checked before any Gram matrix is built.
    def refuse(mu, n):
        raise AssertionError(f"Gram matrix of size {n} was built")

    monkeypatch.setattr(cdsp, "gram_monomials", refuse)
    code, out, err = _run([*argv, "--trunc", trunc], capsys)
    assert (code, out) == (2, "")
    assert f"error: truncation size {trunc} is above the cap 4096" in err


@pytest.mark.parametrize("text, scale", [
    ("1:w=1e-17", "2.000e+00"), ("1;i:w=1e300", "2.000e+300"), ("deg:0;deg:1e-7", "1.000e+01"),
])
def test_roundoff_positivity_loss_exits_3(capsys, text, scale):
    # Each numerator is positive in exact arithmetic; its grid minimum
    # evaluates to 0, a boundary root rather than invalid input.
    code, out, err = _run(["analyze", "--skip-oracle", "--measure", text], capsys)
    assert (code, out) == (3, "")
    assert ("error: BoundaryRoot: weight numerator minimum 0.000e+00 on the circle "
            f"is round-off of 0 at coefficient scale {scale}") in err
