"""Documentation transcripts replay and demo scripts run clean."""

import pathlib
import subprocess
import sys

import pytest

from cauchydual import doccheck
from cauchydual.doccheck import check_docs, extract_transcripts
from cauchydual.selftest import list_checks

ROOT = pathlib.Path(__file__).resolve().parents[1]

SAMPLE = """# Title

```console
$ cauchydual selftest --list
a.b
c.d
$ cauchydual sweep --angles 1:2:1
row
```

Prose in between.

```console
$ cauchydual kernel --z bad  # exit=2
```

```python
print("not a transcript")
```
"""


def test_extract_transcripts_shapes():
    blocks = extract_transcripts(SAMPLE)
    assert len(blocks) == 3
    cmd, code, lines = blocks[0]
    assert cmd == "cauchydual selftest --list"
    assert code == 0
    assert lines == ["a.b", "c.d"]
    assert blocks[1] == ("cauchydual sweep --angles 1:2:1", 0, ["row"])
    cmd, code, lines = blocks[2]
    assert cmd.strip() == "cauchydual kernel --z bad"
    assert code == 2
    assert lines == []


def test_extract_ignores_other_fences():
    blocks = extract_transcripts("```python\n$ cauchydual x\n```\n")
    assert blocks == []


def test_docs_replay_exactly():
    count, failures = check_docs(ROOT / "docs")
    assert failures == []
    assert count == 8


def _replay(tmp_path, capsys, command, output):
    """``doccheck.main`` on a docs dir holding one transcript; returns the
    exit code and the printed lines."""
    fence = "\n".join(["```console", f"$ {command}", *output, "```", ""])
    (tmp_path / "page.md").write_text(fence, encoding="utf-8")
    code = doccheck.main([str(tmp_path)])
    return code, capsys.readouterr().out.splitlines()


def test_doccheck_passes_a_matching_transcript(tmp_path, capsys):
    code, lines = _replay(tmp_path, capsys, "cauchydual selftest --list", list_checks())
    assert code == 0
    assert lines == ["doccheck: 1 commands replayed, 0 failures"]


@pytest.mark.parametrize(
    "command, output, failure, count",
    [
        ("cauchydual selftest --list", ["wrong.id"],
         "page.md: 'cauchydual selftest --list' line 1: got '{first}', expected 'wrong.id'", 1),
        ("cauchydual selftest --list  # exit=2", list_checks(),
         "page.md: 'cauchydual selftest --list' exited 0, expected 2: wall_time_s=", 1),
        ("cauchydual selftest --list", list_checks()[:1],
         "page.md: 'cauchydual selftest --list' printed {rows} lines, expected 1", 1),
        ("python -m cauchydual selftest --list", list_checks(),
         "page.md: unsupported command 'python -m cauchydual selftest --list'", 0),
    ],
    ids=["wrong-line", "wrong-exit", "too-few-lines", "other-command"],
)
def test_doccheck_reports_each_failure(tmp_path, capsys, command, output, failure, count):
    code, lines = _replay(tmp_path, capsys, command, output)
    ids = list_checks()
    failure = failure.format(first=ids[0], rows=len(ids))
    assert code == 1
    assert len(lines) == 2 and lines[0].startswith(f"FAIL {failure}")
    assert lines[1] == f"doccheck: {count} commands replayed, 1 failures"


@pytest.mark.parametrize(
    "name",
    [
        "01_weight_factorization.py",
        "02_kernels.py",
        "03_verdict_sweep.py",
        "04_operator_oracle.py",
    ],
)
def test_demo_runs_clean(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
