"""Replay console transcripts embedded in the documentation.

Scans markdown files for ```console fences.  Inside a fence, lines
starting with ``$ cauchydual`` are commands; the lines that follow, up
to the next command or the end of the fence, are the expected standard
output.  Each command runs as ``python -m cauchydual ...`` and its
output must match exactly (trailing whitespace ignored).  A trailing
``# exit=N`` comment on the command line sets the expected exit code
(default 0).

Usage: ``python -m cauchydual.doccheck [docs_dir]``.
"""

from __future__ import annotations

import pathlib
import re
import shlex
import subprocess
import sys

__all__ = ["extract_transcripts", "check_docs"]

_EXIT_RE = re.compile(r"\s*#\s*exit=(\d+)\s*$")


def extract_transcripts(text):
    """Pull (command, expected_exit, expected_stdout_lines) triples.

    Parameters
    ----------
    text : str
        Markdown source.

    Returns
    -------
    list of (str, int, list of str)
    """
    transcripts, fence = [], None
    for line in text.splitlines():
        if fence is None:
            fence = [] if line.strip() == "```console" else None
        elif line.strip() == "```":
            transcripts += fence
            fence = None
        elif line.startswith("$ "):
            command = line[2:]
            m = _EXIT_RE.search(command)
            code = int(m.group(1)) if m else 0
            fence.append((command[: m.start()] if m else command, code, []))
        elif fence:
            fence[-1][2].append(line)
    return transcripts


def _strip_tail(lines):
    lines = [ln.rstrip() for ln in lines]
    while lines and not lines[-1]:
        lines.pop()
    return lines


def check_docs(docs_dir):
    """Replay every transcript under a docs directory.

    Parameters
    ----------
    docs_dir : str or pathlib.Path

    Returns
    -------
    (int, list of str)
        Number of commands replayed and a list of failure descriptions.
    """
    docs_dir = pathlib.Path(docs_dir)
    failures = []
    count = 0
    for path in sorted(docs_dir.glob("*.md")):
        for command, expected_exit, expected in extract_transcripts(
            path.read_text(encoding="utf-8")
        ):
            tokens = shlex.split(command)
            if not tokens or tokens[0] != "cauchydual":
                failures.append(f"{path.name}: unsupported command {command!r}")
                continue
            count += 1
            argv = [sys.executable, "-m", "cauchydual"] + tokens[1:]
            proc = subprocess.run(argv, capture_output=True, text=True)
            got = _strip_tail(proc.stdout.splitlines())
            want = _strip_tail(expected)
            if proc.returncode != expected_exit:
                failures.append(
                    f"{path.name}: {command!r} exited {proc.returncode}, "
                    f"expected {expected_exit}: {proc.stderr.strip()}"
                )
            elif got != want:
                for j, (g, w) in enumerate(zip(got, want)):
                    if g != w:
                        failures.append(
                            f"{path.name}: {command!r} line {j + 1}: "
                            f"got {g!r}, expected {w!r}"
                        )
                        break
                else:
                    failures.append(
                        f"{path.name}: {command!r} printed {len(got)} lines, "
                        f"expected {len(want)}"
                    )
    return count, failures


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    docs_dir = argv[0] if argv else "docs"
    count, failures = check_docs(docs_dir)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"doccheck: {count} commands replayed, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
