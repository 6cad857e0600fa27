"""Run the golden CLI corpus and rewrite its expected results.

``tests/golden/cases.json`` holds the corpus: the text of small input files,
and argv lists run in-process through ``loadshare.cli.main``. The other
files of ``tests/golden/`` are inputs as well. Each case runs in a fresh
directory that holds every input, so that paths in messages are relative.
A case may set ``"stdout": "full"`` to run with a stdout whose writes fail.

For each case ``expected.json`` keeps the exit code, the stderr, the stdout
(in full when short, else its length and sha256) and the sha256 of each file
the run wrote. ``tests/test_golden.py`` checks every case against it, and a
few cases also as ``python -m loadshare`` children. After a deliberate change
of output, run

    PYTHONPATH=src python tests/regen_golden.py

and name the changed entries, with the reason, in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = GOLDEN / "cases.json"
EXPECTED = GOLDEN / "expected.json"
_SHORT = 2000  # stdout up to this many characters is kept in full


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_cases() -> tuple[dict, list[dict]]:
    corpus = json.loads(CASES.read_text(encoding="utf-8"))
    return corpus["files"], corpus["cases"]


@contextlib.contextmanager
def case_dir(files: dict):
    """A fresh directory for one case that holds every input; yields it and the inputs' names."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for path in GOLDEN.iterdir():
            if path.suffix != ".json":
                shutil.copy(path, work / path.name)
        for name, text in files.items():
            # surrogateescape lets a file hold bytes that are not UTF-8 (\udcff is 0xff).
            (work / name).write_bytes(text.encode("utf-8", "surrogateescape"))
        yield work, set(os.listdir(work))


def case_result(code: int, stderr: str, stdout: str, work: Path, inputs: set) -> dict:
    """A run's result in the form ``expected.json`` keeps; ``work`` still holds what it wrote."""
    result = {"exit": code, "stderr": stderr}
    if len(stdout) <= _SHORT:
        result["stdout"] = stdout
    else:
        result["stdout_len"] = len(stdout)
        result["stdout_sha256"] = _sha256(stdout.encode("utf-8"))
    written = {name: _sha256((work / name).read_bytes())
               for name in sorted(set(os.listdir(work)) - inputs)}
    if written:
        result["files"] = written
    return result


def run_case(case: dict, files: dict) -> dict:
    """The observed result of one case, run in-process through ``loadshare.cli.main``."""
    from loadshare.cli import main

    with case_dir(files) as (work, inputs):
        out = _FullStdout() if case.get("stdout") == "full" else io.StringIO()
        err = io.StringIO()
        cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
        os.chdir(work)
        os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(case["argv"]))
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
        text = "" if isinstance(out, _FullStdout) else out.getvalue()
        return case_result(code, err.getvalue(), text, work, inputs)


def main() -> int:
    files, cases = load_cases()
    expected = {case["id"]: run_case(case, files) for case in cases}
    EXPECTED.write_text(json.dumps(expected, indent=1, ensure_ascii=True) + "\n", encoding="utf-8")
    print(f"wrote {len(expected)} cases to {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
