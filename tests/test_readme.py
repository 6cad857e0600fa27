"""The examples of README.md, run as a reader runs them.

Each ``$ python -m loadshare ...`` line of an indented block runs in order, in one empty
directory, through ``cli.main`` in-process; what a terminal shows, stdout then stderr, must equal
the indented lines that follow it byte for byte. ``$ head -N FILE`` is read in Python. Any other
``$`` line fails the test, so a new example cannot be skipped silently.
"""

import shlex
from pathlib import Path

from loadshare import cli

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT, INDENT = "    $ ", "    "


def examples(text: str) -> list[tuple[str, str]]:
    """(command, output) for each prompt line: the output is the indented lines up to the next
    prompt or the block's end, unindented, each ending in a newline."""
    lines, found = text.splitlines(), []
    for i, line in enumerate(lines):
        if line.startswith(PROMPT):
            output = []
            for follow in lines[i + 1 :]:
                if not follow.startswith(INDENT) or follow.startswith(PROMPT):
                    break
                output.append(follow[len(INDENT) :] + "\n")
            found.append((line[len(PROMPT) :], "".join(output)))
    return found


def shown(command: str, capsys) -> str:
    """What a terminal shows for ``command``, run in the current directory."""
    argv = shlex.split(command)
    if argv[:3] == ["python", "-m", "loadshare"]:
        code = cli.main(argv[3:])
        captured = capsys.readouterr()
        assert code == 0, f"$ {command} exited {code}: {captured.err}"
        return captured.out + captured.err
    if argv[0] == "head" and len(argv) == 3 and argv[1][:1] == "-":
        with open(argv[2], newline="") as handle:  # the file's own line ends
            return "".join(handle.readlines()[: int(argv[1][1:])])
    raise AssertionError(f"no runner for the README example $ {command}")


def test_every_prompt_line_is_an_example():
    # A prompt indented otherwise, or in a fenced block, would be missed by examples().
    text = README.read_text(encoding="utf-8")
    prompts = [line for line in text.splitlines() if line.lstrip().startswith("$ ")]
    assert len(prompts) == len(examples(text)) >= 4


def test_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, output in examples(README.read_text(encoding="utf-8")):
        assert shown(command, capsys) == output, f"$ {command}"
