"""The README's examples run: every `rarehit ...` line of its "Command line"
block exits 0, and its "Library quick start" block executes."""
import re
import shlex
from pathlib import Path

from rarehit.cli import EXIT_OK, main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_command_line_examples_exit_ok(tmp_path):
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("rarehit ")]
    assert len(commands) == 8
    for argv in commands:
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK, argv


def test_library_quick_start_runs(capsys):
    exec(_block("Library quick start", "python"), {})
    assert capsys.readouterr().out.splitlines()[0] == "4096.0"
