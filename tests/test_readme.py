"""The README's quick start and command-line transcript print what it says."""

import re
import shlex
from pathlib import Path

from resnf.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> list[tuple[str, list[str]]]:
    """The fenced blocks of the README as ``(language, lines)``, in order."""
    return [
        (lang, body.splitlines())
        for lang, body in re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)
    ]


def _block_after(lang: str) -> tuple[list[str], list[str]]:
    """The first block in ``lang`` and the plain block that follows it."""
    blocks = _blocks()
    i = next(i for i, (found, _) in enumerate(blocks) if found == lang)
    assert blocks[i + 1][0] == ""
    return blocks[i][1], blocks[i + 1][1]


def test_quick_start_prints_its_output_block(capsys):
    code, expected = _block_after("python")
    exec("\n".join(code), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_transcript_matches_the_commands(tmp_path, capsys, monkeypatch):
    problem, transcript = _block_after("json")
    (tmp_path / "problem.json").write_text("\n".join(problem) + "\n")
    monkeypatch.chdir(tmp_path)
    runs: list[tuple[str, list[str]]] = []
    for line in transcript:
        if line.startswith("$ "):
            runs.append((line, []))
        elif line:
            runs[-1][1].append(line)
    assert [command for command, _ in runs] == [
        "$ resnf analyze problem.json",
        "$ resnf normalize problem.json --out out/",
        "$ resnf verify problem.json --transform out/",
    ]
    for command, expected in runs:
        assert run(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command
