"""The README's examples run as written and print what their comments say."""

import re
import shlex
from pathlib import Path

import pytest

from subrank.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


COMMANDS = [line for line in fenced_block("Command line", "sh").splitlines()
            if line.startswith("subrank ")]


def test_command_block_found():
    assert any(" dim " in line for line in COMMANDS)
    assert any(line.startswith("subrank q ") for line in COMMANDS)
    assert any(line.startswith("subrank table ") and "--verify" in line for line in COMMANDS)


@pytest.mark.parametrize("line", COMMANDS,
                         ids=[line.partition("#")[0].strip() for line in COMMANDS])
def test_command_line_example(line, capsys, monkeypatch, tmp_path, cached_cli_run):
    monkeypatch.chdir(tmp_path)  # `--out` files land here
    monkeypatch.delenv("SUBRANK_SEED", raising=False)
    command, _, comment = line.partition("#")
    argv, comment = shlex.split(command)[1:], comment.strip()
    if argv[0] == "table" and "--verify" in argv:  # shared with test_cli.py
        code, out, elapsed = cached_cli_run(*argv)
        assert code == 0
    else:
        assert main(argv) == 0
        out = capsys.readouterr().out
    if argv[0] == "q":
        q = re.match(r"Q = (\d+),", comment).group(1)
        assert f"Q({argv[argv.index('--dims') + 1]}) = {q}\n" in out
    if argv[0] == "dim":
        dim = re.fullmatch(r"(\d+), oracle agrees", comment).group(1)
        assert out.endswith(f"dim = {dim}\noracle agrees: {dim}\n")
    if argv[0] == "table" and "--verify" in argv:
        lines = out.strip().split("\n")
        assert len(lines) == int(argv[argv.index("--max") + 1]) + 1
        assert all(line.endswith("true,true") for line in lines[1:])
        assert elapsed < 600


def test_library_example():
    exec(fenced_block("Library example", "python"), {})
