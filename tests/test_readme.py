"""The README's fixture examples print what the README says they print.

Each command of the block after "Bundled fixtures live in" runs through
``cli.main`` from the repository root, where its fixture paths resolve,
and its standard output must be the ``# `` lines that follow it.
"""

import shlex
from pathlib import Path

import pytest

from quantadist.cli import main

ROOT = Path(__file__).resolve().parent.parent


def fixture_examples():
    """(command line, expected stdout lines) for each command of the
    README's fixture block; a line ending in a backslash continues."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("Bundled fixtures live in", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    examples = []
    for line in block.splitlines():
        if line.startswith("# "):
            examples[-1][1].append(line[2:])
        elif line.strip():
            examples.append((line, []))
    return examples


EXAMPLES = fixture_examples()


def test_the_block_has_every_command():
    assert [shlex.split(line)[:2] for line, _out in EXAMPLES] == [
        ["quantadist", "distance"], ["quantadist", "distance"],
        ["quantadist", "certify"], ["quantadist", "repro"]]
    assert all(out for _line, out in EXAMPLES)


@pytest.mark.parametrize("line,expected", EXAMPLES,
                         ids=[f"{i}-{line.split()[1]}" for i, (line, _) in enumerate(EXAMPLES)])
def test_fixture_example_prints_what_the_readme_says(line, expected, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(line)
    assert argv[0] == "quantadist"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out.splitlines() == expected
