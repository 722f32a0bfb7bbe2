"""The published output of the command line, held as data.

``published_output.json`` lists, for each command below, its argument
vector, the lines of stdout of ``cli.main`` and its exit code.  Commands run in
the bundled fixtures directory, so the model paths in the reports are
bare file names.  A change that alters any published answer shows up
as a diff of that file.  Regenerate it from the repository root with

    PYTHONPATH=src python tests/test_published_output.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from quantadist import cli
from quantadist.repro import REPRODUCTIONS

DATA = Path(__file__).resolve().with_name("published_output.json")
FIXTURES = Path(cli.__file__).with_name("fixtures")


def _commands():
    out = [["repro", name] for name in sorted(REPRODUCTIONS)]
    for model, pair in (("probchain.json", "y:1|x:1"),
                        ("exceptions.json", "{x0,y0}|{z0}")):
        for method in ("kleene", "trace"):
            out.append(["distance", "--model", model, "--pair", pair,
                        "--method", method])
    out.append(["distance", "--model", "transport.json", "--pair", "P|Q",
                "--method", "lp"])
    out.append(["distance", "--model", "transport.json", "--pair", "{A}|{B,C}",
                "--method", "hausdorff"])
    certify = [["certify", "--model", "probchain.json",
                "--cert", "probchain_cert.json"],
               ["certify", "--model", "exceptions.json",
                "--cert", "exceptions_cert.json"]]
    out.extend(certify)
    out.extend(["laws", "--scope", scope]
               for scope in ("polyfunctor", "galois", "quantale"))
    for seed in ("0", "7919", "15838", "23757"):
        out.append(["laws", "--scope", "distlaw", "--seed", seed])
        out.append(["laws", "--scope", "distlaw", "--seed", seed, "--mutant-g"])
    return [argv + ["--json"] for argv in out] + certify


def _run(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue().splitlines()}


def _stored():
    return json.loads(DATA.read_text("utf-8"))


@pytest.fixture
def in_fixtures(monkeypatch):
    monkeypatch.chdir(FIXTURES)


def test_data_covers_every_command():
    assert [case["argv"] for case in _stored()] == _commands()


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_published_output(argv, in_fixtures):
    stored = {tuple(case["argv"]): case for case in _stored()}
    assert _run(argv) == stored[tuple(argv)]


if __name__ == "__main__":
    os.chdir(FIXTURES)
    DATA.write_text(json.dumps([_run(argv) for argv in _commands()], indent=1)
                    + "\n", "utf-8")
