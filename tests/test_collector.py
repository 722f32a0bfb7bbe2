"""A command runs with the cyclic garbage collector paused.

``cli.main`` disables the collector around the command and enables it
again afterwards only if the caller had it enabled.  The pause is safe
because no command makes reference cycles: run with the collector off,
each published command leaves nothing for ``gc.collect`` to free.
"""

import contextlib
import gc
import io
import json
import sys
from fractions import Fraction as F

import pytest

from conftest import build_exceptions, model_to_json
from quantadist import cli
from test_point_states import exception_certificate_doc
from test_published_output import DATA, FIXTURES

VALUES = (F(1, 4), F(1, 3), F(1, 2))


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture
def collector_state():
    """Leave the collector as the test found it."""
    enabled = gc.isenabled()
    yield
    gc.enable() if enabled else gc.disable()


@pytest.fixture(scope="module")
def certify_files(tmp_path_factory):
    """The benchmark's n=300 exceptions model with its sparse certificate,
    the same certificate with its top entry lowered to 0 (rejected), and a
    model document of an unknown kind (malformed)."""
    root = tmp_path_factory.mktemp("certify")
    model = root / "model.json"
    model.write_text(json.dumps(model_to_json(build_exceptions(300, VALUES))))
    cert_doc = exception_certificate_doc(300, VALUES)
    cert = root / "cert.json"
    cert.write_text(json.dumps(cert_doc))
    cert_doc["entries"][0]["value"] = "0"
    rejected = root / "rejected.json"
    rejected.write_text(json.dumps(cert_doc))
    malformed = root / "malformed.json"
    malformed.write_text(json.dumps({"kind": "nope"}))
    return {name: str(path) for name, path in
            (("model", model), ("cert", cert), ("rejected", rejected),
             ("malformed", malformed))}


def _in_command(frame) -> bool:
    while frame is not None:
        if frame.f_code is cli._cmd_certify.__code__:
            return True
        frame = frame.f_back
    return False


def test_commands_run_with_the_collector_paused(certify_files, collector_state):
    """No collection starts while ``certify`` runs on the benchmark's n=300
    model (the young objects counted meanwhile may be collected once the
    collector is back on), and ``cli.main`` leaves the collector as the
    caller had it, whatever the exit code."""
    gc.enable()
    during = []

    def hook(phase, info):
        if phase == "start" and _in_command(sys._getframe(1)):
            during.append(info["generation"])
    gc.callbacks.append(hook)
    try:
        code = _main(["certify", "--model", certify_files["model"],
                      "--cert", certify_files["cert"], "--json"])
    finally:
        gc.callbacks.remove(hook)
    assert code == cli.EXIT_OK
    assert during == []

    cases = [
        (cli.EXIT_OK, ["certify", "--model", certify_files["model"],
                       "--cert", certify_files["cert"]]),
        (cli.EXIT_MISMATCH, ["certify", "--model", certify_files["model"],
                             "--cert", certify_files["rejected"]]),
        (cli.EXIT_USAGE, ["certify", "--model", certify_files["malformed"],
                          "--cert", certify_files["cert"]]),
        (cli.EXIT_BUDGET, ["distance", "--model", str(FIXTURES / "exceptions.json"),
                           "--pair", "{x0,y0}|{z0}", "--method", "kleene",
                           "--max-states", "3"]),
    ]
    for enabled in (True, False):
        for expected, argv in cases:
            gc.enable() if enabled else gc.disable()
            assert _main(argv) == expected, argv
            assert gc.isenabled() is enabled, (enabled, argv)


def test_published_commands_leave_no_cycles(monkeypatch, collector_state):
    """Every published command as published, ``--json`` reports included."""
    monkeypatch.chdir(FIXTURES)
    cli._parser()  # building the parser leaves argparse's own cycles once
    argvs = [case["argv"] for case in json.loads(DATA.read_text("utf-8"))]
    assert any("--json" in argv for argv in argvs)
    gc.disable()
    for argv in argvs:
        gc.collect()
        _main(argv)
        assert gc.collect() == 0, argv
