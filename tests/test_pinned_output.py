"""Pinned CLI output: every demo input under every command and format.

Each run goes through ``cli.main`` in-process; its exit code and the
sha256 of its stdout are compared with ``pinned_output.json``.  A change
that alters any byte of any report fails here.  When output is meant to
change, regenerate the pins with

    PYTHONPATH=src python tests/test_pinned_output.py

and say in the change description why the output moved.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from logpoisson import cli

ROOT = Path(__file__).resolve().parent.parent
INPUTS = sorted((ROOT / "demos" / "inputs").glob("*.json"))
PINS = Path(__file__).resolve().parent / "pinned_output.json"
COMMANDS = (
    ("check",),
    ("cohomology", "--complex", "poisson"),
    ("cohomology", "--complex", "log-poisson"),
    ("cohomology", "--complex", "log-derham"),
    ("compare",),
    ("prequantize",),
)
FORMATS = ("table", "json")


def run_id(path: Path, command: tuple[str, ...], fmt: str) -> str:
    return " ".join((path.name,) + command + ("--format", fmt))


def run(path: Path, command: tuple[str, ...], fmt: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(command) + ["--input", str(path), "--format", fmt])
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def all_runs() -> dict:
    return {run_id(p, c, f): run(p, c, f)
            for p in INPUTS for c in COMMANDS for f in FORMATS}


def test_pins_cover_every_run():
    pins = json.loads(PINS.read_text())
    expected = {run_id(p, c, f) for p in INPUTS for c in COMMANDS for f in FORMATS}
    assert set(pins) == expected
    assert len(expected) == 48


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.stem)
def test_output_matches_pins(path):
    pins = json.loads(PINS.read_text())
    for command in COMMANDS:
        for fmt in FORMATS:
            key = run_id(path, command, fmt)
            assert run(path, command, fmt) == pins[key], key


if __name__ == "__main__":
    PINS.write_text(json.dumps(all_runs(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
