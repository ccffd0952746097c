"""Pinned output: every demo input under every command and format, a few
inline documents on the report paths those inputs never reach, and the
stdout of each demo script.

Each CLI run goes through ``cli.main`` in-process; each demo runs as a
subprocess.  Its exit code and the sha256 of its stdout are compared with
``pinned_output.json``.  A change that alters any byte of any report
fails here.  When output is meant to change, regenerate the pins with

    PYTHONPATH=src python tests/test_pinned_output.py

and say in the change description why the output moved.
"""

import hashlib
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from logpoisson import cli
from conftest import ROOT, src_env

INPUTS = sorted((ROOT / "demos" / "inputs").glob("*.json"))
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
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

# each under the one command whose report branch it reaches
INLINE = {
    "jacobi_failure": (("check",), {
        "variables": ["x", "y", "z"],
        "bracket": {"x,y": "z", "y,z": "y"},
        "max_degree": 4,
    }),
    "unsupported_divisor": (("check",), {
        "variables": ["x", "y"],
        "bracket": {"x,y": "x"},
        "log_generators": ["x + y"],
        "max_degree": 4,
    }),
    "no_divisor": (("check",), {
        "variables": ["x", "y"],
        "bracket": {"x,y": "x"},
        "max_degree": 4,
    }),
    "zero_bracket": (("prequantize",), {
        "variables": ["x", "y"],
        "bracket": {},
        "log_generators": ["x"],
        "max_degree": 4,
    }),
    "log_canonical": (("prequantize",), {
        "variables": ["x", "y"],
        "bracket": {"x,y": "x*y"},
        "log_generators": ["x", "y"],
        "max_degree": 4,
    }),
    "x_g_of_y": (("prequantize",), {
        "variables": ["x", "y"],
        "bracket": {"x,y": "x*(1 + y + 2*y^2)"},
        "log_generators": ["x"],
        "max_degree": 4,
    }),
}


def run_id(path: Path, command: tuple[str, ...], fmt: str) -> str:
    return " ".join((path.name,) + command + ("--format", fmt))


def pin(code: int, stdout: str) -> dict:
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def run(path: Path, command: tuple[str, ...], fmt: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(command) + ["--input", str(path), "--format", fmt])
    return pin(code, out.getvalue())


def run_inline(name: str) -> dict:
    command, doc = INLINE[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc))
        return {run_id(path, command, fmt): run(path, command, fmt) for fmt in FORMATS}


def run_demo(path: Path) -> dict:
    done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    return pin(done.returncode, done.stdout)


def demo_id(path: Path) -> str:
    return f"demos/{path.name}"


def all_runs() -> dict:
    runs = {run_id(p, c, f): run(p, c, f)
            for p in INPUTS for c in COMMANDS for f in FORMATS}
    for name in INLINE:
        runs.update(run_inline(name))
    runs.update({demo_id(p): run_demo(p) for p in DEMOS})
    return runs


def test_pins_cover_every_run():
    pins = json.loads(PINS.read_text())
    expected = {run_id(p, c, f) for p in INPUTS for c in COMMANDS for f in FORMATS}
    expected |= {run_id(Path(f"{name}.json"), command, fmt)
                 for name, (command, _) in INLINE.items() for fmt in FORMATS}
    expected |= {demo_id(p) for p in DEMOS}
    assert set(pins) == expected
    # 48 demo-input runs, 12 inline-document runs, 3 demo scripts
    assert len(expected) == 63


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.stem)
def test_output_matches_pins(path):
    pins = json.loads(PINS.read_text())
    for command in COMMANDS:
        for fmt in FORMATS:
            key = run_id(path, command, fmt)
            assert run(path, command, fmt) == pins[key], key


@pytest.mark.parametrize("name", INLINE)
def test_inline_output_matches_pins(name):
    pins = json.loads(PINS.read_text())
    for key, result in run_inline(name).items():
        assert result == pins[key], key


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_pins(path):
    pins = json.loads(PINS.read_text())
    assert run_demo(path) == pins[demo_id(path)]


if __name__ == "__main__":
    PINS.write_text(json.dumps(all_runs(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
