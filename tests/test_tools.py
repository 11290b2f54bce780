"""Smoke tests of the scripts under ``tools/``."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import dpqr

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(dpqr.__file__).resolve().parents[1])


def test_cli_outputs_lists_every_file_it_writes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_outputs.py"), str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split("  ") for line in proc.stdout.splitlines()]
    files = [line for line in lines if len(line) == 2]
    # 2 inputs, 3 workloads, 3 datasets, 20 reports, 1 sample, 2 bench results
    assert len(files) == 31
    for digest, name in files:
        path = tmp_path / "out" / name
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # every failing command ends in a documented exit code, not a traceback
    failures = {name: outcome for outcome, _, name in (line for line in lines if len(line) == 3)}
    assert len(failures) == len(lines) - len(files) == 27
    assert {name: code for name, code in failures.items() if code not in ("2", "3")} == {}
