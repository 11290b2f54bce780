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
    listing = [line.split("  ") for line in proc.stdout.splitlines()]
    # 2 inputs, 3 workloads, 2 datasets, 18 reports, 1 sample, 2 bench results
    assert len(listing) == 28
    for digest, name in listing:
        path = tmp_path / "out" / name
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
