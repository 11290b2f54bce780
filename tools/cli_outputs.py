"""Run a fixed list of dpqr commands and list a hash of every file they write.

Usage: python tools/cli_outputs.py OUT_DIR

Each command runs in-process through ``dpqr.cli.main`` with OUT_DIR as the
working directory: gen-workload for three workload families, gen-data from a
kind and from a distribution file, run for both algorithms on each workload
(plain, with --true-dist and with --no-noise), sample, and bench on a tiny
plan with 1 and 2 workers.  Every seeded command is deterministic, so the
listing printed on stdout, one ``sha256  relative/path`` line per file, is a
fingerprint of the CLI's outputs.  To check that a change leaves them
byte-identical, run the script once with ``PYTHONPATH=<old tree>/src`` and
once with ``PYTHONPATH=<new tree>/src`` and diff the two listings.

Exits 0 when every command succeeds, 1 (naming the command) otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from dpqr.cli import main as dpqr_main

K = 16
WORKLOADS = {"sign": "random_sign", "box": "random_box", "parities": "parities(4)"}

# inputs written before the commands run, identical for every source tree
INPUTS = {
    "dist.json": {"k": K, "values": [(i + 1) / 136 for i in range(K)]},
    "plan.json": {
        "algorithms": ["dpfw", "dpam"],
        "n_grid": [128, 256],
        "eps_grid": [1.0],
        "delta": 1e-6,
        "repetitions": 2,
        "k": 8,
        "dist_kind": "dirichlet(1.0)",
        "workload_kind": "random_sign",
        "workload_m": 4,
        "seed": 7,
    },
}


def commands() -> list[list[str]]:
    cmds = [
        ["gen-workload", "--k", str(K), "--m", "8", "--kind", kind, "--seed", "1",
         "--out", f"workload_{name}.json"]
        for name, kind in WORKLOADS.items()
    ]
    cmds += [
        ["gen-data", "--kind", "dirichlet(0.5)", "--k", str(K), "--n", "500", "--seed", "2",
         "--out", "data_kind.txt"],
        ["gen-data", "--dist", "dist.json", "--n", "400", "--seed", "3",
         "--out", "data_dist.txt"],
    ]
    for algo in ("dpfw", "dpam"):
        for name in WORKLOADS:
            run = ["run", "--algo", algo, "--data", "data_kind.txt",
                   "--workload", f"workload_{name}.json", "--eps", "1.0", "--delta", "1e-6",
                   "--seed", "4"]
            cmds += [
                run + ["--out", f"run_{algo}_{name}.json"],
                run + ["--true-dist", "dist.json", "--out", f"run_{algo}_{name}_true.json"],
                run + ["--no-noise", "--out", f"run_{algo}_{name}_nonoise.json"],
            ]
    cmds.append(["sample", "--report", "run_dpam_sign.json", "--count", "65536", "--seed", "5",
                 "--out", "sample.txt"])
    cmds += [
        ["bench", "--plan", "plan.json", "--workers", str(w), "--out", f"bench_w{w}.json"]
        for w in (1, 2)
    ]
    return cmds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    for name, content in INPUTS.items():
        Path(name).write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
    cmds = commands()
    for cmd in cmds:
        err = io.StringIO()  # run prints wall-clock timings there
        with contextlib.redirect_stderr(err):
            code = dpqr_main(cmd)
        if code != 0:
            print(f"dpqr {' '.join(cmd)} exited {code}\n{err.getvalue()}", file=sys.stderr)
            return 1
    written = list(INPUTS) + [cmd[cmd.index("--out") + 1] for cmd in cmds]
    for name in sorted(written):
        print(f"{hashlib.sha256(Path(name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
