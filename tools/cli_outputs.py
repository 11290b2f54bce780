"""Run a fixed list of dpqr commands and list a hash of every file they write.

Usage: python tools/cli_outputs.py OUT_DIR

Each command runs in-process through ``dpqr.cli.main`` with OUT_DIR as the
working directory: gen-workload for three workload families, gen-data from a
kind and from a distribution file (once at 200,003 points, several of the
dataset writer's chunks), run for both algorithms on each workload
(plain, with --true-dist and with --no-noise) and at eps = 1e-300, sample,
and bench on a tiny plan with 1 and 2 workers.  Every seeded command is deterministic, so the
listing printed on stdout, one ``sha256  relative/path`` line per file, is a
fingerprint of the CLI's outputs.  A fixed list of failing commands follows
(bad input files, bad plan fields, bad flags, extreme alpha, delta and
epsilon), one
``exit  sha256(stderr)  name`` line each, so the exit codes and messages are
fingerprinted too; an exception that escapes ``main`` shows as
``raised <Type>`` in place of the exit code.  To check that a change leaves
them unchanged, run the script once with ``PYTHONPATH=<old tree>/src`` and
once with ``PYTHONPATH=<new tree>/src`` and diff the two listings.

Exits 0 when every command of the first list succeeds, 1 (naming the
command) otherwise.
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

# inputs of the failing commands, each named after the command that reads it;
# a string is written as it is, anything else as JSON
BAD_INPUTS = {
    "workload-entry-range.json": {"k": 2, "queries": [[0.5, 1.5]]},
    "workload-entry-bool.json": {"k": 2, "queries": [[True, 0.5]]},
    "workload-entry-huge.json": {"k": 2, "queries": [[10**400, 0.5]]},
    "workload-k-fraction.json": {"k": 2.5, "queries": [[0.5, 0.5]]},
    "dist-string.json": {"k": 2, "values": ["half", 0.5]},
    "dist-negative.json": {"k": 2, "values": [1.1, -0.1]},
    "dist-sum.json": {"k": 2, "values": [0.6, 0.5]},
    "dist-huge.json": {"k": 2, "values": [10**400, 0.5]},
    "data-word.txt": f"k={K}\n0\nfive\n",
    "data-range.txt": f"k={K}\n0\n{K}\n",
    "data-header.txt": "0\n1\n",
    "plan-delta-2.json": {**INPUTS["plan.json"], "delta": 2.0},
    "plan-alpha-0.json": {**INPUTS["plan.json"], "alpha": 0.0},
    "plan-alpha-negative.json": {**INPUTS["plan.json"], "alpha": -0.5},
    "plan-k-fraction.json": {**INPUTS["plan.json"], "k": 16.7},
    "plan-workers-0.json": {**INPUTS["plan.json"], "workers": 0},
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
        # spans four of the dataset writer's 2^16-point chunks, the last one partial
        ["gen-data", "--dist", "dist.json", "--n", "200003", "--seed", "3",
         "--out", "data_chunks.txt"],
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
    # the iteration formula underflows to 0.0, and the run clamps it to T = 1
    cmds += [
        ["run", "--algo", algo, "--data", "data_kind.txt", "--workload", "workload_sign.json",
         "--eps", "1e-300", "--delta", "1e-6", "--seed", "4",
         "--out", f"run_{algo}_eps_1e-300.json"]
        for algo in ("dpfw", "dpam")
    ]
    cmds.append(["sample", "--report", "run_dpam_sign.json", "--count", "65536", "--seed", "5",
                 "--out", "sample.txt"])
    cmds += [
        ["bench", "--plan", "plan.json", "--workers", str(w), "--out", f"bench_w{w}.json"]
        for w in (1, 2)
    ]
    return cmds


def failing_commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of commands that must exit 2 or 3."""
    def run(algo, *flags, data="data_kind.txt", workload="workload_sign.json"):
        return ["run", "--algo", algo, "--data", data, "--workload", workload, "--eps", "1.0",
                "--delta", "1e-6", "--seed", "4", *flags, "--out", "bad_run.json"]

    cases = []
    for path in BAD_INPUTS:
        name = Path(path).stem
        kind = name.split("-")[0]
        if kind == "workload":
            cases.append((name, run("dpfw", workload=path)))
        elif kind == "dist":
            cases.append((name, ["gen-data", "--dist", path, "--n", "10", "--seed", "3",
                                 "--out", "bad_data.txt"]))
        elif kind == "data":
            cases.append((name, run("dpfw", data=path)))
        else:
            cases.append((name, ["bench", "--plan", path, "--out", "bad_bench.json"]))
    cases += [
        ("flag-alpha-0", run("dpfw", "--alpha", "0")),
        ("flag-alpha-word", run("dpfw", "--alpha", "banana")),
    ]
    cases += [
        (f"{algo}-alpha-{alpha}", run(algo, "--alpha", alpha))
        for algo, alpha in (
            ("dpam", "1e-310"), ("dpam", "5e-324"), ("dpfw", "5e-324"),
            ("dpfw", "1e-310"), ("dpam", "1.7e308"),
        )
    ]
    cases += [
        ("flag-delta-5e-324", run("dpfw", "--delta", "5e-324")),
        # 32 alpha log(1/delta) underflows to 0
        ("dpfw-alpha-1e-310-delta-1-1e-16",
         run("dpfw", "--alpha", "1e-310", "--delta", "0.9999999999999999")),
    ]
    cases += [(f"{algo}-eps-1e-320", run(algo, "--eps", "1e-320")) for algo in ("dpfw", "dpam")]
    return cases


def _run_failing(cmd: list[str]) -> tuple[str, str]:
    """(exit code or ``raised <Type>``, sha256 of what the command printed to stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            outcome = str(dpqr_main(cmd))
        except Exception as exc:
            outcome = f"raised {type(exc).__name__}"
    return outcome, hashlib.sha256(err.getvalue().encode()).hexdigest()


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
    for name, content in BAD_INPUTS.items():
        Path(name).write_text(content if isinstance(content, str) else json.dumps(content) + "\n")
    for name, cmd in failing_commands():
        outcome, digest = _run_failing(cmd)
        print(f"{outcome}  {digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
