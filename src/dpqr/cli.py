"""Command-line entry point and the on-disk file formats.

Formats are deliberately plain so files diff cleanly and can be produced by
other tooling:

  workload      JSON {"k": int, "queries": [[...], ...]}
  distribution  JSON {"k": int, "values": [...]}
  dataset       text, header line "k=<int>", then one index per line
  report        JSON (one run; see dpqr.report.RunReport)
  plan/result   JSON (see dpqr.bench)

In workload and distribution files "k" must be a JSON integer and every
value a JSON number (never a bool or a string); other keys are ignored on
read, so older workload files with a "symmetric" key still load.

JSON is written with sorted keys and shortest round-trip floats, so every
seeded subcommand reproduces its output byte for byte.  Wall-clock timings
are the one nondeterministic quantity; file writers drop them by default and
print them to stderr instead.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import ExperimentPlan, ExperimentResult, gen_distribution, gen_workload
from .bench import run_experiment, sample_dataset
from .core import (
    Dataset,
    PrivacyBudget,
    QueryWorkload,
    SimplexVector,
    new_dataset,
    new_simplex,
    new_workload,
)
from .dpam import release_dpam
from .dpfw import release_dpfw
from .errors import DegenerateSchedule, ValidationError
from .mechanisms import NoiseStream
from .report import RunReport


def _write_json(obj, path: str):
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:  # an integer longer than Python converts
            raise ValidationError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ValidationError(f"{path}: expected a JSON object at the top level")
    return d


def _int_field(d: dict, key: str, path: str) -> int:
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: field {key!r} is not an integer: {value!r}")
    return value


def save_workload(w: QueryWorkload, path: str):
    _write_json({"k": w.k, "queries": [list(map(float, row)) for row in w.queries]}, path)


def load_workload(path: str) -> QueryWorkload:
    d = _read_json(path)
    for key in ("k", "queries"):
        if key not in d:
            raise ValidationError(f"{path}: workload file missing field {key!r}")
    rows = d["queries"]
    if not isinstance(rows, list):
        raise ValidationError(f"{path}: workload queries must be a list of rows")
    if not rows:
        raise ValidationError(f"{path}: workload has no queries")
    k = _int_field(d, "k", path)
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValidationError(f"{path}: row {i} is not a list")
        if len(row) != k:
            raise ValidationError(f"{path}: row {i} has length {len(row)}, expected k={k}")
        for j, x in enumerate(row):
            # compared as parsed: float() of a huge JSON integer overflows
            if isinstance(x, bool) or not isinstance(x, (int, float)) or abs(x) > 1:
                raise ValidationError(f"{path}: query entry at row {i}, column {j} is not in [-1, 1]")
    return new_workload(np.asarray(rows, dtype=float))


def save_dataset(data: Dataset, k: int, path: str):
    with open(path, "w", newline="") as fh:
        fh.write(f"k={k}\n")
        fh.writelines(f"{z}\n" for z in data.points.tolist())


def load_dataset(path: str) -> tuple[Dataset, int]:
    with open(path, "rb") as fh:
        raw = fh.read()
    head, _, body = raw.partition(b"\n")
    head = head.removesuffix(b"\r")
    # Fast path for what save_dataset writes: ASCII digits, one index per
    # line.  Anything else, and any index out of range, goes through the
    # line scan, which names the offending line.  fromstring reads a body of
    # blanks alone as [0] and saturates at the int64 maximum, hence the
    # digit test and the bound; a k of at most 18 digits is below that
    # maximum, and int() refuses very long digit strings.
    if (
        head.startswith(b"k=")
        and head[2:].isdigit()
        and len(head) <= 20
        and body.strip()
        and not body.translate(None, b"0123456789\r\n")
    ):
        k = int(head[2:])
        points = np.fromstring(body, dtype=np.int64, sep=" ")
        if int(points.max()) < k:
            return new_dataset(points), k
    return _scan_dataset(path)


def _scan_dataset(path: str) -> tuple[Dataset, int]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("k="):
        raise ValidationError(f"{path}: line 1 must be a 'k=<int>' header")
    try:
        k = int(lines[0][2:])
    except ValueError as exc:
        raise ValidationError(f"{path}: line 1: cannot parse universe size") from exc
    points = []
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text:
            continue
        try:
            z = int(text)
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: not an integer index: {text!r}") from exc
        if not (0 <= z < k):
            raise ValidationError(f"{path}: line {lineno}: index {z} outside [0, {k})")
        points.append(z)
    if not points:
        raise ValidationError(f"{path}: dataset has no points")
    return new_dataset(points), k


def load_distribution(path: str) -> SimplexVector:
    d = _read_json(path)
    if "values" not in d:
        raise ValidationError(f"{path}: distribution file missing field 'values'")
    values = d["values"]
    if not isinstance(values, list):
        raise ValidationError(f"{path}: distribution values must be a list of numbers")
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValidationError(f"{path}: distribution value {x!r} at index {i} is not a number")
        if abs(x) > sys.float_info.max:
            raise ValidationError(f"{path}: distribution value at index {i} is too large for a float")
    p = new_simplex(np.asarray(values, dtype=float))
    if "k" in d and _int_field(d, "k", path) != p.k:
        raise ValidationError(f"{path}: header k={d['k']} but {p.k} values present")
    return p


def write_report(report: RunReport, path: str, include_timings: bool = False):
    _write_json(report.to_dict(include_timings=include_timings), path)


def load_report(path: str) -> RunReport:
    return RunReport.from_dict(_read_json(path))


def load_plan(path: str) -> ExperimentPlan:
    return ExperimentPlan.from_dict(_read_json(path))


def write_result(result: ExperimentResult, path: str):
    _write_json(result.to_dict(), path)


def _alpha_arg(text: str):
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}")
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"alpha must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpqr",
        description="Differentially private answers to linear query workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-workload", help="generate a synthetic workload file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", required=True, help="random_sign | random_box | parities(d)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-data", help="sample a dataset from a distribution")
    p.add_argument("--dist", help="distribution file to sample from")
    p.add_argument("--kind", help="uniform | dirichlet(c) | sparse(s)")
    p.add_argument("--k", type=int, help="universe size (with --kind)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run one private release")
    p.add_argument("--algo", choices=("dpfw", "dpam"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=_alpha_arg, default=None, help="number or 'auto'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--true-dist", help="distribution file for population error")
    p.add_argument("--no-noise", action="store_true", help="non-private debug run")
    p.add_argument("--with-timings", action="store_true", help="embed wall-clock timings")

    p = sub.add_parser("bench", help="run an error-scaling experiment plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("sample", help="draw synthetic data from a report's distribution")
    p.add_argument("--report", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen_workload(args) -> int:
    rng = NoiseStream(args.seed, "gen-workload")
    w = gen_workload(args.k, args.m, args.kind, rng)
    save_workload(w, args.out)
    return 0


def _cmd_gen_data(args) -> int:
    if (args.dist is None) == (args.kind is None):
        raise ValidationError("pass exactly one of --dist or --kind")
    rng = NoiseStream(args.seed, "gen-data")
    if args.dist is not None:
        p = load_distribution(args.dist)
    else:
        if args.k is None:
            raise ValidationError("--kind requires --k")
        p = gen_distribution(args.k, args.kind, rng.substream("dist"))
    data = sample_dataset(p, args.n, rng.substream("data"))
    save_dataset(data, p.k, args.out)
    return 0


def _cmd_run(args) -> int:
    workload = load_workload(args.workload)
    data, k = load_dataset(args.data)
    if k != workload.k:
        raise ValidationError(f"dataset universe k={k} but workload k={workload.k}")
    true_dist = load_distribution(args.true_dist) if args.true_dist else None
    budget = PrivacyBudget(args.eps, args.delta)
    rng = NoiseStream(args.seed, "run")
    release = release_dpfw if args.algo == "dpfw" else release_dpam
    report = release(
        data,
        workload,
        budget,
        rng,
        alpha=args.alpha,
        no_noise=args.no_noise,
        true_dist=true_dist,
    )
    write_report(report, args.out, include_timings=args.with_timings)
    print(
        f"{report.algorithm}: empirical max error {report.empirical_max_error:.6g} "
        f"({report.timings.get('total_s', 0.0):.2f}s)",
        file=sys.stderr,
    )
    return 0


def _cmd_bench(args) -> int:
    plan = load_plan(args.plan)
    result = run_experiment(plan, workers=args.workers)
    write_result(result, args.out)
    print(f"bench: {len(result.cells)} cells in {result.runtimes['total_s']:.2f}s", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    report = load_report(args.report)
    priv = new_simplex(report.p_priv)
    rng = NoiseStream(args.seed, "sample")
    data = sample_dataset(priv, args.count, rng)
    save_dataset(data, priv.k, args.out)
    return 0


_COMMANDS = {
    "gen-workload": _cmd_gen_workload,
    "gen-data": _cmd_gen_data,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except DegenerateSchedule as exc:
        print(f"error: degenerate schedule: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
