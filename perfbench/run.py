"""dpqr benchmark: release latency and sweep time, end to end and per layer.

Run from the root of a dpqr source tree:

    python3 perfbench/run.py --workload scaling-plan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The benchmark imports dpqr from ``src/`` beside it and fails without a
result when that tree is missing.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; lines
before it give every metric with its unit and sample count, every check's
verdict, and the machine and code version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "dpfw_release_s": "s",
    "dpam_release_s": "s",
    "peak_rss_mb": "MiB",
}


def import_dpqr():
    """Import dpqr from this tree's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "dpqr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dpqr source tree at {src}")
    sys.path.insert(0, str(src))
    import dpqr

    if Path(dpqr.__file__).resolve().parent != (src / "dpqr").resolve():
        sys.exit(f"perfbench: imported dpqr from {dpqr.__file__}, not from {src}")
    return dpqr


def machine_info() -> dict:
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = blas_threads(np)
    info["code"] = code_version()
    return info


def blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def code_version() -> dict:
    """The git commit, or a digest of src/ and the benchmark outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            return {"git_commit": done.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_commit": None, "source_sha256": digest.hexdigest()[:16]}


def tail(values: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median of {n}"
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1.0 - pct / 100.0) >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]
            text += f", p{pct:g} {cut:.6g}"
            break
    return text


def run_rounds(wl, seconds: float, checks, tracer=None, table=None):
    """Whole rounds until `seconds` of timed work (at least two rounds).

    Untraced: every round is timed plainly.  Traced: rounds alternate plain
    and traced, so the traced run measures its own overhead.
    """
    from tracer import summarize

    plain, traced, summaries = [], [], []
    first = None
    spent = 0.0
    while len(plain) + len(traced) < 2 or spent < seconds or (
        tracer is not None and len(plain) != len(traced)
    ):
        if tracer is not None and len(plain) > len(traced):
            tracer.patch(table)
            lo = len(tracer)
            try:
                rnd = wl.run_round(in_process=True)
            finally:
                tracer.restore()
            summaries.append(summarize(tracer, lo, len(tracer)))
            traced.append(rnd)
        else:
            rnd = wl.run_round(in_process=tracer is not None)
            plain.append(rnd)
        spent += rnd.wall
        wl.check_round(rnd, checks)
        digest = wl.digest(rnd)
        if first is None:
            first = digest
        checks.record("every round's outputs byte-identical to the first round's", digest == first)
        for op in rnd.ops:
            op.points = op.queries = op.target = None
        if traced and rnd is traced[-1]:
            summaries[-1]["ops"] = [(op.kind, op.report) for op in rnd.ops]
            summaries[-1]["driver"] -= rnd.probe_s
    return plain, traced, summaries


def end_to_end(setup, rounds, wl, speed) -> tuple[dict, list[str], dict]:
    """Median of each timing, each sample rescaled by its own probe factor.

    `setup` holds (seconds, factor) per set-up repetition; factors are 1 on
    workloads that do not probe.  Returns the metrics, the lines to print,
    and the unscaled medians.
    """
    samples = {
        "setup_s": setup,
        "wall_s": [(r.wall, r.scaled_wall / r.wall) for r in rounds],
        "dpfw_release_s": [(op.wall, op.scale) for r in rounds for op in r.ops
                           if op.kind == "dpfw" and op.ok],
        "dpam_release_s": [(op.wall, op.scale) for r in rounds for op in r.ops
                           if op.kind == "dpam" and op.ok],
    }
    metrics, lines, measured = {}, [], {}
    for name, pairs in samples.items():
        scaled = [t * f for t, f in pairs]
        value = statistics.median(scaled)
        measured[name] = statistics.median(t for t, _ in pairs)
        metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        note = f"measured {measured[name]:.6g} s; " if speed else ""
        lines.append(f"  {name:<16} {value:.6g} s  ({note}{tail(scaled)})")
    rss = wl.peak_rss_mb()
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    lines.append(f"  {'peak_rss_mb':<16} {rss:.6g} MiB")
    if speed:
        lines.append(
            f"  (times rescaled operation by operation to a {speed.reference * 1e3:.4g} ms "
            f"{speed.kind} probe; probe median {speed.median * 1e3:.4g} ms over "
            f"{len(speed.samples)} probes)"
        )
    for kind in getattr(wl, "alongside", ()):
        lines.append(f"  ({kind} commands rescaled by python probes run beside them on their core)")
    return metrics, lines, measured


PER_LAYER_UNITS = {
    "core.diameters_s": "s",
    "mechanisms.noise_calls": "count",
    "mechanisms.noise_s": "s",
    "mechanisms.rnm_s": "s",
    "entropy.softmax_calls": "count",
    "entropy.softmax_s": "s",
    "entropy.prox_calls": "count",
    "entropy.prox_s": "s",
    "objective.oracle_calls": "count",
    "objective.oracle_s": "s",
    "objective.width_s": "s",
    "objective.max_error_s": "s",
    "dpfw.solve_s": "s",
    "dpfw.self_s": "s",
    "dpfw.iterations": "count",
    "dpfw.iter_us": "us",
    "dpfw.scan_bytes": "bytes",
    "dpam.solve_s": "s",
    "dpam.self_s": "s",
    "dpam.iterations": "count",
    "dpam.iter_us": "us",
    "report.finish_s": "s",
    "bench.driver_s": "s",
    "bench.sample_dataset_s": "s",
    "cli.startup_s": "s",
    "cli.load_dataset_s": "s",
    "cli.load_workload_s": "s",
    "cli.write_report_s": "s",
    "cli.save_dataset_s": "s",
    "trace.overhead_pct": "%",
    "machine.probe_ms": "ms",
}

# Layer metrics read straight off the span totals: metric -> (statistic, layer).
SPAN_METRICS = {
    "core.diameters_s": ("total", "core.diameters"),
    "mechanisms.noise_calls": ("calls", "mechanisms.noise"),
    "mechanisms.noise_s": ("total", "mechanisms.noise"),
    "mechanisms.rnm_s": ("total", "mechanisms.rnm"),
    "entropy.softmax_calls": ("calls", "entropy.softmax"),
    "entropy.softmax_s": ("total", "entropy.softmax"),
    "entropy.prox_calls": ("calls", "entropy.prox"),
    "entropy.prox_s": ("total", "entropy.prox"),
    "objective.oracle_calls": ("calls", "objective.oracle"),
    "objective.oracle_s": ("total", "objective.oracle"),
    "objective.width_s": ("total", "objective.width"),
    "objective.max_error_s": ("total", "objective.max_error"),
    "dpfw.solve_s": ("total", "dpfw.solve"),
    "dpfw.self_s": ("self", "dpfw.solve"),
    "dpam.solve_s": ("total", "dpam.solve"),
    "dpam.self_s": ("self", "dpam.solve"),
    "bench.sample_dataset_s": ("total", "bench.sample_dataset"),
    "cli.load_dataset_s": ("total", "cli.load_dataset"),
    "cli.load_workload_s": ("total", "cli.load_workload"),
    "cli.write_report_s": ("total", "cli.write_report"),
    "cli.save_dataset_s": ("total", "cli.save_dataset"),
}

# A release's calibration, solve and report spans must cover this share of it.
COVERAGE = 0.90


def per_layer(summaries, plain, traced, wl, checks, speed) -> tuple[dict, list[str]]:
    """Median over traced rounds of each layer's per-round total, as measured.

    machine.probe_ms is the run's probe median (0 on a workload that does not
    probe), to read layer times of different runs against.
    """
    rows = []
    for s in summaries:
        row = {m: float(s[stat].get(layer, 0.0)) for m, (stat, layer) in SPAN_METRICS.items()}
        for algo in ("dpfw", "dpam"):
            reports = [r for kind, r in s["ops"] if kind == algo and r is not None]
            iters = sum(int(r["schedule"]["T"]) for r in reports)
            row[f"{algo}.iterations"] = float(iters)
            row[f"{algo}.iter_us"] = row[f"{algo}.solve_s"] / iters * 1e6 if iters else 0.0
        row["dpfw.scan_bytes"] = float(sum(
            int(r["schedule"]["T"]) * r["m"] * r["k"] * 8
            for kind, r in s["ops"] if kind == "dpfw" and r is not None
        ))
        row["report.finish_s"] = sum(finish for _, _, finish in s["releases"])
        row["bench.driver_s"] = s["driver"]
        rows.append(row)
        for wall, covered, _ in s["releases"]:
            checks.record(
                f"each release's layer spans cover >= {COVERAGE:.0%} of its wall time",
                covered >= COVERAGE * wall,
            )
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in rows[0]:
            value = statistics.median(row[name] for row in rows)
        elif name == "cli.startup_s":
            value = wl.measure_startup() if hasattr(wl, "measure_startup") else 0.0
        elif name == "machine.probe_ms":
            value = speed.median * 1e3 if speed else 0.0
        else:  # trace.overhead_pct
            base = statistics.median(r.wall for r in plain)
            value = (statistics.median(r.wall for r in traced) / base - 1.0) * 100.0
        metrics[name] = {"value": value, "unit": unit}
    lines = [f"  {n:<24} {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
    lines.append(f"  (median over {len(rows)} traced rounds; dpfw.scan_bytes is computed as T*m*k*8)")
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    dpqr = import_dpqr()
    from checks import Checks
    from tracer import Tracer, layer_table
    from workloads import WORKLOADS

    kind = WORKLOADS[name].probe_kind
    speed = Speed(kind) if kind else None
    wl = WORKLOADS[name](dpqr, seed, ROOT, speed)
    checks = Checks()
    try:
        setup = []
        for _ in range(wl.setup_reps):
            before = speed.probe() if speed else 0.0
            t0 = time.perf_counter()
            wl.setup()
            elapsed = time.perf_counter() - t0
            setup.append((elapsed, speed.factor(before, speed.probe()) if speed else 1.0))
        tracer = Tracer() if trace else None
        table = layer_table(dpqr) if trace else None
        plain, traced, summaries = run_rounds(wl, seconds, checks, tracer, table)
        rounds = plain + traced
        attempted = sum(len(r.ops) for r in rounds)
        failed = sum(1 for r in rounds for op in r.ops if not op.ok)
        if trace:
            metrics, lines = per_layer(summaries, plain, traced, wl, checks, speed)
            measured = {}
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{name}.npz")
        else:
            metrics, lines, measured = end_to_end(setup, rounds, wl, speed)
        notes = wl.notes()
    finally:
        wl.close()

    info = machine_info()
    print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for line in lines + [f"  note: {n}" for n in notes]:
        print(line)
    for check, ok in checks.verdicts.items():
        print(f"  check {'pass' if ok else 'FAIL'}: {check}")
    print(f"  machine: {json.dumps(info, sort_keys=True)}")
    result = {"correct": checks.passed, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-trace{int(trace)}.json", "w") as fh:
        json.dump({**result, "workload": name, "seed": seed, "seconds": seconds,
                   "measured": measured,
                   "probe": None if speed is None else {
                       "kind": speed.kind, "median_s": speed.median,
                       "reference_s": speed.reference},
                   "checks": checks.verdicts, "notes": notes, "machine": info}, fh, indent=2)
    return result


def run_all(args) -> dict:
    """Every workload in its own process, so peak RSS is each one's own."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        out = done.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if done.returncode != 0 or not out:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: workload {name} exited with {done.returncode}")
        res = json.loads(out[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            total["metrics"][f"{name}:{metric}"] = value
    return total


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
