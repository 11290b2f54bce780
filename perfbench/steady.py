"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py

Runs run.py on every workload of BENCHMARK.json for its run_seconds, ten
runs per set and two sets, each run with its own seed (1-10, then 11-20),
and reports per workload and end-to-end metric: each set's median, its
spread (distance between the first and third quartile as a share of the
median), and how far the two medians lie apart (the larger over the smaller,
minus one), so a gap counts whichever set ran first.  Every spread and that
gap must stay within the metric's bound, and the failed share of operations
must be identical in every run.  Exits 0 when every verdict passes.  Raw
results go to .perfbench_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"steady: {workload} seed {seed} exited with {done.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    saved = json.loads((ROOT / ".perfbench_out" / f"result-{workload}-trace0.json").read_text())
    result["measured"] = saved["measured"]
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for r in range(RUNS):
            seed = 1 + s * RUNS + r
            for w in workloads:
                res = one_run(w, seed, bench["run_seconds"])
                results[w][s].append(res)
                print(f"set {s} run {r} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"elapsed={res['elapsed_s']:.1f}s", flush=True)

    ok = True
    for w in workloads:
        runs = [res for set_ in results[w] for res in set_]
        shares = {res["failed"] / res["attempted"] for res in runs}
        correct = all(res["correct"] for res in runs)
        ok = ok and correct and len(shares) == 1
        print(f"\n{w}: all correct {correct}; failed shares {sorted(shares)}")
        for name, spec in bounds.items():
            per_set = [[res["metrics"][name]["value"] for res in set_] for set_ in results[w]]
            measured = [[res["measured"].get(name, res["metrics"][name]["value"])
                         for res in set_] for set_ in results[w]]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            bound = spec["bound"]
            gap = max(medians) / min(medians) - 1.0
            passed = max(spreads) <= bound and gap <= bound
            ok = ok and passed
            print(f"  {name:<16} medians {' '.join(f'{m:.6g}' for m in medians)} {spec['unit']}; "
                  f"spreads {' '.join(f'{x:.3f}' for x in spreads)} (bound {bound}, "
                  f"target < {bound / 3:.3f}); apart by {gap:.3f} -> "
                  f"{'ok' if passed else 'FAIL'}; unscaled spreads "
                  f"{' '.join(f'{spread(v):.3f}' for v in measured)}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))
    print(f"\nsteady: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
