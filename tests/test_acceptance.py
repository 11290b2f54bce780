"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and timings.  Criterion 9's DPFW half is known-red at this scale: the
pinned noise calibration keeps Report-Noisy-Max selection noise above the
attainable score spread across the whole n grid, so the population error
cannot exhibit its asymptotic rate there (the noise-free runs do).  See the
repository notes for the full analysis; the criterion is asserted as stated.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from dpqr.bench import ExperimentPlan, default_plan, run_experiment
from dpqr.cli import main
from dpqr.core import (
    PrivacyBudget,
    empirical,
    new_dataset,
    new_simplex,
    new_workload,
    symmetrize,
    uniform,
)
from dpqr.dpam import run_dpam
from dpqr.dpfw import dual_to_primal, run_dpfw
from dpqr.entropy import composite_prox
from dpqr.mechanisms import (
    AMSchedule,
    FWSchedule,
    NoiseStream,
    advanced_composition,
    dpam_schedule,
    dpfw_schedule,
    gaussian_rdp,
    optimal_rdp_order,
    rdp_to_dp,
)
from dpqr.objective import gaussian_width, smoothed_gradient_oracle
from testkit import (
    GridSpec,
    brute_force_prox,
    dual_grid_bound,
    fw_gaps,
    grid_max_dual,
    grid_min_primal,
    primal_grid_bound,
    primal_objective,
    regularized_primal,
    smoothed_primal_mc,
)

BUDGET = PrivacyBudget(1.0, 1e-6)


def _verdict(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_prox_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        prob = dict(
            A=float(rng.uniform(-5, 5)),
            B=float(rng.uniform(1e-6, 5)),
            C=float(rng.uniform(0, 5)),
            g=rng.uniform(-1, 1, size=3),
            anchor=new_simplex(rng.dirichlet(np.ones(3))),
        )
        gap = float(
            np.abs(composite_prox(**prob).values - brute_force_prox(**prob).values).max()
        )
        worst = max(worst, gap)
    elapsed = time.time() - t0
    _verdict(
        1,
        "prox closed form vs numerical minimizer",
        worst <= 1e-6 and elapsed < 10,
        f"worst Linf {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_kkt_map():
    t0 = time.time()
    rng = np.random.default_rng(102)
    grid = GridSpec(resolution=400, k=3)
    tol = 2.0 * grid.l1_bound
    worst = 0.0
    for _ in range(50):
        q = rng.uniform(-1, 1, size=3)
        alpha = float(rng.uniform(0.3, 2.0))
        # single-row workload turns the grid scan into <q, ref - d> + aH(d)
        d_star, _ = grid_min_primal(uniform(3), new_workload(q[None, :]), alpha, grid)
        gap = float(np.abs(dual_to_primal(q, alpha).values - d_star.values).max())
        worst = max(worst, gap)
    elapsed = time.time() - t0
    _verdict(
        2,
        "conjugate map vs grid minimizer",
        worst <= tol and elapsed < 30,
        f"worst Linf {worst:.2e} vs tol {tol:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_strong_duality():
    t0 = time.time()
    rng = np.random.default_rng(103)
    pspec = GridSpec(resolution=300, k=3)
    dspec = GridSpec(resolution=300, k=3)
    worst_rel = -np.inf
    ok = True
    for i in range(5):
        w = new_workload(rng.uniform(-1, 1, size=(3, 3)))
        ref = new_simplex(rng.dirichlet(np.ones(3)))
        for alpha in (0.1, 1.0):
            _, pval = grid_min_primal(ref, w, alpha, pspec)
            _, dval = grid_max_dual(ref, w, alpha, dspec)
            bound = primal_grid_bound(pspec, alpha) + dual_grid_bound(dspec)
            gap = pval - dval
            ok = ok and (-1e-12 <= gap <= bound)
            worst_rel = max(worst_rel, gap / bound)
    elapsed = time.time() - t0
    _verdict(
        3,
        "strong duality at desk scale",
        ok and elapsed < 60,
        f"worst gap/bound {worst_rel:.3f}, {elapsed:.1f}s",
    )


def test_criterion_04_smoothing_bound():
    t0 = time.time()
    rng = np.random.default_rng(104)
    w = symmetrize(new_workload(rng.uniform(-1, 1, size=(4, 4))))
    width = gaussian_width(w, 100_000, NoiseStream(104, "w"))
    ok = True
    worst_rel = -np.inf
    for i in range(20):
        d = new_simplex(rng.dirichlet(np.ones(4)))
        ref = new_simplex(rng.dirichlet(np.ones(4)))
        sigma = float(rng.uniform(0.02, 0.6))
        mean, se = smoothed_primal_mc(d, ref, w, sigma, 100_000, NoiseStream(1040 + i, "s"))
        dev = abs(mean - primal_objective(d, ref, w))
        allowed = sigma * (width.mean + 3 * width.stderr) + 3 * se
        ok = ok and dev <= allowed
        worst_rel = max(worst_rel, dev / allowed)
    elapsed = time.time() - t0
    _verdict(
        4,
        "smoothing stays within sigma * width",
        ok and elapsed < 60,
        f"worst dev/allowed {worst_rel:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_oracle_unbiasedness():
    t0 = time.time()
    rng = np.random.default_rng(105)
    w = symmetrize(new_workload(rng.uniform(-1, 1, size=(4, 4))))
    emp = new_simplex(rng.dirichlet(np.ones(4)))
    d = new_simplex(rng.dirichlet(np.ones(4)))
    sigma = 0.5
    n_draws = 100_000

    stream = NoiseStream(1050, "oracle-mc")
    grads = np.empty((n_draws, 4))
    for i in range(n_draws):
        grads[i], _ = smoothed_gradient_oracle(d, emp, w, sigma, stream)
    primal_mean = grads.mean(axis=0)
    primal_se = grads.std(axis=0, ddof=1) / math.sqrt(n_draws)

    # dual estimator of the same gradient: E[(phi(d+xi) - phi(d)) xi] / sigma^2
    xi = NoiseStream(1051, "dual-mc").gaussian(sigma, size=(n_draws, 4))
    base = float((w.queries @ (emp.values - d.values)).max())
    vals = ((emp.values - d.values)[None, :] - xi) @ w.queries.T
    terms = (vals.max(axis=1) - base)[:, None] * xi / sigma**2
    dual_mean = terms.mean(axis=0)
    dual_se = terms.std(axis=0, ddof=1) / math.sqrt(n_draws)

    tol = 3.0 * np.sqrt(primal_se**2 + dual_se**2)
    dev = np.abs(primal_mean - dual_mean)
    elapsed = time.time() - t0
    _verdict(
        5,
        "oracle unbiasedness vs dual estimator",
        bool(np.all(dev <= tol)) and elapsed < 60,
        f"worst dev/tol {(dev / tol).max():.3f}, {elapsed:.1f}s",
    )


def test_criterion_06_accounting_closure():
    t0 = time.time()
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(20):
        budget = PrivacyBudget(float(rng.uniform(0.1, 4.0)), float(10 ** -rng.uniform(3, 9)))
        alpha = float(rng.uniform(0.02, 1.0))
        n = int(rng.integers(100, 100_000))
        m = int(rng.integers(2, 128))
        d1 = float(rng.uniform(0.5, 16.0))
        for variant in (False, True):
            s = dpfw_schedule(budget, alpha, d1, min(d1, 2.0), m, n, use_inf_diameter=variant)
            eps_step = d1 / (n * s.lam)
            total = advanced_composition(eps_step, s.T, budget.delta)
            ok = ok and abs(total - budget.epsilon) <= 1e-6 * budget.epsilon
        sam = dpam_schedule(budget, alpha, float(rng.uniform(0.5, 12.0)), 16, n)
        beta = optimal_rdp_order(sam.T, n, sam.sigma, budget.delta)
        eps_rdp = sam.T * gaussian_rdp(beta, sam.sigma, math.sqrt(2.0) / n)
        total = rdp_to_dp(beta, eps_rdp, budget.delta)
        ok = ok and total <= budget.epsilon * (1 + 1e-6)
    elapsed = time.time() - t0
    _verdict(6, "privacy accounting closure", ok and elapsed < 1, f"{elapsed:.2f}s")


def test_criterion_07_laplace_maximal_inequality():
    t0 = time.time()
    trials = 20_000
    ok = True
    for k in (2, 16, 256):
        for lam in (0.1, 1.0):
            stream = NoiseStream(107, f"lapmax-{k}-{lam}")
            maxima = stream.laplace(lam, size=(trials, k)).max(axis=1)
            se = maxima.std(ddof=1) / math.sqrt(trials)
            ok = ok and maxima.mean() <= 2 * lam * math.log(2 * k) + 3 * se
    elapsed = time.time() - t0
    _verdict(7, "Laplace maximal inequality", ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_08_non_private_limit():
    t0 = time.time()
    swap = symmetrize(new_workload([[1.0, -1.0]]))
    data = new_dataset([0] * 70 + [1] * 30)
    emp = empirical(data, 2)
    alpha = 0.5

    t_fw = 8000
    fw_sched = FWSchedule(T=t_fw, gamma=2 * math.sqrt(alpha / (t_fw * 2.0)), lam=0.0)
    _, picked, _ = run_dpfw(data, swap, alpha, NoiseStream(108, "fw"), fw_sched)
    fw_gap = float(fw_gaps(data, swap, alpha, fw_sched, picked).mean())

    am_sched = AMSchedule(
        T=2000, sigma=1e-3, eta_offset=math.sqrt(4.0 / (alpha * 1e-3)) + 1.0
    )
    priv, _ = run_dpam(
        data, swap, alpha, NoiseStream(108, "am"), replace(am_sched, sigma=0.0)
    )
    width = gaussian_width(swap, 100_000, NoiseStream(108, "w"))
    _, best = grid_min_primal(emp, swap, alpha, GridSpec(resolution=4000, k=2))
    achieved = regularized_primal(priv, emp, swap, alpha)
    am_slack = alpha * math.log(2) + 2 * am_sched.sigma * width.mean + 0.02
    elapsed = time.time() - t0
    _verdict(
        8,
        "non-private limit",
        fw_gap < 0.05 and achieved <= best + am_slack and elapsed < 30,
        f"fw avg gap {fw_gap:.4f} < 0.05; am excess {achieved - best:.2e} <= {am_slack:.3f}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_scaling_exponents():
    # the eps=1 slice of the default desk-scale plan
    t0 = time.time()
    base = default_plan()
    plan = ExperimentPlan(
        algorithms=("dpfw", "dpam"),
        n_grid=base.n_grid,
        eps_grid=(1.0,),
        delta=base.delta,
        repetitions=base.repetitions,
        k=base.k,
        dist_kind=base.dist_kind,
        workload_kind=base.workload_kind,
        workload_m=base.workload_m,
        seed=base.seed,
    )
    result = run_experiment(plan, workers=4)
    slopes = {s["algorithm"]: s for s in result.slopes}
    dpam_s = slopes["dpam"]
    dpfw_s = slopes["dpfw"]
    dpam_ok = -0.65 <= dpam_s["slope"] <= -0.35
    dpfw_ok = -0.55 <= dpfw_s["slope"] <= -0.25
    elapsed = time.time() - t0
    _verdict(
        9,
        "error-scaling exponents in n",
        dpam_ok and dpfw_ok and elapsed < 600,
        f"dpam slope {dpam_s['slope']:.3f}+-{dpam_s['stderr']:.3f} "
        f"{'in' if dpam_ok else 'OUT of'} [-0.65,-0.35]; "
        f"dpfw slope {dpfw_s['slope']:.3f}+-{dpfw_s['stderr']:.3f} "
        f"{'in' if dpfw_ok else 'OUT of'} [-0.55,-0.25]; {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    ok = True

    def twice(args, out_a, out_b):
        nonlocal ok
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        ok = ok and out_a.read_bytes() == out_b.read_bytes()

    twice(
        ["gen-workload", "--k", "8", "--m", "4", "--kind", "random_sign", "--seed", "1"],
        tmp_path / "w1.json", tmp_path / "w2.json",
    )
    twice(
        ["gen-data", "--kind", "dirichlet(0.7)", "--k", "8", "--n", "400", "--seed", "2"],
        tmp_path / "d1.txt", tmp_path / "d2.txt",
    )
    for algo in ("dpfw", "dpam"):
        twice(
            ["run", "--algo", algo, "--data", str(tmp_path / "d1.txt"),
             "--workload", str(tmp_path / "w1.json"), "--eps", "1.0", "--delta", "1e-6",
             "--seed", "3"],
            tmp_path / f"r1-{algo}.json", tmp_path / f"r2-{algo}.json",
        )
    twice(
        ["sample", "--report", str(tmp_path / "r1-dpam.json"), "--count", "300",
         "--seed", "4"],
        tmp_path / "s1.txt", tmp_path / "s2.txt",
    )

    plan = ExperimentPlan(
        algorithms=("dpfw", "dpam"), n_grid=(256, 512), eps_grid=(1.0,), delta=1e-6,
        repetitions=3, k=8, dist_kind="dirichlet(0.5)", workload_kind="random_sign",
        workload_m=4, seed=5,
    )
    (tmp_path / "plan.json").write_text(json.dumps(plan.to_dict()))
    assert main(["bench", "--plan", str(tmp_path / "plan.json"), "--workers", "1",
                 "--out", str(tmp_path / "b1.json")]) == 0
    assert main(["bench", "--plan", str(tmp_path / "plan.json"), "--workers", "4",
                 "--out", str(tmp_path / "b4.json")]) == 0
    ok = ok and (tmp_path / "b1.json").read_bytes() == (tmp_path / "b4.json").read_bytes()
    elapsed = time.time() - t0
    _verdict(
        10,
        "byte-identical reruns and worker counts {1,4}",
        ok and elapsed < 120,
        f"{elapsed:.1f}s",
    )


def test_criterion_11_rnm_pure_dp_smoke():
    t0 = time.time()
    swap = symmetrize(new_workload([[1.0, -1.0]]))
    d1 = 4.0  # l1 diameter of the two-row sign workload
    n = 5
    eps_step = 1.0
    lam = d1 / (n * eps_step)
    data1 = new_dataset([0, 0, 0, 1, 1])
    data2 = new_dataset([0, 0, 1, 1, 1])  # neighbor: one point moved
    trials = 100_000
    freqs = []
    for tag, data in (("s1", data1), ("s2", data2)):
        scores = swap.queries @ empirical(data, 2).values
        noise = NoiseStream(111, f"rnm-{tag}").laplace(lam, size=(trials, swap.m))
        picks = (scores[None, :] + noise).argmax(axis=1)
        freqs.append(np.bincount(picks, minlength=swap.m) / trials)
    p1, p2 = freqs
    bound = math.e  # per-step budget is 1
    ok = bool(np.all(p1 <= bound * p2 + 0.02) and np.all(p2 <= bound * p1 + 0.02))
    elapsed = time.time() - t0
    _verdict(
        11,
        "report-noisy-max pure-DP smoke",
        ok and elapsed < 10,
        f"freqs {np.round(p1, 3)} vs {np.round(p2, 3)}, {elapsed:.1f}s",
    )
