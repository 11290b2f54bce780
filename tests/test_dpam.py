import contextlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dpqr.bench import gen_distribution, gen_workload, sample_dataset
from dpqr.core import (
    PrivacyBudget,
    QueryWorkload,
    empirical,
    new_dataset,
    new_simplex,
    new_workload,
    symmetrize,
    uniform,
)
import dpqr.dpam
from dpqr.dpam import optimal_alpha, regime_ok, release_dpam, run_dpam
from dpqr.entropy import composite_prox, softmax
from dpqr.errors import DegenerateSchedule, ValidationError
from dpqr.mechanisms import AMSchedule, NoiseStream
from dpqr.objective import max_query_error, smoothed_gradient_oracle
from testkit import brute_force_prox

BUDGET = PrivacyBudget(1.0, 1e-6)
SWAP = symmetrize(new_workload([[1.0, -1.0]]))
TOY_DATA = new_dataset([0] * 70 + [1] * 30)

# frozen from 40-digit evaluation of the tuning formulas
ALPHA_STAR = 0.029962635263073247
REGIME_THRESHOLD = 80.798356071716439


def small_schedule(t=60, sigma=0.1, alpha=0.5):
    return AMSchedule(T=t, sigma=sigma, eta_offset=math.sqrt(4.0 / (alpha * sigma)) + 1.0)


class TestRunDpam:
    def test_deterministic(self):
        p1, rows1 = run_dpam(TOY_DATA, SWAP, 0.5, NoiseStream(2, "am"), small_schedule())
        p2, rows2 = run_dpam(TOY_DATA, SWAP, 0.5, NoiseStream(2, "am"), small_schedule())
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(rows1, rows2)

    def test_invalid_alpha(self):
        with pytest.raises(ValidationError, match="alpha must be finite and positive, got 0.0"):
            run_dpam(TOY_DATA, SWAP, 0.0, NoiseStream(2, "am"), small_schedule())

    @pytest.mark.parametrize("alpha", [1e-310, 1.7e308])
    def test_non_finite_aggregate_refused(self, alpha):
        # at 1e-310 the prox exponent overflows to +-inf, so the output is NaN,
        # raised and not renormalized; at 1.7e308 the weights alpha * eta would
        # overflow, which is refused before the first iteration.  Only the
        # releases silence numpy's warnings, so the bare solver's overflow warns.
        match = "DPAM aggregate is not finite" if alpha < 1.0 else r"alpha \* sum of eta overflows"
        warns = pytest.warns(RuntimeWarning) if alpha < 1.0 else contextlib.nullcontext()
        with warns, pytest.raises(DegenerateSchedule, match=match):
            run_dpam(
                TOY_DATA, SWAP, alpha, NoiseStream(2, "am"),
                AMSchedule(T=5, sigma=0.1, eta_offset=2.0),
            )

    def test_overflowing_alpha_refused_before_the_loop(self, monkeypatch):
        # the calibrated schedule's alpha * sum of eta overflows: no prox step
        # runs, and no floating-point warning is printed
        calls = []
        monkeypatch.setattr(
            dpqr.dpam, "composite_prox", lambda *args: calls.append(args) or composite_prox(*args)
        )
        rng = NoiseStream(5, "inst")
        w = gen_workload(16, 16, "random_sign", rng.substream("q"))
        data = sample_dataset(uniform(16), 2000, rng.substream("d"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSchedule, match=r"alpha \* sum of eta overflows"):
                release_dpam(data, w, BUDGET, NoiseStream(1, "rel"), alpha=1.7e308)
        assert calls == []

    def test_parity_scan_matches_dense(self, monkeypatch):
        # the Hadamard scan feeds only the argmax: picks and output equal a
        # run whose scores are the dense product
        rng = NoiseStream(32, "inst")
        w = gen_workload(128, 128, "parities(7)", rng.substream("q"))
        target = gen_distribution(128, "dirichlet(0.5)", rng.substream("p"))
        data = sample_dataset(target, 3000, rng.substream("d"))
        sched = AMSchedule(T=300, sigma=0.01, eta_offset=5.0)
        fast = run_dpam(data, w, 0.1, NoiseStream(8, "am"), sched)
        monkeypatch.setattr(QueryWorkload, "_hadamard_factors", None)
        dense = run_dpam(data, new_workload(w.queries), 0.1, NoiseStream(8, "am"), sched)
        assert w._hadamard_factors is not None
        assert np.array_equal(fast[1], dense[1]) and len(set(fast[1].tolist())) > 1
        assert fast[0].values.tobytes() == dense[0].values.tobytes()

    @pytest.mark.parametrize(
        "m, k, t, sigma",
        [
            (8, 4, 5000, 0.3),  # blocks of 2048 iterations: two full, one of 904
            (4, 8200, 5, 3.0),  # k > 8192: one iteration per block
            (8, 4, 300, 0.0),
        ],
    )
    def test_picks_match_per_iteration_draws(self, m, k, t, sigma):
        # blocked noise reads the same values as one gaussian(sigma, size=k)
        # draw per iteration from the "oracle" substream
        alpha = 0.5
        gen = np.random.default_rng(m + k + t)
        w = new_workload(gen.uniform(-1.0, 1.0, size=(m, k)))
        data = new_dataset(gen.integers(0, k, size=200))
        sched = AMSchedule(T=t, sigma=sigma, eta_offset=5.0)
        priv, picked = run_dpam(data, w, alpha, NoiseStream(29, "am"), sched)

        emp = empirical(data, k).values
        oracle = NoiseStream(29, "am").substream("oracle")
        current = uniform(k).values
        aggregate = current.copy()
        eta_cum = 0.0
        replay = []
        for step in range(1, t + 1):
            eta_t = sched.eta(step)
            denom = eta_cum + eta_t
            mid = (eta_cum / denom) * aggregate + (eta_t / denom) * current
            i = int(np.argmax(w.queries @ (emp - mid + oracle.gaussian(sigma, size=k))))
            replay.append(i)
            current = composite_prox(-w.queries[i], current, eta_t, eta_t * alpha, eta_cum * alpha)
            aggregate = (eta_cum / denom) * aggregate + (eta_t / denom) * current
            eta_cum = denom
        assert picked.tolist() == replay
        assert priv.values.tobytes() == new_simplex(aggregate).values.tobytes()
        if sigma > 0.0:
            assert len(set(replay)) > 1

    def test_trace_eta_structure(self):
        sched = small_schedule(t=40)
        _, rows = run_dpam(TOY_DATA, SWAP, 0.5, NoiseStream(3, "am"), sched)
        assert len(rows) == sched.T

    def test_iterates_replay_as_distributions(self):
        # replay the run from the picked rows and check every midpoint, prox
        # output, and aggregate is a valid distribution
        alpha = 0.5
        sched = small_schedule(t=50, alpha=alpha)
        priv, rows = run_dpam(TOY_DATA, SWAP, alpha, NoiseStream(4, "am"), sched)
        current = uniform(2).values
        aggregate = current.copy()
        eta_cum = 0.0
        for t in range(1, len(rows) + 1):
            eta_t = sched.eta(t)
            denom = eta_cum + eta_t
            mid = (eta_cum / denom) * aggregate + (eta_t / denom) * current
            assert mid.min() >= 0 and mid.sum() == pytest.approx(1.0, abs=1e-9)
            g = -SWAP.queries[rows[t - 1]]
            nxt = composite_prox(g, current, eta_t, eta_t * alpha, eta_cum * alpha)
            assert nxt.min() > 0
            aggregate = (eta_cum / denom) * aggregate + (eta_t / denom) * nxt
            current = nxt
            eta_cum = denom
        assert np.abs(aggregate - priv.values).max() < 1e-12

    def test_zero_noise_converges_to_grid_optimum(self):
        from testkit import GridSpec, grid_min_primal, regularized_primal

        alpha = 0.5
        sched = small_schedule(t=2000, sigma=1e-3, alpha=alpha)
        priv, _ = run_dpam(
            TOY_DATA, SWAP, alpha, NoiseStream(5, "am"), replace(sched, sigma=0.0)
        )
        emp = empirical(TOY_DATA, 2)
        _, best = grid_min_primal(emp, SWAP, alpha, GridSpec(resolution=4000, k=2))
        achieved = regularized_primal(priv, emp, SWAP, alpha)
        assert achieved <= best + alpha * math.log(2) + 2 * sched.sigma * 1.2 + 0.02

    def test_mirror_map_equivalence_when_entropy_off(self):
        # with the entropy weight zeroed, one prox step IS the entropic
        # mirror step softmax(log anchor - (eta_t / sum eta) g)
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            anchor = new_simplex(0.95 * rng.dirichlet(np.ones(k)) + 0.05 / k)
            g = rng.uniform(-1, 1, size=k)
            eta_t = float(rng.uniform(1, 50))
            cum = float(rng.uniform(1, 200))
            prox = composite_prox(g, anchor, A=eta_t, B=0.0, C=cum)
            mirror = softmax(np.log(anchor.values) - (eta_t / cum) * g)
            assert np.abs(prox - mirror).max() < 1e-12

    def test_prox_step_matches_brute_force(self):
        # the full composite step of one iteration against the numerical
        # minimizer of its objective
        rng = np.random.default_rng(7)
        w3 = symmetrize(new_workload(rng.uniform(-1, 1, size=(3, 3))))
        emp = new_simplex(rng.dirichlet(np.ones(3)))
        alpha = 0.3
        anchor = uniform(3)
        stream = NoiseStream(8, "prox")
        eta_cum = 0.0
        for t in range(1, 9):
            eta_t = t + 10.0
            g, _ = smoothed_gradient_oracle(anchor, emp, w3, stream.gaussian(0.2, size=3))
            prob = dict(A=eta_t, B=eta_t * alpha, C=eta_cum * alpha, g=g, anchor=anchor)
            closed = composite_prox(**prob)
            brute = brute_force_prox(**prob)
            assert np.abs(closed - brute.values).max() < 1e-6
            anchor = closed
            eta_cum += eta_t


class TestTuning:
    def test_frozen_alpha(self):
        assert optimal_alpha(BUDGET, 3.0, 16, 10_000) == pytest.approx(ALPHA_STAR, rel=1e-12)

    def test_alpha_scales_inverse_sqrt_n(self):
        ratio = optimal_alpha(BUDGET, 3.0, 16, 40_000) / optimal_alpha(BUDGET, 3.0, 16, 10_000)
        assert ratio == pytest.approx(0.5, rel=1e-12)

    def test_alpha_increases_with_width(self):
        assert optimal_alpha(BUDGET, 5.0, 16, 1000) > optimal_alpha(BUDGET, 3.0, 16, 1000)

    def test_alpha_invalid(self):
        with pytest.raises(ValidationError, match="need k >= 2, got 1"):
            optimal_alpha(BUDGET, 3.0, 1, 1000)

    def test_regime_threshold(self):
        assert regime_ok(3.0, BUDGET, 16, 100)
        assert not regime_ok(3.0, BUDGET, 16, 80)
        assert not regime_ok(3.0, BUDGET, 16, int(REGIME_THRESHOLD))
        assert regime_ok(3.0, BUDGET, 16, 81)

    def test_regime_threshold_decreases_with_k(self):
        # larger universe -> larger log^{3/2} k -> smaller threshold
        assert regime_ok(3.0, BUDGET, 64, 60)
        assert not regime_ok(3.0, BUDGET, 16, 60)


class TestRelease:
    def test_output_strictly_positive_and_deterministic(self):
        a = release_dpam(TOY_DATA, SWAP, BUDGET, NoiseStream(9, "rel"))
        b = release_dpam(TOY_DATA, SWAP, BUDGET, NoiseStream(9, "rel"))
        assert all(x > 0.0 for x in a.p_priv)
        assert np.array_equal(a.p_priv, b.p_priv)
        assert a.width is not None and a.width["samples"] == 1000
        assert a.regime_ok is not None

    def test_no_noise_flagged(self):
        report = release_dpam(
            TOY_DATA, SWAP, BUDGET, NoiseStream(10, "rel"), alpha=0.5, no_noise=True
        )
        assert report.no_noise
        assert any("NON-PRIVATE" in w for w in report.warnings)

    def test_zero_scale_schedule_flagged(self):
        # a caller's sigma = 0 schedule is just as non-private as no_noise
        report = release_dpam(
            TOY_DATA, SWAP, BUDGET, NoiseStream(10, "rel"), alpha=0.5,
            schedule=replace(small_schedule(alpha=0.5), sigma=0.0),
        )
        assert report.no_noise
        assert any("NON-PRIVATE" in w for w in report.warnings)

    def test_beats_uniform_baseline_when_target_skewed(self):
        # k=16, m=32 symmetric, n=10^4: the released distribution answers
        # queries better than ignoring the data entirely
        rng = NoiseStream(1234, "inst")
        target = gen_distribution(16, "sparse(2)", rng.substream("p"))
        w = gen_workload(16, 16, "random_sign", rng.substream("q"))
        data = sample_dataset(target, 10_000, rng.substream("d"))
        emp = empirical(data, 16)
        report = release_dpam(data, w, BUDGET, NoiseStream(77, "rel"))
        baseline = max_query_error(emp, uniform(16), w)
        assert report.empirical_max_error < baseline
