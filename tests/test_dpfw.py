import math
import warnings

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
from dpqr.dpfw import dual_to_primal, optimal_alpha, release_dpfw, run_dpfw
from dpqr.entropy import softmax
from dpqr.errors import DegenerateSchedule, ValidationError
from dpqr.mechanisms import FWSchedule, NoiseStream
from dpqr.objective import max_query_error
from testkit import GridSpec, fw_gaps, grid_min_primal, log_sum_exp, neg_entropy

BUDGET = PrivacyBudget(1.0, 1e-6)
SWAP = symmetrize(new_workload([[1.0, -1.0]]))
TOY_DATA = new_dataset([0] * 70 + [1] * 30)

# frozen from 40-digit evaluation of the tuning formula
ALPHA_STAR = 0.06586448515317607


def small_schedule(t=50, lam=0.3):
    return FWSchedule(T=t, gamma=0.05, lam=lam)


class TestRunDpfw:
    def test_deterministic(self):
        q1, rows1, out1 = run_dpfw(TOY_DATA, SWAP, 0.5, NoiseStream(3, "fw"), small_schedule())
        q2, rows2, out2 = run_dpfw(TOY_DATA, SWAP, 0.5, NoiseStream(3, "fw"), small_schedule())
        assert np.array_equal(q1, q2)
        assert np.array_equal(rows1, rows2)
        assert out1 == out2

    def test_invalid_alpha(self):
        with pytest.raises(ValidationError, match="alpha must be finite and positive, got 0.0"):
            run_dpfw(TOY_DATA, SWAP, 0.0, NoiseStream(3, "fw"), small_schedule())

    def test_subnormal_alpha_refused_before_the_loop(self):
        # 1 / 1e-310 overflows, so every softmax of q / alpha would be NaN
        with pytest.raises(DegenerateSchedule, match=r"max \|q\| / alpha overflows"):
            run_dpfw(TOY_DATA, SWAP, 1e-310, NoiseStream(3, "fw"), small_schedule(t=5))
        with pytest.raises(DegenerateSchedule, match=r"max \|q\| / alpha overflows"):
            release_dpfw(
                TOY_DATA, SWAP, BUDGET, NoiseStream(3, "fw"), alpha=1e-310,
                schedule=small_schedule(t=5),
            )
        # 1 / 1e-308 is finite, and the release is a valid distribution
        report = release_dpfw(
            TOY_DATA, SWAP, BUDGET, NoiseStream(3, "fw"), alpha=1e-308,
            schedule=small_schedule(t=5),
        )
        new_simplex(report.p_priv)

    def test_tiny_alpha_release_is_silent(self):
        # q / 1e-308 is finite but softmax's shift overflows; the release is
        # valid and prints no floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = release_dpfw(
                TOY_DATA, SWAP, BUDGET, NoiseStream(3, "fw"), alpha=1e-308,
                schedule=small_schedule(t=5),
            )
        new_simplex(report.p_priv)

    def test_iterates_stay_in_hull(self):
        # replay the update from the selections: every iterate is a convex
        # combination of rows, and its weight vector reconstructs it
        sched = small_schedule(t=200)
        q_out, picked, out_index = run_dpfw(TOY_DATA, SWAP, 0.4, NoiseStream(9, "fw"), sched)
        q = SWAP.queries[0].copy()
        weights = np.zeros(SWAP.m)
        weights[0] = 1.0
        for t in range(sched.T):
            assert weights.min() >= 0.0
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.abs(weights @ SWAP.queries - q).max() < 1e-9
            if t == out_index:
                assert np.array_equal(q_out, q)
            i = picked[t]
            q += sched.gamma * (SWAP.queries[i] - q)
            weights *= 1.0 - sched.gamma
            weights[i] += sched.gamma

    def test_noise_free_gap_decreases(self):
        sched = FWSchedule(T=400, gamma=2 * math.sqrt(0.5 / (400 * 2.0)), lam=0.0)
        _, picked, _ = run_dpfw(TOY_DATA, SWAP, 0.5, NoiseStream(11, "fw"), sched)
        gaps = fw_gaps(TOY_DATA, SWAP, 0.5, sched, picked)
        assert gaps.mean() < gaps[0]

    def test_noise_free_average_gap_improves_with_budget(self):
        # with the calibrated step size, longer noise-free runs have smaller
        # average gaps
        means = []
        for t in (10, 100, 1000):
            sched = FWSchedule(T=t, gamma=2 * math.sqrt(0.5 / (t * 2.0)), lam=0.0)
            _, picked, _ = run_dpfw(TOY_DATA, SWAP, 0.5, NoiseStream(11, "fw"), sched)
            means.append(float(fw_gaps(TOY_DATA, SWAP, 0.5, sched, picked).mean()))
        assert means[0] >= means[1] >= means[2]

    @pytest.mark.parametrize(
        "m, k, t, lam",
        [
            (32, 4, 600, 0.3),  # blocks of 256 iterations: two full, one of 88
            (8200, 2, 5, 0.3),  # m > 8192: one iteration per block
            (32, 4, 300, 0.0),
        ],
    )
    def test_picks_match_per_iteration_draws(self, m, k, t, lam):
        # blocked noise reads the same values as one laplace(lam, size=m)
        # draw per iteration from the "rnm" substream
        gen = np.random.default_rng(m + t)
        w = new_workload(gen.uniform(-1.0, 1.0, size=(m, k)))
        data = new_dataset(gen.integers(0, k, size=200))
        sched = FWSchedule(T=t, gamma=0.05, lam=lam)
        _, picked, _ = run_dpfw(data, w, 0.5, NoiseStream(23, "fw"), sched)

        emp = empirical(data, k).values
        rnm = NoiseStream(23, "fw").substream("rnm")
        q = w.queries[0].copy()
        replay = []
        for _ in range(t):
            scores = w.queries @ (emp - softmax(q / 0.5))
            i = int(np.argmax(scores + rnm.laplace(lam, size=m)))
            replay.append(i)
            q += sched.gamma * (w.queries[i] - q)
        assert picked.tolist() == replay
        if lam > 0.0:
            assert len(set(replay)) > 1

    @pytest.mark.parametrize("lam", [0.02, 0.0])
    def test_parity_scan_matches_dense(self, monkeypatch, lam):
        # the Hadamard scan feeds only the argmax: picks and output equal a
        # run whose scores are the dense product
        rng = NoiseStream(31, "inst")
        w = gen_workload(128, 128, "parities(7)", rng.substream("q"))
        target = gen_distribution(128, "dirichlet(0.5)", rng.substream("p"))
        data = sample_dataset(target, 3000, rng.substream("d"))
        sched = FWSchedule(T=400, gamma=0.02, lam=lam)
        fast = run_dpfw(data, w, 0.1, NoiseStream(8, "fw"), sched)
        monkeypatch.setattr(QueryWorkload, "_hadamard_factors", None)
        dense = run_dpfw(data, new_workload(w.queries), 0.1, NoiseStream(8, "fw"), sched)
        assert w._hadamard_factors is not None
        assert np.array_equal(fast[1], dense[1]) and len(set(fast[1].tolist())) > 1
        assert fast[0].tobytes() == dense[0].tobytes() and fast[2] == dense[2]


class TestDualToPrimal:
    def test_zero_gives_uniform(self):
        assert np.allclose(dual_to_primal(np.zeros(4), 0.7).values, 0.25)

    def test_inverse_identity(self):
        rng = np.random.default_rng(5)
        for alpha in (0.2, 1.5):
            p = rng.dirichlet(np.ones(5)) + 0.01
            p = p / p.sum()
            out = dual_to_primal(alpha * np.log(p), alpha)
            assert np.abs(out.values - p).max() < 1e-12

    def test_non_finite_output_refused(self):
        # inf - inf inside the softmax: the map raises rather than return NaN
        with pytest.raises(DegenerateSchedule, match="softmax of q / alpha is not finite"):
            dual_to_primal(np.array([math.inf, 0.0]), 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        q = rng.uniform(-1, 1, size=4)
        a = dual_to_primal(q, 0.3).values
        b = dual_to_primal(q + 5.0, 0.3).values
        assert np.allclose(a, b, atol=1e-12)

    def test_matches_grid_minimizer(self):
        # minimizer over the simplex of <q, -d> + alpha H(d)
        rng = np.random.default_rng(7)
        grid = GridSpec(resolution=400, k=3)
        for _ in range(5):
            q = rng.uniform(-1, 1, size=3)
            alpha = float(rng.uniform(0.3, 1.5))
            # single-row objective <q, ref - d> + aH(d) = const - <q, d> + aH(d)
            w = new_workload(q[None, :])
            d_star, _ = grid_min_primal(uniform(3), w, alpha, grid)
            assert np.abs(dual_to_primal(q, alpha).values - d_star.values).max() < 2 * (
                3 / 400
            )

    def test_conjugacy_identity(self):
        # <q, p> = alpha H(p) + alpha logsumexp(q/alpha) at p = softmax(q/alpha)
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = rng.uniform(-1, 1, size=6)
            alpha = float(rng.uniform(0.1, 2.0))
            p = dual_to_primal(q, alpha)
            lhs = float(q @ p.values)
            rhs = alpha * neg_entropy(p) + alpha * log_sum_exp(q / alpha)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestOptimalAlpha:
    def test_frozen_value(self):
        assert optimal_alpha(BUDGET, 10, 16, 1000) == pytest.approx(ALPHA_STAR, rel=1e-12)

    def test_decreasing_in_n(self):
        values = [optimal_alpha(BUDGET, 10, 16, n) for n in (100, 1000, 10_000)]
        assert values[0] > values[1] > values[2]

    def test_power_law_in_n(self):
        ratio = optimal_alpha(BUDGET, 10, 16, 4000) / optimal_alpha(BUDGET, 10, 16, 1000)
        assert ratio == pytest.approx(4.0 ** -0.4, rel=1e-12)

    def test_small_universe_rejected(self):
        with pytest.raises(ValidationError, match="need k >= 2 and m >= 2, got k=1, m=10"):
            optimal_alpha(BUDGET, 10, 1, 1000)


class TestRelease:
    def test_output_strictly_positive(self):
        report = release_dpfw(TOY_DATA, SWAP, BUDGET, NoiseStream(12, "rel"))
        assert all(x > 0.0 for x in report.p_priv)
        assert report.alpha == pytest.approx(optimal_alpha(BUDGET, SWAP.m, 2, TOY_DATA.n))

    def test_deterministic(self):
        a = release_dpfw(TOY_DATA, SWAP, BUDGET, NoiseStream(13, "rel"))
        b = release_dpfw(TOY_DATA, SWAP, BUDGET, NoiseStream(13, "rel"))
        assert np.array_equal(a.p_priv, b.p_priv)
        assert a.schedule == b.schedule

    def test_zero_scale_schedule_flagged(self):
        # a caller's lam = 0 schedule is just as non-private as no_noise
        report = release_dpfw(
            TOY_DATA, SWAP, BUDGET, NoiseStream(14, "rel"), alpha=0.5,
            schedule=small_schedule(lam=0.0),
        )
        assert report.no_noise
        assert any("NON-PRIVATE" in w for w in report.warnings)

    def test_non_private_limit_error(self):
        # no selection noise: the released distribution's worst error stays
        # within the regularization bias alpha log k plus a small
        # optimization term
        alpha = 0.5
        t = 20_000
        sched = FWSchedule(T=t, gamma=2 * math.sqrt(alpha / (t * 2.0)), lam=0.0)
        report = release_dpfw(
            TOY_DATA, SWAP, BUDGET, NoiseStream(14, "rel"), alpha=alpha, schedule=sched,
            no_noise=True,
        )
        assert report.no_noise
        assert any("NON-PRIVATE" in w for w in report.warnings)
        assert report.schedule["lam"] == 0.0
        assert report.empirical_max_error <= alpha * math.log(2) + 0.1

    def test_population_error_recorded(self):
        true_p = new_simplex([0.7, 0.3])
        report = release_dpfw(
            TOY_DATA, SWAP, BUDGET, NoiseStream(15, "rel"), true_dist=true_p
        )
        priv = new_simplex(report.p_priv)
        assert report.population_max_error == pytest.approx(
            max_query_error(true_p, priv, SWAP)
        )
        emp = empirical(TOY_DATA, 2)
        assert report.empirical_max_error == pytest.approx(max_query_error(emp, priv, SWAP))

    def test_negation_note_follows_the_rows(self):
        # the caveat is decided by the rows: a workload built without
        # symmetrize but closed under negation carries no note
        note = "workload not closed under negation; errors are signed"
        for rows, noted in (([[1.0, -1.0]], True), ([[1.0, -1.0], [-1.0, 1.0]], False)):
            report = release_dpfw(
                TOY_DATA, new_workload(rows), BUDGET, NoiseStream(18, "rel"),
                alpha=0.5, schedule=small_schedule(),
            )
            assert (note in report.warnings) == noted

    def test_per_query_answers(self):
        report = release_dpfw(TOY_DATA, SWAP, BUDGET, NoiseStream(16, "rel"))
        priv = np.array(report.p_priv)
        assert np.allclose(report.per_query_answers, SWAP.queries @ priv)

    def test_records_the_solver_output_index(self):
        # the release reads the iterate at the index the solver drew from
        # the stream, and records that same index
        sched = FWSchedule(T=100, gamma=0.05, lam=0.2)
        report = release_dpfw(
            TOY_DATA, SWAP, BUDGET, NoiseStream(17, "rel"), alpha=0.5, schedule=sched,
        )
        q_out, _, out_index = run_dpfw(TOY_DATA, SWAP, 0.5, NoiseStream(17, "rel"), sched)
        assert report.schedule["output_index"] == out_index
        assert np.array_equal(report.p_priv, dual_to_primal(q_out, 0.5).values)
