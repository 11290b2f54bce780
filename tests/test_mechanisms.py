import itertools
import math
import warnings

import numpy as np
import pytest

from dpqr.bench import gen_workload
from dpqr.core import PrivacyBudget, new_dataset, new_simplex
from dpqr.dpam import release_dpam
from dpqr.dpfw import release_dpfw
from dpqr.errors import DegenerateSchedule, HypothesisViolated, ValidationError
from dpqr.mechanisms import (
    MAX_T,
    AMSchedule,
    FWSchedule,
    NoiseStream,
    advanced_composition,
    dpam_schedule,
    dpfw_schedule,
    gaussian_rdp,
    noise_rows,
    optimal_rdp_order,
    rdp_to_dp,
    report_noisy_max,
)

BUDGET = PrivacyBudget(1.0, 1e-6)

# frozen from 40-digit evaluation of the calibration formulas
FW_T = 141  # formula gives 141.99843, floored
FW_GAMMA = 0.037662178857735471
FW_LAM = 0.49934190145644619
AM_T = 1493  # formula gives 1493.26884, floored
AM_SIGMA = 0.057447795102044655
AM_ETA1 = 39.317136500810890
AC_VALUE = 2.1026087079027728
RDP_VALUE = 5.6051701859880914


class TestNoiseStream:
    def test_same_seed_label_same_sequence(self):
        a = NoiseStream(123, "x")
        b = NoiseStream(123, "x")
        assert np.array_equal(a.laplace(1.0, size=100), b.laplace(1.0, size=100))
        assert np.array_equal(a.gaussian(2.0, size=50), b.gaussian(2.0, size=50))

    def test_labels_decorrelate(self):
        a = NoiseStream(123, "x").uniform(size=20)
        b = NoiseStream(123, "y").uniform(size=20)
        assert not np.array_equal(a, b)

    def test_mixed_calls_reproduce(self):
        def draws(stream):
            return [
                stream.uniform(size=3),
                stream.laplace(1.5, size=4),
                stream.integers(7, size=5),
                stream.gaussian(0.5, size=2),
                stream.dirichlet([0.5, 1.0, 2.0]),
                stream.uniform(),
            ]

        for x, y in zip(draws(NoiseStream(9, "z")), draws(NoiseStream(9, "z"))):
            assert np.array_equal(x, y)

    def test_calls_read_one_sequence(self):
        a = NoiseStream(9, "z")
        split = np.concatenate([a.uniform(size=3), a.uniform(size=5)])
        assert np.array_equal(split, NoiseStream(9, "z").uniform(size=8))

    def test_parent_draws_leave_substreams_unchanged(self):
        quiet = NoiseStream(4, "p").substream("child").laplace(1.0, size=6)
        busy = NoiseStream(4, "p")
        busy.uniform(size=100)
        child = busy.substream("child")
        busy.gaussian(1.0, size=10)
        assert np.array_equal(child.laplace(1.0, size=6), quiet)

    def test_deriving_substreams_builds_no_generator(self):
        root = NoiseStream(4, "p")
        leaf = root.substream("a").substream("b")
        assert root._gen is None and leaf._gen is None
        leaf.uniform()
        assert root._gen is None and leaf._gen is not None

    def test_keys_distinguish_seed_and_label(self):
        # pairs a key built by concatenating seed and label words would merge
        high = (int.from_bytes(b"abcd", "little") << 32) + 5
        assert not np.array_equal(
            NoiseStream(high, "x").uniform(size=4), NoiseStream(5, "abcdx").uniform(size=4)
        )
        assert not np.array_equal(
            NoiseStream(5, "a").uniform(size=4), NoiseStream(5, "a\x00").uniform(size=4)
        )

    def test_substream_label_composition(self):
        root = NoiseStream(5, "root")
        sub = root.substream("noise")
        again = NoiseStream(5, "root/noise")
        assert np.array_equal(sub.uniform(size=4), again.uniform(size=4))


@pytest.mark.parametrize("method", ["laplace", "gaussian"])
@pytest.mark.parametrize(
    "width, count",
    [
        (1, 8192 + 5),  # blocks of 8192 rows: one full, one of 5
        (7, 1170),  # blocks of 1170 rows: exactly one
        (7, 2 * 1170 + 4),  # two full, one of 4
        (8200, 3),  # width > 8192: one row per block
    ],
)
def test_noise_rows_match_one_draw_per_row(method, width, count):
    rows = list(noise_rows(getattr(NoiseStream(31, "rows"), method), 0.7, count, width))
    ref = NoiseStream(31, "rows")
    assert len(rows) == count
    for row in rows:
        assert row.tobytes() == getattr(ref, method)(0.7, size=width).tobytes()


class TestLaplace:
    def test_scale_zero_exact(self):
        assert NoiseStream(1, "l").laplace(0.0) == 0.0

    def test_moments(self):
        draws = NoiseStream(7, "lap-mc").laplace(1.0, size=1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(np.abs(draws).mean() - 1.0) < 0.02

    def test_deterministic(self):
        assert NoiseStream(3, "a").laplace(2.0) == NoiseStream(3, "a").laplace(2.0)

    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
    def test_bad_scale_rejected(self, scale):
        # a NaN scale would make every noisy score NaN and argmax pick row 0
        with pytest.raises(ValidationError):
            NoiseStream(3, "a").laplace(scale, size=4)


class TestGaussian:
    def test_variance(self):
        draws = NoiseStream(11, "g-mc").gaussian(1.0, size=1_000_000)
        assert abs(draws.var() - 1.0) < 0.02

    def test_small_scale(self):
        draws = NoiseStream(2, "g").gaussian(1e-12, size=1000)
        assert np.all(np.abs(draws) < 1e-10)

    def test_scale_zero_exact(self):
        # the oracle of a no-noise DPAM run draws at sigma = 0
        assert np.all(NoiseStream(2, "g").gaussian(0.0, size=1000) == 0.0)

    def test_deterministic(self):
        a = NoiseStream(4, "g").gaussian(0.3, size=8)
        b = NoiseStream(4, "g").gaussian(0.3, size=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValidationError):
            NoiseStream(4, "g").gaussian(scale, size=8)


class TestReportNoisyMax:
    def test_no_noise_argmax(self):
        assert report_noisy_max([1.0, 0.0], np.zeros(2)) == 0

    def test_tie_lowest_index(self):
        assert report_noisy_max([5.0, 5.0], np.zeros(2)) == 0

    @pytest.mark.parametrize("shape", [(3,), (1, 2), ()])
    def test_noise_shape_must_match_scores(self, shape):
        with pytest.raises(ValidationError):
            report_noisy_max([1.0, 0.0], np.zeros(shape))

    def test_frequency_vs_direct_oracle(self):
        # selection frequency of the higher score under Laplace(1) noise,
        # against an independent simulation of the same process
        trials = 100_000
        stream = NoiseStream(21, "rnm-mc")
        hits = 0
        noise = stream.laplace(1.0, size=(trials, 2))
        scores = np.array([1.0, 0.0])
        hits = int(((scores + noise).argmax(axis=1) == 0).sum())
        freq = hits / trials
        oracle_rng = np.random.default_rng(99)
        oracle_noise = oracle_rng.laplace(0.0, 1.0, size=(trials, 2))
        oracle_freq = float(((scores + oracle_noise).argmax(axis=1) == 0).mean())
        assert 0.5 < freq < 1.0
        assert abs(freq - oracle_freq) < 0.01

    def test_equal_scores_uniform_choice(self):
        trials = 100_000
        for k in (2, 4):
            stream = NoiseStream(33, f"rnm-tie-{k}")
            noise = stream.laplace(1.0, size=(trials, k))
            counts = np.bincount(noise.argmax(axis=1), minlength=k)
            stderr = math.sqrt((1 / k) * (1 - 1 / k) / trials)
            assert np.all(np.abs(counts / trials - 1 / k) < 3 * stderr + 1e-9)


class TestSchedules:
    def test_fw_hand_values(self):
        s = dpfw_schedule(BUDGET, 0.1, d1=2.0, dinf=2.0, m_queries=10, n=1000)
        assert s.T == FW_T
        assert s.gamma == pytest.approx(FW_GAMMA, rel=1e-12)
        assert s.lam == pytest.approx(FW_LAM, rel=1e-12)

    def test_fw_proof_diameter_variant(self):
        base = dpfw_schedule(BUDGET, 0.1, d1=4.0, dinf=2.0, m_queries=10, n=1000)
        proof = dpfw_schedule(
            BUDGET, 0.1, d1=4.0, dinf=2.0, m_queries=10, n=1000, use_inf_diameter=True
        )
        assert proof.T < base.T
        # lam always calibrated from the l1 diameter and the T actually run
        log_delta = math.log(1e6)
        assert proof.lam == pytest.approx(
            4.0 * 4.0 * math.sqrt(2 * proof.T * log_delta) / 1000.0, rel=1e-12
        )

    def test_fw_gamma_clamped(self):
        s = dpfw_schedule(BUDGET, 50.0, d1=0.05, dinf=0.01, m_queries=2, n=50)
        assert s.gamma == 1.0

    def test_fw_invalid(self):
        with pytest.raises(ValidationError, match="alpha must be finite and positive, got 0.0"):
            dpfw_schedule(BUDGET, 0.0, 2.0, 2.0, 10, 1000)
        with pytest.raises(DegenerateSchedule):
            dpfw_schedule(BUDGET, 0.1, 0.0, 2.0, 10, 1000)

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_fw_noise_scale_must_be_finite(self, lam):
        with pytest.raises(DegenerateSchedule):
            FWSchedule(T=20, gamma=0.3, lam=lam)

    def test_fw_underflowing_alpha_log_delta_refused(self):
        # 32 alpha log(1/delta) underflows to 0, so T's denominator would be 0
        budget = PrivacyBudget(1.0, 1.0 - 1e-16)
        with pytest.raises(DegenerateSchedule, match=r"underflows to 0 at alpha=1e-310"):
            dpfw_schedule(budget, 1e-310, 2.0, 2.0, 10, 2000)

    def test_fw_cap(self):
        s = dpfw_schedule(BUDGET, 0.1, 2.0, 2.0, 10, 10**9)
        assert s.T == MAX_T and s.capped

    def test_am_hand_values(self):
        s = dpam_schedule(BUDGET, 0.05, width=3.0, k=16, n=10_000)
        assert s.T == AM_T
        assert s.sigma == pytest.approx(AM_SIGMA, rel=1e-12)
        assert s.eta(1) == pytest.approx(AM_ETA1, rel=1e-12)

    def test_am_eta_nondecreasing_positive(self):
        s = dpam_schedule(BUDGET, 0.5, width=2.0, k=8, n=500)
        etas = [s.eta(t) for t in range(1, s.T + 1)]
        assert all(e > 0 for e in etas)
        assert all(b >= a for a, b in zip(etas, etas[1:]))

    def test_am_cap_flag(self):
        s = dpam_schedule(BUDGET, 0.5, width=0.01, k=8, n=10**9)
        assert s.T == MAX_T and s.capped

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_am_noise_scale_must_be_finite(self, sigma):
        with pytest.raises(DegenerateSchedule):
            AMSchedule(T=20, sigma=sigma, eta_offset=1.0)

    def test_am_invalid(self):
        with pytest.raises(ValidationError, match="need k >= 2, got 1"):
            dpam_schedule(BUDGET, 0.5, width=2.0, k=1, n=100)
        with pytest.raises(DegenerateSchedule, match="width must be finite and positive, got inf"):
            dpam_schedule(BUDGET, 0.5, width=math.inf, k=8, n=100)
        with pytest.raises(DegenerateSchedule):
            dpam_schedule(BUDGET, 0.5, width=0.0, k=8, n=100)

    @pytest.mark.parametrize(
        "alpha, message",
        [(1e-310, "need finite eta_offset > 0, got inf"), (5e-324, r"alpha \* sigma underflows")],
        ids=["1e-310", "5e-324"],
    )
    def test_am_subnormal_alpha_degenerates(self, alpha, message):
        # 4 / (alpha sigma) overflows at 1e-310; alpha sigma underflows to 0 at 5e-324
        with pytest.raises(DegenerateSchedule, match=message):
            dpam_schedule(BUDGET, alpha, width=3.0, k=16, n=2000)

    def test_am_eta_offset_must_be_finite(self):
        with pytest.raises(DegenerateSchedule):
            AMSchedule(T=1, sigma=1.0, eta_offset=math.inf)

    def test_tiny_epsilon_runs_one_iteration(self):
        # both iteration formulas underflow to 0.0 and clamp to T = 1
        budget = PrivacyBudget(1e-300, 1e-6)
        assert dpfw_schedule(budget, 0.1, 2.0, 2.0, 10, 2000).T == 1
        assert dpam_schedule(budget, 0.1, width=3.0, k=16, n=2000).T == 1

    def test_subnormal_epsilon_refused_by_noise_scale(self):
        budget = PrivacyBudget(1e-320, 1e-6)
        with pytest.raises(DegenerateSchedule, match="need finite lam >= 0, got inf"):
            dpfw_schedule(budget, 0.1, 2.0, 2.0, 10, 2000)
        with pytest.raises(DegenerateSchedule, match="need finite sigma >= 0, got inf"):
            dpam_schedule(budget, 0.1, width=3.0, k=16, n=2000)


# the extreme-input grid: alpha x eps x delta x n, each release calibrated
# and on an explicit T = 5 schedule
GRID_ALPHAS = (5e-324, 1e-310, 1e-308, 1e300, 1.7e308)
GRID_EPSILONS = (1e-300, 1e-320)
GRID_DELTAS = (5e-324, 1e-300, 1.0 - 1e-16)
GRID_RELEASES = {
    "dpfw": (release_dpfw, FWSchedule(T=5, gamma=0.05, lam=0.3)),
    "dpam": (release_dpam, AMSchedule(T=5, sigma=0.1, eta_offset=2.0)),
}


@pytest.mark.parametrize("algo", sorted(GRID_RELEASES))
@pytest.mark.parametrize("explicit", [False, True], ids=["calibrated", "t5"])
def test_extreme_inputs_release_or_refuse(algo, explicit):
    release, schedule = GRID_RELEASES[algo]
    workload = gen_workload(16, 8, "random_sign", NoiseStream(1, "grid-workload"))
    outcomes = {}
    for alpha, eps, delta, n in itertools.product(
        GRID_ALPHAS, GRID_EPSILONS, GRID_DELTAS, (1, 2)
    ):
        data = new_dataset([3, 11][:n])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = release(
                    data, workload, PrivacyBudget(eps, delta), NoiseStream(5, "grid"),
                    alpha=alpha, schedule=schedule if explicit else None,
                )
            except (ValidationError, DegenerateSchedule) as exc:
                outcomes[alpha, eps, delta, n] = type(exc).__name__
                continue
        assert np.isfinite(report.p_priv).all()
        new_simplex(report.p_priv)
        outcomes[alpha, eps, delta, n] = "release"
    assert len(outcomes) == 60
    # delta = 5e-324 is refused by the budget, before any release starts
    assert {o for (_, _, d, _), o in outcomes.items() if d == 5e-324} == {"ValidationError"}
    if algo == "dpfw" and not explicit:
        # 32 alpha log(1/delta) underflows to 0 and the calibration refuses it
        for alpha, eps, n in itertools.product((5e-324, 1e-310), GRID_EPSILONS, (1, 2)):
            assert outcomes[alpha, eps, 1.0 - 1e-16, n] == "DegenerateSchedule"


class TestComposition:
    def test_direct_formula(self):
        assert advanced_composition(0.01, 100, 1e-6) == pytest.approx(AC_VALUE, rel=1e-12)

    def test_zero_steps(self):
        assert advanced_composition(0.01, 0, 1e-6) == 0.0

    def test_inverse_identity(self):
        eps, delta, t = 1.7, 1e-5, 321
        step = eps / (4.0 * math.sqrt(2.0 * t * math.log(1.0 / delta)))
        assert advanced_composition(step, t, delta) == pytest.approx(eps, rel=1e-12)

    def test_hypothesis_warning(self):
        with pytest.warns(HypothesisViolated):
            advanced_composition(1.0, 100, 1e-6)

    def test_fw_budget_closure(self):
        # per-step budget implied by lam composes back to the requested eps
        rng = np.random.default_rng(8)
        for _ in range(20):
            budget = PrivacyBudget(float(rng.uniform(0.1, 4)), float(10 ** -rng.uniform(3, 9)))
            alpha = float(rng.uniform(0.02, 1.0))
            d1 = float(rng.uniform(0.5, 8.0))
            n = int(rng.integers(50, 50_000))
            s = dpfw_schedule(budget, alpha, d1, min(d1, 2.0), int(rng.integers(2, 64)), n)
            eps_step = d1 / (n * s.lam)
            total = advanced_composition(eps_step, s.T, budget.delta)
            assert total <= budget.epsilon * (1 + 1e-9)
            assert total == pytest.approx(budget.epsilon, rel=1e-9)


class TestRdp:
    def test_direct_formula(self):
        assert rdp_to_dp(2.0, 1.0, 0.01) == pytest.approx(RDP_VALUE, rel=1e-12)

    def test_limit_monotone_to_eps(self):
        values = [rdp_to_dp(b, 0.7, 1e-4) for b in (2.0, 5.0, 50.0, 5000.0)]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.7, abs=1e-2)

    def test_unit_case(self):
        assert rdp_to_dp(2.0, 0.0, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValidationError, match="Renyi order must exceed 1, got 1.0"):
            rdp_to_dp(1.0, 1.0, 0.01)

    def test_am_budget_closure(self):
        # gaussian per-step RDP -> T-fold composition -> optimal order -> DP
        rng = np.random.default_rng(9)
        for _ in range(20):
            budget = PrivacyBudget(float(rng.uniform(0.1, 4)), float(10 ** -rng.uniform(3, 9)))
            alpha = float(rng.uniform(0.02, 1.0))
            n = int(rng.integers(100, 100_000))
            s = dpam_schedule(budget, alpha, float(rng.uniform(0.5, 10)), 16, n)
            beta = optimal_rdp_order(s.T, n, s.sigma, budget.delta)
            eps_rdp = s.T * gaussian_rdp(beta, s.sigma, math.sqrt(2.0) / n)
            total = rdp_to_dp(beta, eps_rdp, budget.delta)
            assert total <= budget.epsilon * (1 + 1e-6)


class TestLaplaceMaximalInequality:
    def test_expected_max_bound(self):
        trials = 20_000
        for k in (2, 16, 256):
            for lam in (0.1, 1.0):
                stream = NoiseStream(17, f"lapmax-{k}-{lam}")
                draws = stream.laplace(lam, size=(trials, k))
                maxima = draws.max(axis=1)
                stderr = maxima.std(ddof=1) / math.sqrt(trials)
                assert maxima.mean() <= 2 * lam * math.log(2 * k) + 3 * stderr
