import math

import numpy as np
import pytest

from dpqr.bench import gen_workload
from dpqr.core import new_simplex, new_workload, symmetrize, uniform
from dpqr.entropy import softmax
from dpqr.errors import ValidationError
from dpqr.mechanisms import NoiseStream
from dpqr.objective import (
    frank_wolfe_gap,
    gaussian_width,
    max_query_error,
    smoothed_gradient_oracle,
)
from testkit import (
    empirical_dual_gradient,
    neg_entropy,
    primal_objective,
    regularized_dual,
    regularized_primal,
    smoothed_primal_mc,
)

SWAP = symmetrize(new_workload([[1.0, -1.0]]))  # rows (1,-1) and (-1,1)


def random_hull_point(w, rng):
    wt = rng.dirichlet(np.ones(w.m))
    return wt @ w.queries


class TestPrimal:
    def test_direct_arithmetic(self):
        assert primal_objective([0.5, 0.5], [0.7, 0.3], SWAP) == pytest.approx(0.4)

    def test_zero_at_reference(self):
        d = new_simplex([0.6, 0.4])
        assert primal_objective(d, d, SWAP) == 0.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = new_workload(rng.uniform(-1, 1, size=(8, 3)))
            d = rng.dirichlet(np.ones(3))
            ref = rng.dirichlet(np.ones(3))
            expected = max(float(row @ (ref - d)) for row in w.queries)
            assert primal_objective(d, ref, w) == pytest.approx(expected, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match=r"shape mismatch \(2,\) vs \(3,\)"):
            primal_objective([0.5, 0.25, 0.25], [0.5, 0.5], SWAP)

    def test_convex_and_lipschitz(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            w = new_workload(rng.uniform(-1, 1, size=(5, 4)))
            ref = rng.dirichlet(np.ones(4))
            d1 = rng.dirichlet(np.ones(4))
            d2 = rng.dirichlet(np.ones(4))
            lam = float(rng.uniform())
            mix = lam * d1 + (1 - lam) * d2
            assert primal_objective(mix, ref, w) <= (
                lam * primal_objective(d1, ref, w)
                + (1 - lam) * primal_objective(d2, ref, w)
                + 1e-12
            )
            assert abs(
                primal_objective(d1, ref, w) - primal_objective(d2, ref, w)
            ) <= np.abs(d1 - d2).sum() + 1e-12

    def test_regularized_decomposes(self):
        rng = np.random.default_rng(2)
        for alpha in (0.0, 0.3):
            d = new_simplex(rng.dirichlet(np.ones(3)))
            ref = new_simplex(rng.dirichlet(np.ones(3)))
            w = new_workload(rng.uniform(-1, 1, size=(4, 3)))
            assert regularized_primal(d, ref, w, alpha) == pytest.approx(
                primal_objective(d, ref, w) + alpha * neg_entropy(d), abs=1e-12
            )

    def test_uniform_entropy_shift(self):
        ref = new_simplex([0.7, 0.3])
        assert regularized_primal(uniform(2), ref, SWAP, 0.5) == pytest.approx(
            primal_objective(uniform(2), ref, SWAP) - 0.5 * math.log(2), abs=1e-12
        )


class TestDual:
    def test_zero_point(self):
        assert regularized_dual(np.zeros(3), uniform(3), 0.7) == pytest.approx(
            -0.7 * math.log(3), abs=1e-12
        )

    def test_constant_shift_invariance(self):
        # <q + c, ref> grows by c and the conjugate term absorbs it exactly,
        # so shifting q by a constant vector leaves the dual unchanged
        ref = new_simplex([0.2, 0.3, 0.5])
        c = 0.42
        assert regularized_dual(np.full(3, c), ref, 0.9) == pytest.approx(
            -0.9 * math.log(3), abs=1e-12
        )
        rng = np.random.default_rng(42)
        q = rng.uniform(-1, 1, size=3)
        assert regularized_dual(q + c, ref, 0.9) == pytest.approx(
            regularized_dual(q, ref, 0.9), abs=1e-12
        )

    def test_lipschitz_in_sup_norm(self):
        rng = np.random.default_rng(3)
        ref = new_simplex(rng.dirichlet(np.ones(4)))
        for alpha in (0.1, 1.0):
            for _ in range(40):
                q1 = rng.uniform(-1, 1, size=4)
                q2 = rng.uniform(-1, 1, size=4)
                lhs = abs(regularized_dual(q1, ref, alpha) - regularized_dual(q2, ref, alpha))
                assert lhs <= 2.0 * np.abs(q1 - q2).max() + 1e-12

    def test_gradient_examples(self):
        assert np.allclose(empirical_dual_gradient(np.zeros(2), uniform(2), 0.5), 0.0)
        g = empirical_dual_gradient(np.zeros(2), new_simplex([1.0, 0.0]), 0.5)
        assert np.allclose(g, [0.5, -0.5])

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = empirical_dual_gradient(
                rng.uniform(-1, 1, size=5), new_simplex(rng.dirichlet(np.ones(5))), 0.3
            )
            assert abs(g.sum()) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        alpha = 0.4
        emp = new_simplex(rng.dirichlet(np.ones(4)))
        for _ in range(5):
            q = rng.uniform(-1, 1, size=4)
            grad = empirical_dual_gradient(q, emp, alpha)
            h = 1e-5
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (
                    regularized_dual(q + e, emp, alpha) - regularized_dual(q - e, emp, alpha)
                ) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-5)

    def test_gradient_smoothness(self):
        rng = np.random.default_rng(6)
        emp = new_simplex(rng.dirichlet(np.ones(4)))
        for alpha in (0.2, 1.0):
            for _ in range(40):
                q1 = rng.uniform(-1, 1, size=4)
                q2 = rng.uniform(-1, 1, size=4)
                diff = np.abs(
                    empirical_dual_gradient(q1, emp, alpha)
                    - empirical_dual_gradient(q2, emp, alpha)
                ).sum()
                assert diff <= np.abs(q1 - q2).max() / alpha + 1e-12


class TestFrankWolfeGap:
    def test_zero_at_symmetric_optimum(self):
        assert frank_wolfe_gap(np.zeros(2), uniform(2), 0.5, SWAP) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_certifies_suboptimality(self):
        rng = np.random.default_rng(7)
        w = symmetrize(new_workload(rng.uniform(-1, 1, size=(3, 3))))
        ref = new_simplex(rng.dirichlet(np.ones(3)))
        alpha = 0.3
        for _ in range(10):
            q = random_hull_point(w, rng)
            gap = frank_wolfe_gap(q, ref, alpha, w)
            assert gap >= -1e-12
            for _ in range(100):
                other = random_hull_point(w, rng)
                improvement = regularized_dual(other, ref, alpha) - regularized_dual(
                    q, ref, alpha
                )
                assert gap >= improvement - 1e-10

    def test_matches_hull_grid(self):
        # the gap's row scan agrees with brute force over a fine hull grid
        rng = np.random.default_rng(8)
        w = new_workload(rng.uniform(-1, 1, size=(2, 2)))
        ref = new_simplex(rng.dirichlet(np.ones(2)))
        alpha = 0.5
        q = random_hull_point(w, rng)
        grad = ref.values - softmax(q / alpha)
        ts = np.linspace(0.0, 1.0, 4001)[:, None]
        hull = ts * w.queries[0][None, :] + (1 - ts) * w.queries[1][None, :]
        brute = float((hull @ grad).max() - grad @ q)
        assert frank_wolfe_gap(q, ref, alpha, w) == pytest.approx(brute, abs=1e-9)


class TestSmoothedOracle:
    def test_zero_noise_picks_argmax(self):
        emp = new_simplex([0.9, 0.1])
        grad, row = smoothed_gradient_oracle(uniform(2), emp, SWAP, np.zeros(2))
        assert row == 0  # row (1,-1) scores highest against emp - d
        assert np.allclose(grad, -SWAP.queries[0])

    def test_noise_row_must_match_d(self):
        emp = new_simplex([0.6, 0.4])
        with pytest.raises(ValidationError, match=r"noise shape \(3,\) differs from d \(2,\)"):
            smoothed_gradient_oracle(uniform(2), emp, SWAP, np.zeros(3))
        with pytest.raises(ValidationError, match=r"noise shape \(1, 2\) differs from d \(2,\)"):
            smoothed_gradient_oracle(uniform(2), emp, SWAP, np.zeros((1, 2)))
        with pytest.raises(ValidationError, match="vector of length 3 vs workload k=2"):
            smoothed_gradient_oracle(uniform(3), uniform(3), SWAP, np.zeros(3))

    def test_deterministic_per_stream(self):
        emp = new_simplex([0.6, 0.4])
        xa, xb = (NoiseStream(5, "o").gaussian(0.3, size=2) for _ in range(2))
        ga, ra = smoothed_gradient_oracle(uniform(2), emp, SWAP, xa)
        gb, rb = smoothed_gradient_oracle(uniform(2), emp, SWAP, xb)
        assert np.array_equal(ga, gb) and ra == rb

    def test_unbiased_against_dual_estimator(self):
        # primal estimate: mean of returned gradients; dual estimate:
        # mean of (phi(d+xi) - phi(d)) xi / sigma^2.  Both estimate the
        # smoothed objective's gradient.
        rng = np.random.default_rng(9)
        w = symmetrize(new_workload(rng.uniform(-1, 1, size=(3, 3))))
        emp = new_simplex(rng.dirichlet(np.ones(3)))
        d = new_simplex(rng.dirichlet(np.ones(3)))
        sigma = 0.6
        n_draws = 60_000
        stream = NoiseStream(13, "oracle-mc")
        grads = np.empty((n_draws, 3))
        for i in range(n_draws):
            grads[i], _ = smoothed_gradient_oracle(d, emp, w, stream.gaussian(sigma, size=3))
        primal_mean = grads.mean(axis=0)
        primal_se = grads.std(axis=0, ddof=1) / math.sqrt(n_draws)

        dual_stream = NoiseStream(14, "dual-mc")
        xi = dual_stream.gaussian(sigma, size=(n_draws, 3))
        base = float((w.queries @ (emp.values - d.values)).max())
        vals = ((emp.values - d.values)[None, :] - xi) @ w.queries.T
        weights_term = (vals.max(axis=1) - base)[:, None] * xi / sigma**2
        dual_mean = weights_term.mean(axis=0)
        dual_se = weights_term.std(axis=0, ddof=1) / math.sqrt(n_draws)

        tol = 3 * np.sqrt(primal_se**2 + dual_se**2)
        assert np.all(np.abs(primal_mean - dual_mean) <= tol)

    def test_second_moment_bounded(self):
        rng = np.random.default_rng(10)
        w = symmetrize(new_workload(rng.uniform(-1, 1, size=(4, 3))))
        emp = new_simplex(rng.dirichlet(np.ones(3)))
        d = new_simplex(rng.dirichlet(np.ones(3)))
        noise = NoiseStream(15, "oracle-var").gaussian(0.4, size=(5000, 3))
        grads = np.array([smoothed_gradient_oracle(d, emp, w, xi)[0] for xi in noise])
        center = grads.mean(axis=0)
        dev = np.abs(grads - center).max(axis=1) ** 2
        assert dev.mean() <= 4.0 + 0.1


class TestGaussianWidth:
    def test_half_normal(self):
        w = new_workload([[1.0], [-1.0]])
        est = gaussian_width(w, 200_000, NoiseStream(16, "w"))
        assert abs(est.mean - math.sqrt(2 / math.pi)) <= 3 * est.stderr

    def test_singleton_centered(self):
        w = new_workload([[0.4, -0.7]])
        est = gaussian_width(w, 100_000, NoiseStream(17, "w"))
        assert abs(est.mean) <= 3 * est.stderr

    def test_cross_polytope_vs_oracle(self):
        w = new_workload([[1, 0], [-1, 0], [0, 1], [0, -1]])
        est = gaussian_width(w, 200_000, NoiseStream(18, "w"))
        oracle = np.abs(np.random.default_rng(123).standard_normal((1_000_000, 2))).max(axis=1)
        otol = 3 * (oracle.std(ddof=1) / 1000.0)
        assert abs(est.mean - oracle.mean()) <= 3 * est.stderr + otol

    @pytest.mark.parametrize(
        "k, m, kind", [(512, 512, "parities(9)"), (16, 16, "random_sign"), (64, 512, "random_box")]
    )
    def test_row_blocks_match_one_product(self, k, m, kind):
        # the estimate multiplies ~1 MiB of rows at a time; the maxima equal
        # those of one (samples x m) product bit for bit
        w = gen_workload(k, m, kind, NoiseStream(5, "w"))
        est = gaussian_width(w, 1000, NoiseStream(19, "w"))
        xi = NoiseStream(19, "w").gaussian(1.0, size=(1000, w.k))
        assert est.mean == float((xi @ w.queries.T).max(axis=1).sum()) / 1000


class TestSmoothedPrimalMc:
    def test_degenerate_sigma(self):
        rng = np.random.default_rng(19)
        w = symmetrize(new_workload(rng.uniform(-1, 1, size=(3, 3))))
        d = new_simplex(rng.dirichlet(np.ones(3)))
        ref = new_simplex(rng.dirichlet(np.ones(3)))
        mean, se = smoothed_primal_mc(d, ref, w, 1e-8, 20_000, NoiseStream(20, "s"))
        assert abs(mean - primal_objective(d, ref, w)) <= 1e-6 + 3 * se

    def test_width_bound_and_one_sided(self):
        rng = np.random.default_rng(21)
        w = symmetrize(new_workload(rng.uniform(-1, 1, size=(3, 4))))
        width = gaussian_width(w, 100_000, NoiseStream(22, "sw"))
        for i in range(5):
            d = new_simplex(rng.dirichlet(np.ones(4)))
            ref = new_simplex(rng.dirichlet(np.ones(4)))
            sigma = float(rng.uniform(0.05, 0.5))
            mean, se = smoothed_primal_mc(d, ref, w, sigma, 100_000, NoiseStream(23 + i, "s"))
            phi = primal_objective(d, ref, w)
            assert abs(mean - phi) <= sigma * (width.mean + 3 * width.stderr) + 3 * se
            assert mean + 3 * se >= phi  # smoothing can only raise a max


class TestMaxQueryError:
    def test_identical_is_zero(self):
        d = new_simplex([0.4, 0.6])
        assert max_query_error(d, d, SWAP) == 0.0

    def test_opposite_point_masses(self):
        assert max_query_error(
            new_simplex([1.0, 0.0]), new_simplex([0.0, 1.0]), SWAP
        ) == pytest.approx(2.0)

    def test_same_formula_as_primal(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            w = new_workload(rng.uniform(-1, 1, size=(4, 3)))
            ref = new_simplex(rng.dirichlet(np.ones(3)))
            priv = new_simplex(rng.dirichlet(np.ones(3)))
            assert max_query_error(ref, priv, w) == primal_objective(priv, ref, w)
