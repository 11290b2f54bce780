import math

import numpy as np
import pytest

from dpqr.core import new_simplex, uniform
from dpqr.entropy import composite_prox, softmax
from dpqr.errors import ValidationError
from testkit import GridSpec, kl_divergence, log_sum_exp, neg_entropy, simplex_grid

# sum of x log x over (0.25, 0.75), summed at 40 decimal digits
NEG_ENTROPY_QUARTER = -0.5623351446188083


class TestNegEntropy:
    def test_uniform(self):
        assert neg_entropy(uniform(2)) == pytest.approx(-math.log(2), abs=1e-12)

    def test_point_mass(self):
        assert neg_entropy(new_simplex([1.0, 0.0, 0.0])) == 0.0

    def test_frozen_value(self):
        assert neg_entropy(new_simplex([0.25, 0.75])) == pytest.approx(
            NEG_ENTROPY_QUARTER, abs=1e-12
        )

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            k = int(rng.integers(1, 10))
            d = new_simplex(rng.dirichlet(np.ones(k)))
            h = neg_entropy(d)
            assert -math.log(k) - 1e-12 <= h <= 1e-12


class TestLogSumExp:
    def test_zeros(self):
        assert log_sum_exp(np.zeros(3)) == pytest.approx(math.log(3), abs=1e-12)

    def test_shift_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            c = float(rng.normal())
            assert log_sum_exp(np.full(k, c)) == pytest.approx(c + math.log(k), abs=1e-12)

    def test_no_overflow(self):
        assert log_sum_exp(np.array([1000.0, 0.0])) == pytest.approx(1000.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            log_sum_exp(np.array([]))


class TestSoftmax:
    def test_zeros_to_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25)

    def test_forced_ratio(self):
        assert np.allclose(softmax(np.array([0.0, math.log(3)])), [0.25, 0.75])

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = rng.normal(size=5)
            a = softmax(y)
            b = softmax(y + 7.0)
            assert np.allclose(a, b, atol=1e-12)

    def test_fenchel_pair_on_grid(self):
        # conjugate value = max over the simplex of <y, d> - H(d), softmax attains it
        grid = simplex_grid(GridSpec(resolution=200, k=3))
        ent = np.where(grid > 0, grid * np.log(np.maximum(grid, 1e-300)), 0.0).sum(axis=1)
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = rng.uniform(-2, 2, size=3)
            vals = grid @ y - ent
            best = float(vals.max())
            assert log_sum_exp(y) == pytest.approx(best, abs=3 / 200 * (2 + 6))
            d_best = grid[int(np.argmax(vals))]
            assert np.abs(softmax(y) - d_best).max() < 2 * 3 / 200 * 4


class TestKL:
    def test_zero_iff_equal(self):
        d = new_simplex([0.3, 0.7])
        assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-15)

    def test_point_vs_uniform(self):
        assert kl_divergence(new_simplex([1.0, 0.0]), uniform(2)) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_anchor_zero_rejected(self):
        with pytest.raises(ValidationError, match="anchor has zero mass where d does not"):
            kl_divergence(new_simplex([0.5, 0.5]), new_simplex([1.0, 0.0]))

    def test_bregman_identity(self):
        # KL(d, a) = H(d) - H(a) - <grad H(a), d - a> with grad H = 1 + log
        rng = np.random.default_rng(4)
        for _ in range(30):
            k = int(rng.integers(2, 8))
            d = new_simplex(rng.dirichlet(np.ones(k)))
            a = new_simplex(0.99 * rng.dirichlet(np.ones(k) * 3) + 0.01 / k)
            grad = 1.0 + np.log(a.values)
            bregman = neg_entropy(d) - neg_entropy(a) - grad @ (d.values - a.values)
            assert kl_divergence(d, a) == pytest.approx(bregman, abs=1e-10)
            assert kl_divergence(d, a) >= -1e-15


class TestCompositeProx:
    def test_pure_entropy_gives_uniform(self):
        p = dict(A=1.0, B=1.0, C=0.0, g=np.zeros(3), anchor=uniform(3))
        assert np.allclose(composite_prox(**p), 1 / 3, atol=1e-12)
        p = dict(A=0.0, B=2.5, C=0.0, g=np.ones(4), anchor=uniform(4))
        assert np.allclose(composite_prox(**p), 0.25, atol=1e-12)

    def test_c_zero_matches_softmax(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            a_coef = float(rng.uniform(-4, 4))
            b_coef = float(rng.uniform(0.1, 4))
            g = rng.uniform(-1, 1, size=k)
            p = dict(A=a_coef, B=b_coef, C=0.0, g=g, anchor=uniform(k))
            direct = softmax(-(a_coef / b_coef) * g - 1.0)
            assert np.abs(composite_prox(**p) - direct).max() < 1e-12

    def test_strictly_positive(self):
        p = dict(
            A=50.0, B=0.01, C=0.0, g=np.array([1.0, -1.0, 0.0]), anchor=uniform(3)
        )
        out = composite_prox(**p)
        assert np.all(out > 0.0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValidationError):
            composite_prox(A=1.0, B=0.0, C=0.0, g=np.zeros(2), anchor=uniform(2))
        with pytest.raises(ValidationError, match="prox anchor must be strictly positive"):
            composite_prox(A=1.0, B=1.0, C=1.0, g=np.zeros(2), anchor=new_simplex([1.0, 0.0]))
        # a NaN entry does not hide a nonpositive one; an empty anchor fails in softmax
        with pytest.raises(ValidationError, match="prox anchor must be strictly positive"):
            composite_prox(A=1.0, B=1.0, C=1.0, g=np.zeros(2), anchor=np.array([np.nan, -1.0]))
        with pytest.raises(ValidationError, match="softmax of an empty array"):
            composite_prox(A=1.0, B=1.0, C=1.0, g=np.zeros(0), anchor=np.zeros(0))

    def test_negative_entropy_weight_rejected(self):
        # B + C > 0 is not enough: each weight must be nonnegative
        with pytest.raises(ValidationError):
            composite_prox(A=1.0, B=-0.5, C=1.0, g=np.zeros(2), anchor=uniform(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            composite_prox(A=1.0, B=1.0, C=1.0, g=np.zeros(3), anchor=uniform(2))
