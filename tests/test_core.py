import json

import numpy as np
import pytest

from dpqr.bench import gen_workload
from dpqr.cli import load_workload, save_workload
from dpqr.core import (
    PrivacyBudget,
    QueryWorkload,
    diameters,
    empirical,
    new_dataset,
    new_simplex,
    new_workload,
    symmetrize,
    uniform,
)
from dpqr.errors import ValidationError
from dpqr.mechanisms import NoiseStream


class TestSimplex:
    def test_valid_pairs(self):
        assert np.allclose(new_simplex([0.5, 0.5]).values, [0.5, 0.5])
        assert np.allclose(new_simplex([1.0, 0.0, 0.0]).values, [1.0, 0.0, 0.0])

    def test_not_normalized(self):
        with pytest.raises(ValidationError, match="mass sums to 1.1"):
            new_simplex([0.6, 0.5])

    def test_negative_mass(self):
        with pytest.raises(ValidationError, match="entry -0.1 below tolerance"):
            new_simplex([1.1, -0.1])

    def test_tiny_negative_clamped(self):
        v = new_simplex([1.0, -1e-13]).values
        assert v[1] == 0.0
        assert v.sum() == pytest.approx(1.0, abs=0)

    def test_uniform(self):
        assert np.allclose(uniform(2).values, [0.5, 0.5])
        assert np.allclose(uniform(1).values, [1.0])
        assert np.allclose(uniform(4).values, [0.25] * 4)

    def test_immutable(self):
        s = uniform(3)
        with pytest.raises(ValueError):
            s.values[0] = 1.0


class TestDatasetEmpirical:
    def test_direct_count(self):
        assert np.allclose(empirical(new_dataset([0, 0, 1]), 2).values, [2 / 3, 1 / 3])

    def test_point_mass(self):
        assert np.allclose(empirical(new_dataset([3]), 4).values, [0, 0, 0, 1])

    def test_uniform_case(self):
        assert np.allclose(empirical(new_dataset([0, 1, 2, 3]), 4).values, [0.25] * 4)

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match="index 5 outside universe of size 4"):
            empirical(new_dataset([0, 5]), 4)
        with pytest.raises(ValidationError, match="negative index -1"):
            new_dataset([-1, 0])

    def test_always_valid_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 20))
            n = int(rng.integers(1, 200))
            d = new_dataset(rng.integers(0, k, size=n))
            emp = empirical(d, k)
            assert np.all(emp.values >= 0.0)
            assert emp.values.sum() == pytest.approx(1.0, abs=1e-12)


class TestWorkload:
    def test_entry_range_checked(self):
        with pytest.raises(ValidationError, match="row 1, column 0"):
            new_workload([[0.5, 0.5], [1.5, 0.0]])

    def test_symmetrize_adds_negations(self):
        w = symmetrize(new_workload([[1.0, -1.0]]))
        assert w.symmetric
        assert sorted(map(tuple, w.queries)) == [(-1.0, 1.0), (1.0, -1.0)]

    def test_symmetrize_already_closed(self):
        w = symmetrize(new_workload([[1.0, 0.0], [-1.0, 0.0]]))
        assert [tuple(r) for r in w.queries] == [(1.0, 0.0), (-1.0, 0.0)]

    def test_symmetrize_zero_row_once(self):
        w = symmetrize(new_workload([[0.0, 0.0]]))
        assert w.m == 1

    def test_symmetrize_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            w = symmetrize(new_workload(rng.uniform(-1, 1, size=(m, k))))
            again = symmetrize(w)
            assert np.array_equal(w.queries, again.queries)

    def test_symmetrize_across_key_blocks(self):
        # rows of 2^16 entries: row keys are made two rows at a time, so
        # duplicates and negations here sit in different blocks
        rng = np.random.default_rng(3)
        r0, r1, r2 = np.where(rng.random((3, 1 << 16)) < 0.5, -1.0, 1.0)
        zero, negzero = np.zeros(1 << 16), np.full(1 << 16, -0.0)
        w = new_workload([r0, r1, -r0, r1, zero, r2, negzero])
        assert not w.symmetric
        out = symmetrize(w)
        expected = np.array([r0, r1, -r0, zero, r2, -r1, -r2])
        assert out.queries.tobytes() == expected.tobytes()
        assert out.symmetric
        assert QueryWorkload(np.array([r1, zero, r2, -r2, -r1])).symmetric

    def test_diameters_examples(self):
        assert diameters(new_workload([[1, -1], [-1, 1]])) == (4.0, 2.0)
        assert diameters(new_workload([[0.3, -0.2]])) == (0.0, 0.0)
        assert diameters(new_workload([[1, 0], [0, 1]])) == (2.0, 1.0)

    def test_diameter_bounds_after_symmetrize(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            w = symmetrize(new_workload(rng.uniform(-1, 1, size=(m, k))))
            d1, dinf = diameters(w)
            assert dinf <= 2.0 + 1e-12
            assert d1 <= 2.0 * k + 1e-12


def pairwise_diameters(q: np.ndarray) -> tuple[float, float]:
    """The O(m^2 k) scan over all row pairs that ``diameters`` must match bit for bit."""
    d1 = dinf = 0.0
    for row in q:
        diff = np.abs(row[None, :] - q)
        d1 = max(d1, float(diff.sum(axis=1).max()))
        dinf = max(dinf, float(diff.max()))
    return d1, dinf


class TestDiametersAgainstScan:
    @staticmethod
    def _assert_matches(w: QueryWorkload):
        assert diameters(w) == pairwise_diameters(w.queries)

    def test_parities(self):
        for d in range(2, 7):
            w = gen_workload(2**d, 2**d, f"parities({d})", NoiseStream(0, "w"))
            assert w.m == 2 ** (d + 1)
            self._assert_matches(w)

    def test_generated_and_their_open_subsets(self):
        for kind in ("random_sign", "random_box"):
            for seed, (k, m) in enumerate([(1, 3), (2, 5), (5, 8), (16, 16), (33, 40), (64, 7)]):
                w = gen_workload(k, m, kind, NoiseStream(seed, "w"))
                self._assert_matches(w)
                rows = np.random.default_rng(seed).permutation(w.m)[: max(1, w.m // 2)]
                self._assert_matches(new_workload(w.queries[rows]))

    def test_single_row(self):
        self._assert_matches(new_workload([[0.5, -1.0, 0.25]]))
        self._assert_matches(symmetrize(new_workload([[0.5, -1.0, 0.25]])))
        self._assert_matches(new_workload([[0.0, 0.0]]))

    def test_symmetric_flag_is_not_trusted(self, tmp_path):
        # a workload file's flag is ignored on read: rows not closed under
        # negation get the scan's value whatever the flag says
        q = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [-0.5, 0.25, 1.0]])
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"k": 3, "symmetric": True, "queries": q.tolist()}))
        w = load_workload(str(path))
        assert not w.symmetric
        assert diameters(w) == pairwise_diameters(q) == (3.25, 1.5)
        self._assert_matches(new_workload(np.vstack([q, -q[:2]])))

    def test_fractional_norm_ties(self):
        # a permuted row has the largest norm up to rounding, and rounding makes
        # q + p[perm] sum one ulp above 2 max ||q||_1: the scan's value is kept
        q = np.array([[0.53, 0.58, 0.64, 0.36], [0.53, 0.58, 0.36, 0.64],
                      [0.53, 0.36, 0.64, 0.58], [0.64, 0.53, 0.36, 0.58]])
        w = symmetrize(new_workload(q))
        d1, _ = pairwise_diameters(w.queries)
        assert d1 > 2 * float(np.abs(w.queries).sum(axis=1).max())
        self._assert_matches(w)
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            base = np.round(rng.uniform(0, 1, size=k), int(rng.integers(1, 4)))
            rows = [rng.permutation(base) for _ in range(int(rng.integers(2, 6)))]
            self._assert_matches(symmetrize(new_workload(rows)))


class TestScan:
    """``QueryWorkload.scan``: the Hadamard transform on [H; -H], else the dense product."""

    @pytest.mark.parametrize("d", range(1, 11))
    def test_parities_agree_with_dense(self, d):
        w = gen_workload(2**d, 2**d, f"parities({d})", NoiseStream(0, "w"))
        assert w._hadamard_factors is not None
        for g in np.random.default_rng(d).standard_normal((3, w.k)):
            s, dense = w.scan(g), w.queries @ g
            assert np.abs(s - dense).max() <= 1e-12 * np.abs(g).sum()
            assert s.argmax() == dense.argmax()

    def test_other_rows_take_the_dense_product(self):
        sign = gen_workload(16, 16, "random_sign", NoiseStream(4, "w"))
        assert (sign.m, sign.k) == (32, 16)
        q = gen_workload(64, 64, "parities(6)", NoiseStream(0, "w")).queries.copy()
        q[[3, 40]] = q[[40, 3]]
        for w in (sign, new_workload(q)):
            assert w._hadamard_factors is None
            g = np.random.default_rng(w.k).standard_normal(w.k)
            assert np.array_equal(w.scan(g), w.queries @ g)

    def test_workload_file_keeps_the_transform(self, tmp_path):
        path = tmp_path / "w.json"
        save_workload(gen_workload(32, 32, "parities(5)", NoiseStream(0, "w")), str(path))
        assert load_workload(str(path))._hadamard_factors is not None


class TestBudgetAndDual:
    def test_budget_validation(self):
        PrivacyBudget(0.5, 1e-6)
        with pytest.raises(ValidationError, match="epsilon must be positive, got 0.0"):
            PrivacyBudget(0.0, 1e-6)
        with pytest.raises(ValidationError, match=r"delta must lie in \(0, 1\), got 0.0"):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(ValidationError, match=r"delta must lie in \(0, 1\), got 1.0"):
            PrivacyBudget(1.0, 1.0)

    def test_budget_refuses_delta_whose_inverse_overflows(self):
        # the message names delta, not the alpha a calibration would derive from it
        PrivacyBudget(1.0, 1e-300)
        for tiny in (5e-324, 1e-310):
            with pytest.raises(ValidationError, match=f"1/delta overflows at delta={tiny}"):
                PrivacyBudget(1.0, tiny)

    def test_as_alpha(self):
        from dpqr.core import as_alpha

        assert as_alpha(0.25) == 0.25
        assert as_alpha(5e-324) == 5e-324
        for bad in (-0.1, 0.0, float("inf"), float("nan")):
            message = f"alpha must be finite and positive, got {bad}"
            with pytest.raises(ValidationError, match=message):
                as_alpha(bad)
