import math

import numpy as np
import pytest

from dpqr.core import new_simplex, new_workload, symmetrize, uniform
from dpqr.entropy import composite_prox
from dpqr.errors import ValidationError
from testkit import (
    GridSpec,
    GridTooLarge,
    brute_force_prox,
    dual_grid_bound,
    grid_max_dual,
    grid_min_primal,
    primal_grid_bound,
    project_simplex,
    regularized_dual,
    simplex_grid,
)


class TestGridSpec:
    def test_size_formula(self):
        spec = GridSpec(resolution=400, k=3)
        assert spec.size == math.comb(402, 2)
        assert simplex_grid(spec).shape == (spec.size, 3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(resolution=5, k=3)
        with pytest.raises(ValidationError):
            GridSpec(resolution=100, k=5)
        with pytest.raises(GridTooLarge):
            GridSpec(resolution=10_000, k=4)

    def test_grid_points_are_distributions(self):
        grid = simplex_grid(GridSpec(resolution=30, k=4))
        assert np.all(grid >= 0.0)
        assert np.allclose(grid.sum(axis=1), 1.0)
        # vertices present
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            assert (np.abs(grid - e).sum(axis=1) < 1e-12).any()


class TestProjectSimplex:
    def test_idempotent_on_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.dirichlet(np.ones(5))
            assert np.abs(project_simplex(d) - d).max() < 1e-12

    def test_projection_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            v = rng.normal(size=6) * 3
            p = project_simplex(v)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            # no simplex point is closer to v (spot check)
            for _ in range(20):
                other = rng.dirichlet(np.ones(6))
                assert np.sum((p - v) ** 2) <= np.sum((other - v) ** 2) + 1e-9


class TestBruteForceProx:
    def test_entropy_only_gives_uniform(self):
        p = dict(A=1.0, B=1.0, C=0.0, g=np.zeros(3), anchor=uniform(3))
        assert np.abs(brute_force_prox(**p).values - 1 / 3).max() < 1e-8

    def test_huge_divergence_pins_anchor(self):
        anchor = new_simplex([0.2, 0.5, 0.3])
        p = dict(A=1.0, B=0.5, C=1e6, g=np.array([1.0, -1.0, 0.5]), anchor=anchor)
        assert np.abs(brute_force_prox(**p).values - anchor.values).max() < 1e-3

    def test_matches_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = dict(
                A=float(rng.uniform(-5, 5)),
                B=float(rng.uniform(0.05, 5)),
                C=float(rng.uniform(0, 5)),
                g=rng.uniform(-1, 1, size=3),
                anchor=new_simplex(rng.dirichlet(np.ones(3))),
            )
            assert np.abs(brute_force_prox(**p).values - composite_prox(**p)).max() < 1e-6


class TestPrimalGrid:
    def test_zero_alpha_symmetric_min_near_reference(self):
        rng = np.random.default_rng(3)
        w = symmetrize(new_workload(rng.uniform(-1, 1, size=(3, 3))))
        ref = new_simplex([0.25, 0.5, 0.25])  # on-grid for even resolutions
        spec = GridSpec(resolution=40, k=3)
        d_star, value = grid_min_primal(ref, w, 0.0, spec)
        assert value == pytest.approx(0.0, abs=1e-12)  # ref itself is on the grid
        assert np.abs(d_star.values - ref.values).max() < 1e-12

    def test_refinement_never_worse(self):
        rng = np.random.default_rng(4)
        w = symmetrize(new_workload(rng.uniform(-1, 1, size=(2, 3))))
        ref = new_simplex(rng.dirichlet(np.ones(3)))
        for alpha in (0.0, 0.5):
            _, coarse = grid_min_primal(ref, w, alpha, GridSpec(resolution=50, k=3))
            _, fine = grid_min_primal(ref, w, alpha, GridSpec(resolution=100, k=3))
            assert fine <= coarse + 1e-12


class TestDualGrid:
    def test_symmetric_two_row_maximizer(self):
        w = symmetrize(new_workload([[0.8, -0.8]]))
        spec = GridSpec(resolution=100, k=2)
        weights, _ = grid_max_dual(uniform(2), w, 0.7, spec)
        assert np.abs(weights - 0.5).max() < 1e-9
        assert np.abs(weights @ w.queries).max() < 1e-9

    def test_small_alpha_approaches_primal_optimum(self):
        # as alpha -> 0 the conjugate term tends to max_j q_j, so the dual
        # value tends to the primal optimum, which is 0 for workloads
        # closed under negation
        rng = np.random.default_rng(5)
        alpha = 1e-3
        w = symmetrize(new_workload(rng.uniform(-1, 1, size=(2, 3))))
        ref = new_simplex(rng.dirichlet(np.ones(3)))
        spec = GridSpec(resolution=60, k=4)
        _, value = grid_max_dual(ref, w, alpha, spec)
        assert value <= 1e-12
        assert value >= -alpha * math.log(3) - dual_grid_bound(spec)

    def test_strong_duality_brackets(self):
        rng = np.random.default_rng(6)
        for alpha in (0.1, 1.0):
            w = new_workload(rng.uniform(-1, 1, size=(3, 3)))
            ref = new_simplex(rng.dirichlet(np.ones(3)))
            pspec = GridSpec(resolution=200, k=3)
            dspec = GridSpec(resolution=200, k=3)
            _, pval = grid_min_primal(ref, w, alpha, pspec)
            _, dval = grid_max_dual(ref, w, alpha, dspec)
            # grid min sits above the saddle value, grid max below it
            assert pval >= dval - 1e-12
            assert pval - dval <= primal_grid_bound(pspec, alpha) + dual_grid_bound(dspec)

    def test_dual_value_matches_objective(self):
        rng = np.random.default_rng(7)
        w = new_workload(rng.uniform(-1, 1, size=(3, 3)))
        ref = new_simplex(rng.dirichlet(np.ones(3)))
        weights, value = grid_max_dual(ref, w, 0.4, GridSpec(resolution=30, k=3))
        q_star = weights @ w.queries
        assert value == pytest.approx(regularized_dual(q_star, ref, 0.4), abs=1e-12)
