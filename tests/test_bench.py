import json
import math

import numpy as np
import pytest

from dpqr.bench import (
    ExperimentPlan,
    default_plan,
    fit_loglog_slope,
    gen_distribution,
    gen_workload,
    run_experiment,
    sample_dataset,
)
from dpqr.core import empirical, new_simplex, uniform
from dpqr.errors import ValidationError
from dpqr.mechanisms import NoiseStream


class TestGenDistribution:
    def test_uniform(self):
        p = gen_distribution(5, "uniform", NoiseStream(0, "d"))
        assert np.allclose(p.values, 0.2)

    def test_sparse_point_mass(self):
        p = gen_distribution(6, "sparse(1)", NoiseStream(1, "d"))
        assert sorted(p.values)[-1] == 1.0
        assert (p.values > 0).sum() == 1

    def test_sparse_support_size(self):
        p = gen_distribution(8, "sparse(3)", NoiseStream(2, "d"))
        assert (p.values > 0).sum() == 3

    def test_dirichlet_coordinate_means(self):
        draws = NoiseStream(3, "d").dirichlet(np.ones(4), size=100_000)
        means = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(means - 0.25) < 3 * stderr)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown distribution kind 'zipf"):
            gen_distribution(4, "zipf(2)", NoiseStream(4, "d"))


class TestGenWorkload:
    def test_parities_character_table(self):
        w = gen_workload(4, 0, "parities(2)", NoiseStream(5, "w"))
        base = w.queries[:4]  # input rows precede appended negations
        assert np.all(np.abs(base) == 1.0)
        gram = base @ base.T
        assert np.allclose(gram - np.diag(np.diag(gram)), 0.0)
        assert np.allclose(np.diag(gram), 4.0)
        assert len({row.tobytes() for row in base}) == 4
        assert w.m == 8 and w.symmetric

    def test_parities_requires_power_of_two(self):
        with pytest.raises(ValidationError, match=r"parities\(2\) needs k = 4, got 6"):
            gen_workload(6, 0, "parities(2)", NoiseStream(6, "w"))

    def test_random_sign_doubles_generically(self):
        w = gen_workload(8, 3, "random_sign", NoiseStream(7, "w"))
        assert w.m == 6 and w.symmetric
        assert np.all(np.abs(w.queries) == 1.0)

    def test_random_box_in_range(self):
        w = gen_workload(5, 4, "random_box", NoiseStream(8, "w"))
        assert np.all(np.abs(w.queries) <= 1.0)
        assert w.symmetric


class TestSampling:
    def test_point_mass_constant(self):
        p = new_simplex([0.0, 0.0, 1.0, 0.0])
        d = sample_dataset(p, 50, NoiseStream(9, "s"))
        assert np.all(d.points == 2)

    def test_empirical_close_to_target(self):
        p = new_simplex([0.7, 0.3])
        n = 100_000
        d = sample_dataset(p, n, NoiseStream(10, "s"))
        emp = empirical(d, 2).values
        tol = 3 * math.sqrt(0.7 * 0.3 / n)
        assert np.all(np.abs(emp - p.values) < tol)

    def test_deterministic(self):
        p = new_simplex([0.5, 0.25, 0.25])
        a = sample_dataset(p, 100, NoiseStream(11, "s"))
        b = sample_dataset(p, 100, NoiseStream(11, "s"))
        assert np.array_equal(a.points, b.points)

    def test_synthetic_matches_released(self):
        priv = new_simplex([0.6, 0.3, 0.1])
        count = 100_000
        d = sample_dataset(priv, count, NoiseStream(12, "s"))
        emp = empirical(d, 3).values
        tol = 3 * math.sqrt(0.6 * 0.4 / count)
        assert np.abs(emp - priv.values).max() < tol


class TestSlopeFit:
    def test_exact_power_law(self):
        ns = [2**p for p in range(8, 15)]
        errs = [3.7 * n**-0.5 for n in ns]
        slope, stderr = fit_loglog_slope(ns, errs)
        assert slope == pytest.approx(-0.5, abs=1e-9)
        assert stderr == pytest.approx(0.0, abs=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([10], [1.0])


def tiny_plan(**overrides):
    base = dict(
        algorithms=("dpfw", "dpam"),
        n_grid=(256, 512),
        eps_grid=(1.0,),
        delta=1e-6,
        repetitions=3,
        k=8,
        dist_kind="dirichlet(0.5)",
        workload_kind="random_sign",
        workload_m=4,
        seed=99,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestRunExperiment:
    def test_worker_count_invariance(self):
        plan = tiny_plan()
        r1 = run_experiment(plan, workers=1)
        r4 = run_experiment(plan, workers=4)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r4.to_dict(), sort_keys=True
        )

    def test_repetitions_distinct(self):
        res = run_experiment(tiny_plan(repetitions=5))
        for cell in res.cells:
            errs = [r["population_error"] for r in cell["reps"]]
            assert len(set(errs)) == len(errs)

    def test_population_error_nonnegative_symmetric(self):
        res = run_experiment(tiny_plan())
        for cell in res.cells:
            for rep in cell["reps"]:
                assert rep["population_error"] >= 0.0

    def test_triangle_inequality_from_records(self):
        res = run_experiment(tiny_plan())
        for cell in res.cells:
            for rep in cell["reps"]:
                pop, emp = rep["population_error"], rep["empirical_error"]
                assert pop - emp <= rep["sampling_gap"] + 1e-12
                assert emp - pop <= rep["sampling_gap_rev"] + 1e-12

    def test_error_non_increasing_in_eps(self):
        plan = tiny_plan(
            algorithms=("dpam",),
            n_grid=(2048,),
            eps_grid=(0.5, 2.0),
            repetitions=20,
            workload_m=8,
        )
        res = run_experiment(plan, workers=4)
        lo, hi = res.cells[0], res.cells[1]
        assert lo["eps"] == 0.5 and hi["eps"] == 2.0
        combined = math.sqrt(
            (lo["population_std"] ** 2 + hi["population_std"] ** 2) / plan.repetitions
        )
        assert hi["population_mean"] <= lo["population_mean"] + combined

    def test_default_plan_shape(self):
        plan = default_plan()
        assert plan.n_grid == tuple(2**p for p in range(8, 15))
        assert plan.eps_grid == (0.5, 1.0, 2.0)
        assert plan.repetitions == 20 and plan.k == 16
        res_dict = plan.to_dict()
        assert ExperimentPlan.from_dict(res_dict) == plan

    def test_both_keyword(self):
        plan = tiny_plan(algorithms=("both",))
        assert plan.algorithms == ("dpfw", "dpam")

    def test_plan_round_trip(self):
        plan = tiny_plan(alpha=0.25, dpfw_inf_diameter=False, workers=2)
        d = json.loads(json.dumps(plan.to_dict()))
        assert ExperimentPlan.from_dict(d) == plan
        # "both" may be written as a bare string rather than a list
        assert ExperimentPlan.from_dict({**d, "algorithms": "both"}) == plan

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"delta": 2.0}, r"delta must lie in \(0, 1\), got 2.0"),
            ({"delta": 0.0}, r"delta must lie in \(0, 1\), got 0.0"),
            ({"delta": 1.0}, r"delta must lie in \(0, 1\), got 1.0"),
            ({"alpha": -0.5}, "alpha must be finite and positive, got -0.5"),
            ({"alpha": 0.0}, "alpha must be finite and positive, got 0.0"),
            ({"alpha": math.inf}, "alpha must be finite and positive, got inf"),
            ({"eps_grid": (1.0, math.inf)}, "eps grid must be nonempty with finite eps > 0"),
            ({"eps_grid": (math.nan,)}, "eps grid must be nonempty with finite eps > 0"),
            ({"workers": 0}, "need workers >= 1, got 0"),
            ({"workers": -3}, "need workers >= 1, got -3"),
            ({"seed": -1}, "need seed >= 0, got -1"),
        ],
        ids=[
            "delta-2", "delta-0", "delta-1", "alpha-negative", "alpha-0", "alpha-inf",
            "eps-inf", "eps-nan", "workers-0", "workers-negative", "seed-negative",
        ],
    )
    def test_invalid_plan_rejected_when_built(self, overrides, match):
        # such a plan used to run every repetition to a recorded failure
        with pytest.raises(ValidationError, match=match):
            tiny_plan(**overrides)
        with pytest.raises(ValidationError, match=match):
            ExperimentPlan.from_dict({**tiny_plan().to_dict(), **overrides})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dpfw_inf_diameter", "false"),
            ("dpfw_inf_diameter", 0),
            ("k", 16.7),
            ("k", True),
            ("repetitions", True),
            ("delta", True),
            ("delta", "1e-6"),
            ("n_grid", [256, 512.5]),
            ("dist_kind", 5),
        ],
    )
    def test_wrong_kind_of_value(self, key, value):
        # "false" used to load as True, 16.7 as 16 and true as 1
        d = json.loads(json.dumps(tiny_plan().to_dict()))
        d[key] = value
        with pytest.raises(ValidationError, match=f"ExperimentPlan field '{key}': expected"):
            ExperimentPlan.from_dict(d)

    def test_plan_integer_valued_float_fields(self):
        # a float field takes a JSON integer
        d = json.loads(json.dumps(tiny_plan().to_dict()))
        d["eps_grid"] = [1]
        assert ExperimentPlan.from_dict(d) == tiny_plan()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_1_rejected(self, workers):
        # such a count used to run serially without a word
        with pytest.raises(ValidationError, match="need workers >= 1"):
            run_experiment(tiny_plan(), workers=workers)

    def test_plan_defaults_and_missing_field(self):
        d = tiny_plan().to_dict()
        for key in ("alpha", "dpfw_inf_diameter", "workers"):
            del d[key]
        assert ExperimentPlan.from_dict(d) == tiny_plan()
        del d["seed"]
        with pytest.raises(ValidationError, match="'seed'"):
            ExperimentPlan.from_dict(d)
