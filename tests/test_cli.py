import json

import numpy as np
import pytest

from dpqr.bench import ExperimentPlan
from dpqr.cli import (
    load_dataset,
    load_report,
    load_workload,
    main,
    save_dataset,
    save_workload,
)
from dpqr.core import new_dataset, new_simplex, new_workload, symmetrize
from dpqr.dpfw import optimal_alpha
from dpqr.core import PrivacyBudget
from dpqr.errors import ValidationError
from dpqr.report import RunReport
from testkit import save_distribution


def write_plan(path, **overrides):
    plan = ExperimentPlan(
        algorithms=("dpam",),
        n_grid=(256,),
        eps_grid=(1.0,),
        delta=1e-6,
        repetitions=2,
        k=8,
        dist_kind="dirichlet(1.0)",
        workload_kind="random_sign",
        workload_m=4,
        seed=7,
        **overrides,
    )
    path.write_text(json.dumps(plan.to_dict()))
    return plan


@pytest.fixture
def toy_files(tmp_path):
    w = symmetrize(new_workload([[1.0, -1.0], [0.5, 0.25]]))
    wpath = tmp_path / "workload.json"
    save_workload(w, str(wpath))
    data = new_dataset([0] * 60 + [1] * 40)
    dpath = tmp_path / "data.txt"
    save_dataset(data, 2, str(dpath))
    tpath = tmp_path / "true.json"
    save_distribution(new_simplex([0.55, 0.45]), str(tpath))
    return tmp_path, wpath, dpath, tpath


class TestFileFormats:
    def test_workload_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        w = symmetrize(new_workload(rng.uniform(-1, 1, size=(3, 4))))
        path = tmp_path / "w.json"
        save_workload(w, str(path))
        again = load_workload(str(path))
        assert np.array_equal(w.queries, again.queries)
        assert again.symmetric == w.symmetric

    def test_saved_workload_holds_only_k_and_queries(self, tmp_path):
        path = tmp_path / "w.json"
        save_workload(symmetrize(new_workload([[1.0, 0.5]])), str(path))
        assert set(json.loads(path.read_text())) == {"k", "queries"}

    def test_workload_range_violation_names_cell(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"k": 2, "symmetric": False, "queries": [[0.5, 1.5]]}))
        with pytest.raises(ValidationError, match="row 0, column 1"):
            load_workload(str(path))

    def test_dataset_round_trip(self, tmp_path):
        d = new_dataset([0, 3, 2, 2, 1])
        path = tmp_path / "d.txt"
        save_dataset(d, 4, str(path))
        again, k = load_dataset(str(path))
        assert k == 4
        assert np.array_equal(d.points, again.points)

    def test_dataset_bad_index_names_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("k=3\n0\n1\n7\n")
        with pytest.raises(ValidationError, match=r"line 4: index 7 outside \[0, 3\)"):
            load_dataset(str(path))

    def test_dataset_missing_header(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0\n1\n")
        with pytest.raises(ValidationError, match="line 1 must be a 'k=<int>' header"):
            load_dataset(str(path))

    @pytest.mark.parametrize("text, message", [
        ("k3\n0\n", "line 1 must be a 'k=<int>' header"),
        ("", "line 1 must be a 'k=<int>' header"),
        ("k=three\n0\n", "line 1: cannot parse universe size"),
        ("k=" + "9" * 5000 + "\n0\n", "line 1: cannot parse universe size"),
        ("k=3\n0\nabc\n", "line 3: not an integer index: 'abc'"),
        ("k=3\n2.5\n", "line 2: not an integer index: '2.5'"),
        ("k=5\n0\n3 4\n", "line 3: not an integer index: '3 4'"),
        ("k=5\n1_0\n", "line 2: index 10 outside [0, 5)"),
        ("k=3\n0\n1\n3\n", "line 4: index 3 outside [0, 3)"),
        ("k=3\n0\n-1\n", "line 3: index -1 outside [0, 3)"),
        ("k=3\n", "dataset has no points"),
        ("k=3\n\n\n", "dataset has no points"),
        ("k=3\r\n\r\n", "dataset has no points"),
    ])
    def test_dataset_rejections_keep_their_message(self, tmp_path, text, message):
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ValidationError) as exc:
            load_dataset(str(path))
        assert str(exc.value) == f"{path}: {message}"

    def test_dataset_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "d.txt"
        for text in ("k=4\n\n3\n\n0\n2\n\n", "k=4\r\n3\r\n0\r\n\r\n2", "k=4\n 3\n0 \n2\n"):
            path.write_bytes(text.encode())
            data, k = load_dataset(str(path))
            assert k == 4 and data.points.tolist() == [3, 0, 2]


class TestSubcommands:
    def test_gen_workload_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        args = ["gen-workload", "--k", "4", "--m", "3", "--kind", "random_sign", "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        w = load_workload(str(out1))
        assert w.symmetric and w.k == 4

    def test_gen_data_kind_and_dist(self, tmp_path, toy_files):
        _, _, _, tpath = toy_files
        out = tmp_path / "data1.txt"
        assert main(
            ["gen-data", "--kind", "dirichlet(1.0)", "--k", "4", "--n", "50",
             "--seed", "3", "--out", str(out)]
        ) == 0
        _, k = load_dataset(str(out))
        assert k == 4
        out2 = tmp_path / "data2.txt"
        assert main(
            ["gen-data", "--dist", str(tpath), "--n", "30", "--seed", "3", "--out", str(out2)]
        ) == 0
        data, k2 = load_dataset(str(out2))
        assert k2 == 2 and data.n == 30

    def test_gen_data_needs_exactly_one_source(self, tmp_path, toy_files):
        _, _, _, tpath = toy_files
        out = tmp_path / "x.txt"
        assert main(["gen-data", "--n", "5", "--seed", "1", "--out", str(out)]) == 2
        assert (
            main(
                ["gen-data", "--dist", str(tpath), "--kind", "uniform", "--k", "2",
                 "--n", "5", "--seed", "1", "--out", str(out)]
            )
            == 2
        )

    def test_gen_data_distribution_k_not_integer_exit_2(self, tmp_path, capsys):
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps({"k": None, "values": [0.5, 0.5]}))
        out = tmp_path / "x.txt"
        assert main(
            ["gen-data", "--dist", str(dist), "--n", "5", "--seed", "1", "--out", str(out)]
        ) == 2
        assert f"{dist}: field 'k' is not an integer: None" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"k": 2.5, "values": [0.5, 0.5]}, "field 'k' is not an integer: 2.5"),
            ({"k": True, "values": [1.0]}, "field 'k' is not an integer: True"),
            ({"values": [True, False]}, "distribution value True at index 0 is not a number"),
            ({"values": [0.5, "0.5"]}, "distribution value '0.5' at index 1 is not a number"),
            ({"values": {"0": 1.0}}, "distribution values must be a list of numbers"),
            # float() of this integer overflows
            ({"values": [10**400, 0.5]}, "distribution value at index 0 is too large for a float"),
        ],
        ids=["k-fractional", "k-bool", "value-bool", "value-string", "values-object",
             "value-huge"],
    )
    def test_gen_data_distribution_of_wrong_kind_exit_2(self, tmp_path, capsys, content, message):
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps(content))
        out = tmp_path / "x.txt"
        assert main(
            ["gen-data", "--dist", str(dist), "--n", "5", "--seed", "1", "--out", str(out)]
        ) == 2
        assert f"{dist}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_run_auto_alpha_and_reproducibility(self, toy_files, capsys):
        tmp_path, wpath, dpath, tpath = toy_files
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "run", "--algo", "dpfw", "--data", str(dpath), "--workload", str(wpath),
            "--eps", "1.0", "--delta", "1e-6", "--seed", "11", "--true-dist", str(tpath),
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = load_report(str(out1))
        w = load_workload(str(wpath))
        assert report.alpha == pytest.approx(
            optimal_alpha(PrivacyBudget(1.0, 1e-6), w.m, w.k, 100)
        )
        assert report.population_max_error is not None
        assert report.timings == {}  # dropped from canonical files

    def test_run_no_noise_marks_report(self, toy_files):
        tmp_path, wpath, dpath, _ = toy_files
        out = tmp_path / "r.json"
        assert main(
            ["run", "--algo", "dpam", "--data", str(dpath), "--workload", str(wpath),
             "--eps", "1.0", "--delta", "1e-6", "--alpha", "0.5", "--seed", "2",
             "--no-noise", "--out", str(out)]
        ) == 0
        report = load_report(str(out))
        assert report.no_noise
        assert any("NON-PRIVATE" in w for w in report.warnings)

    def test_run_malformed_workload_exit_2(self, toy_files, capsys):
        tmp_path, _, dpath, _ = toy_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"k": 2, "symmetric": False, "queries": [[1.5, 0.0]]}))
        out = tmp_path / "r.json"
        code = main(
            ["run", "--algo", "dpfw", "--data", str(dpath), "--workload", str(bad),
             "--eps", "1.0", "--delta", "1e-6", "--seed", "2", "--out", str(out)]
        )
        assert code == 2
        assert "row 0, column 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (5, "expected a JSON object at the top level"),
            ({"k": 2, "queries": 5}, "workload queries must be a list of rows"),
            ({"k": 2, "queries": [5]}, "row 0 is not a list"),
            ({"k": None, "queries": [[1.0, 0.0]]}, "field 'k' is not an integer: None"),
            ({"k": 2.9, "queries": [[1.0, 0.0]]}, "field 'k' is not an integer: 2.9"),
            ({"k": True, "queries": [[1.0]]}, "field 'k' is not an integer: True"),
            ({"k": 2, "queries": [[1.0, 10**400]]},
             "query entry at row 0, column 1 is not in [-1, 1]"),
        ],
        ids=["top-level", "queries", "row", "k", "k-fractional", "k-bool", "entry-huge"],
    )
    def test_run_workload_of_wrong_shape_exit_2(self, toy_files, capsys, content, message):
        tmp_path, _, dpath, _ = toy_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        code = main(
            ["run", "--algo", "dpfw", "--data", str(dpath), "--workload", str(bad),
             "--eps", "1.0", "--delta", "1e-6", "--seed", "2",
             "--out", str(tmp_path / "r.json")]
        )
        err = capsys.readouterr().err
        assert code == 2
        # the message names the place, never echoes a long entry
        assert f"{bad}: {message}" in err and len(err) < 300

    def test_run_integer_too_long_to_read_names_file(self, toy_files, capsys):
        # json.load refuses an integer of more than 4,300 digits with a ValueError
        tmp_path, _, dpath, _ = toy_files
        bad = tmp_path / "long.json"
        bad.write_text('{"k": 2, "queries": [[1, ' + "9" * 5000 + "]]}")
        code = main(
            ["run", "--algo", "dpfw", "--data", str(dpath), "--workload", str(bad),
             "--eps", "1.0", "--delta", "1e-6", "--seed", "2",
             "--out", str(tmp_path / "r.json")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {bad}: unreadable JSON: Exceeds the limit (4300 digits)" in err
        assert len(err) < 300

    def test_run_with_timings(self, toy_files):
        tmp_path, wpath, dpath, _ = toy_files
        args = ["run", "--algo", "dpam", "--data", str(dpath), "--workload", str(wpath),
                "--eps", "1.0", "--delta", "1e-6", "--seed", "3"]
        timed, plain = tmp_path / "timed.json", tmp_path / "plain.json"
        assert main(args + ["--with-timings", "--out", str(timed)]) == 0
        assert main(args + ["--out", str(plain)]) == 0
        timings = json.loads(timed.read_text())["timings"]
        assert timings["total_s"] >= timings["solve_s"] >= 0.0
        assert "timings" not in json.loads(plain.read_text())

    def test_run_degenerate_workload_exit_3(self, toy_files):
        tmp_path, _, dpath, _ = toy_files
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"k": 2, "symmetric": True, "queries": [[0.0, 0.0]]}))
        out = tmp_path / "r.json"
        code = main(
            ["run", "--algo", "dpfw", "--data", str(dpath), "--workload", str(zero),
             "--eps", "1.0", "--delta", "1e-6", "--alpha", "0.5", "--seed", "2",
             "--out", str(out)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "algo, alpha",
        [("dpam", "1e-310"), ("dpam", "5e-324"), ("dpfw", "1e-310"), ("dpfw", "5e-324")],
    )
    def test_run_subnormal_alpha_exit_3(self, tmp_path, capsys, algo, alpha):
        w, d, out = (str(tmp_path / name) for name in ("w.json", "d.txt", "r.json"))
        assert main(["gen-workload", "--k", "16", "--m", "16", "--kind", "random_sign",
                     "--seed", "1", "--out", w]) == 0
        assert main(["gen-data", "--kind", "uniform", "--k", "16", "--n", "2000",
                     "--seed", "2", "--out", d]) == 0
        code = main(
            ["run", "--algo", algo, "--data", d, "--workload", w, "--eps", "1.0",
             "--delta", "1e-6", "--alpha", alpha, "--seed", "3", "--out", out]
        )
        assert code == 3
        assert "degenerate schedule" in capsys.readouterr().err

    def test_run_mismatched_universe_exit_2(self, toy_files):
        tmp_path, wpath, _, _ = toy_files
        d3 = tmp_path / "d3.txt"
        d3.write_text("k=3\n0\n1\n2\n")
        out = tmp_path / "r.json"
        code = main(
            ["run", "--algo", "dpfw", "--data", str(d3), "--workload", str(wpath),
             "--eps", "1.0", "--delta", "1e-6", "--seed", "2", "--out", str(out)]
        )
        assert code == 2

    def test_usage_error_exit_2(self, capsys):
        assert main(["run", "--algo", "nope"]) == 2
        assert main(["frobnicate"]) == 2

    def test_bad_alpha_flag_exit_2(self, toy_files, capsys):
        tmp_path, wpath, dpath, _ = toy_files
        code = main(
            ["run", "--algo", "dpfw", "--data", str(dpath), "--workload", str(wpath),
             "--eps", "1.0", "--delta", "1e-6", "--alpha", "banana", "--seed", "1",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_bench_and_workers_flag(self, tmp_path):
        ppath = tmp_path / "plan.json"
        write_plan(ppath)
        out1, out2 = tmp_path / "res1.json", tmp_path / "res2.json"
        assert main(["bench", "--plan", str(ppath), "--out", str(out1)]) == 0
        assert main(["bench", "--plan", str(ppath), "--out", str(out2), "--workers", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        result = json.loads(out1.read_text())
        assert len(result["cells"]) == 1
        assert "runtimes" not in result

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("delta", 2.0, "delta must lie in (0, 1)"),
            ("delta", 0.0, "delta must lie in (0, 1)"),
            ("alpha", -0.5, "alpha must be finite and positive, got -0.5"),
            ("alpha", 0.0, "alpha must be finite and positive, got 0.0"),
            ("workers", 0, "need workers >= 1, got 0"),
            ("seed", -1, "need seed >= 0, got -1"),
            ("k", 16.7, "ExperimentPlan field 'k': expected int, got 16.7"),
            ("delta", 10**400, "ExperimentPlan field 'delta': int too large to convert to float"),
        ],
        ids=["delta-2", "delta-0", "alpha-negative", "alpha-0", "workers-0", "seed-negative",
             "k-fractional", "delta-huge"],
    )
    def test_bench_invalid_plan_exit_2(self, tmp_path, capsys, field, value, message):
        ppath = tmp_path / "plan.json"
        write_plan(ppath)
        plan = json.loads(ppath.read_text())
        plan[field] = value
        ppath.write_text(json.dumps(plan))
        out = tmp_path / "res.json"
        assert main(["bench", "--plan", str(ppath), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bench_workers_below_1_exit_2(self, tmp_path, capsys):
        ppath = tmp_path / "plan.json"
        write_plan(ppath)
        out = tmp_path / "res.json"
        assert main(["bench", "--plan", str(ppath), "--out", str(out), "--workers", "0"]) == 2
        assert "need workers >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_from_report(self, toy_files):
        tmp_path, wpath, dpath, _ = toy_files
        rpath = tmp_path / "r.json"
        assert main(
            ["run", "--algo", "dpam", "--data", str(dpath), "--workload", str(wpath),
             "--eps", "2.0", "--delta", "1e-6", "--seed", "4", "--out", str(rpath)]
        ) == 0
        s1, s2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        args = ["sample", "--report", str(rpath), "--count", "200", "--seed", "6"]
        assert main(args + ["--out", str(s1)]) == 0
        assert main(args + ["--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        data, k = load_dataset(str(s1))
        assert k == 2 and data.n == 200

    @pytest.mark.parametrize(
        "args, content",
        [
            (["sample", "--report", "{}", "--count", "10", "--seed", "6"], "5"),
            (["bench", "--plan", "{}"], "7"),
        ],
        ids=["sample", "bench"],
    )
    def test_non_object_json_exit_2(self, tmp_path, capsys, args, content):
        path = tmp_path / "in.json"
        path.write_text(content)
        out = tmp_path / "out"
        assert main([a.format(path) for a in args] + ["--out", str(out)]) == 2
        assert f"{path}: expected a JSON object at the top level" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_from_report_with_wrong_k_exit_2(self, toy_files, capsys):
        # such a report used to write a dataset over the p_priv universe
        tmp_path, wpath, dpath, _ = toy_files
        rpath = tmp_path / "r.json"
        assert main(
            ["run", "--algo", "dpam", "--data", str(dpath), "--workload", str(wpath),
             "--eps", "2.0", "--delta", "1e-6", "--seed", "4", "--out", str(rpath)]
        ) == 0
        d = json.loads(rpath.read_text())
        d["k"] = 8
        rpath.write_text(json.dumps(d))
        out = tmp_path / "s.txt"
        assert main(["sample", "--report", str(rpath), "--count", "10", "--seed", "6",
                     "--out", str(out)]) == 2
        assert "RunReport has k=8 but 2 p_priv values" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_from_report_with_null_field_exit_2(self, toy_files, capsys):
        tmp_path, wpath, dpath, _ = toy_files
        rpath = tmp_path / "r.json"
        assert main(
            ["run", "--algo", "dpam", "--data", str(dpath), "--workload", str(wpath),
             "--eps", "2.0", "--delta", "1e-6", "--seed", "4", "--out", str(rpath)]
        ) == 0
        d = json.loads(rpath.read_text())
        d["k"] = None
        rpath.write_text(json.dumps(d))
        out = tmp_path / "s.txt"
        assert main(["sample", "--report", str(rpath), "--count", "10", "--seed", "6",
                     "--out", str(out)]) == 2
        assert "RunReport field 'k': null" in capsys.readouterr().err
        assert not out.exists()


class TestReportRoundTrip:
    def test_lossless_with_timings(self, toy_files):
        from dpqr.dpfw import release_dpfw
        from dpqr.mechanisms import NoiseStream
        from dpqr.report import RunReport

        tmp_path, wpath, dpath, _ = toy_files
        w = load_workload(str(wpath))
        data, _ = load_dataset(str(dpath))
        report = release_dpfw(data, w, PrivacyBudget(1.0, 1e-6), NoiseStream(1, "rt"))
        d = report.to_dict(include_timings=True)
        again = RunReport.from_dict(json.loads(json.dumps(d)))
        assert again.to_dict(include_timings=True) == d
        assert new_simplex(again.p_priv).k == w.k

    def test_arrays_in_memory_lists_in_files(self, toy_files):
        d = self._written_report(toy_files)
        report = RunReport.from_dict(d)
        for name in ("p_priv", "per_query_answers"):
            value = getattr(report, name)
            assert isinstance(d[name], list) and value.dtype == np.float64
            assert value.tolist() == d[name]

    def test_missing_required_field(self, toy_files):
        d = self._written_report(toy_files)
        del d["empirical_max_error"]
        with pytest.raises(ValidationError, match="'empirical_max_error'"):
            RunReport.from_dict(d)

    def test_non_numeric_number(self, toy_files):
        d = self._written_report(toy_files)
        d["epsilon"] = "abc"
        with pytest.raises(ValueError):
            RunReport.from_dict(d)

    def test_invalid_p_priv(self, toy_files):
        d = self._written_report(toy_files)
        d["p_priv"] = [0.9, 0.9]
        with pytest.raises(ValidationError):
            RunReport.from_dict(d)

    def test_null_in_required_field(self, toy_files):
        for key in ("k", "epsilon", "schedule", "p_priv", "warnings"):
            d = self._written_report(toy_files)
            d[key] = None
            with pytest.raises(ValidationError, match=f"RunReport field '{key}': null"):
                RunReport.from_dict(d)

    def test_wrong_kind_of_value(self, toy_files):
        for key, value in (
            ("k", [2]), ("warnings", 5), ("alpha", {"x": 1}),
            # values of the wrong JSON kind used to be cast: "false" to True,
            # 2.7 to 2, true to 1, 7 to "7", a list of pairs to a dict
            ("no_noise", "false"), ("no_noise", 0), ("k", 2.7), ("k", True), ("k", "2"),
            ("epsilon", True), ("epsilon", "1.0"), ("algorithm", 7), ("schedule", [["T", 3]]),
            # an integer float() cannot hold used to escape as OverflowError
            ("epsilon", 10**400),
        ):
            d = self._written_report(toy_files)
            d[key] = value
            with pytest.raises(ValidationError, match=f"RunReport field '{key}': "):
                RunReport.from_dict(d)

    def test_k_must_match_p_priv(self, toy_files):
        d = self._written_report(toy_files)
        d["k"] = 8
        with pytest.raises(ValidationError, match="k=8 but 2 p_priv values"):
            RunReport.from_dict(d)

    def test_null_in_optional_field(self, toy_files):
        d = self._written_report(toy_files)
        for key in ("width", "regime_ok", "population_max_error", "diagnostics"):
            d[key] = None
        report = RunReport.from_dict(d)
        assert report.width is None and report.regime_ok is None

    def test_optional_fields_default(self, toy_files):
        d = self._written_report(toy_files)
        for key in ("no_noise", "width", "regime_ok", "population_max_error",
                    "diagnostics", "warnings"):
            del d[key]
        report = RunReport.from_dict(d)
        assert report.width is None and report.warnings == [] and report.timings == {}

    @staticmethod
    def _written_report(toy_files) -> dict:
        tmp_path, wpath, dpath, _ = toy_files
        rpath = tmp_path / "r.json"
        assert main(
            ["run", "--algo", "dpam", "--data", str(dpath), "--workload", str(wpath),
             "--eps", "1.0", "--delta", "1e-6", "--seed", "3", "--out", str(rpath)]
        ) == 0
        return json.loads(rpath.read_text())

    @staticmethod
    def _run_and_replay(toy_files, *flags):
        from dpqr.dpam import release_dpam
        from dpqr.mechanisms import AMSchedule, NoiseStream

        tmp_path, wpath, dpath, _ = toy_files
        rpath = tmp_path / "r.json"
        assert main(
            ["run", "--algo", "dpam", "--data", str(dpath), "--workload", str(wpath),
             "--eps", "1.0", "--delta", "1e-6", "--seed", "21", "--out", str(rpath), *flags]
        ) == 0
        report = load_report(str(rpath))
        sched = AMSchedule(
            T=int(report.schedule["T"]),
            sigma=report.schedule["sigma"],
            eta_offset=report.schedule["eta_offset"],
            capped=bool(report.schedule["capped"]),
        )
        w = load_workload(str(wpath))
        data, _ = load_dataset(str(dpath))
        replay = release_dpam(
            data, w, PrivacyBudget(report.epsilon, report.delta),
            NoiseStream(report.seed, "run"), alpha=report.alpha, schedule=sched,
        )
        return report, replay

    def test_replay_from_report_and_inputs(self, toy_files):
        # a written report carries the exact schedule, alpha, and seed, so
        # the run reproduces from it plus the input files alone
        report, replay = self._run_and_replay(toy_files)
        assert np.array_equal(replay.p_priv, report.p_priv)
        assert replay.empirical_max_error == report.empirical_max_error

    def test_replay_no_noise_report(self, toy_files):
        # a --no-noise report records sigma = 0, so its replay is the same
        # non-private run and is flagged as one
        report, replay = self._run_and_replay(toy_files, "--no-noise")
        assert report.schedule["sigma"] == 0.0
        assert np.array_equal(replay.p_priv, report.p_priv)
        assert replay.no_noise and replay.warnings == report.warnings
