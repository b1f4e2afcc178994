import csv
import json
import re

import pytest

from shallowmin.cli import main


def run(args):
    return main([str(a) for a in args])


class TestGen:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "ds.json"
        assert run(["gen", "--m", 3, "--q", 2, "--sizes", "4,5", "--seed", 3,
                    "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["m"] == 3 and doc["q"] == 2
        assert [len(c) for c in doc["classes"]] == [4, 5]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--m", 4, "--q", 3, "--seed", 11, "--out", a])
        run(["gen", "--m", 4, "--q", 3, "--seed", 11, "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestTrainEval:
    def test_train_then_eval(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        params_path = tmp_path / "params.json"
        report_path = tmp_path / "report.json"
        run(["gen", "--m", 3, "--q", 3, "--noise", "0.05", "--seed", 2, "--out", ds_path])
        assert run(["train", "--data", ds_path, "--variant", "exact",
                    "--out", params_path]) == 0
        doc = json.loads(params_path.read_text())
        assert set(doc) == {"w1", "b1", "w2", "b2", "provenance"}
        prov = doc["provenance"]
        assert prov["variant"] == "exact"
        assert {"beta1", "delta", "delta_p", "rho", "bound_l2",
                "bound_deltap", "exact_min_weighted"} <= set(prov)
        assert run(["eval", "--data", ds_path, "--params", params_path,
                    "--out", report_path]) == 0
        rep = json.loads(report_path.read_text())
        # the exact trainer achieves the exact minimum
        assert rep["cost_weighted"] == pytest.approx(rep["exact_min_weighted"], rel=1e-9)

    @pytest.mark.parametrize("variant", ["general", "exact"])
    def test_train_stdout_matches_out_file(self, tmp_path, capsys, variant):
        ds_path = tmp_path / "ds.json"
        params_path = tmp_path / "params.json"
        run(["gen", "--m", 3, "--q", 3, "--seed", 4, "--out", ds_path])
        assert run(["train", "--data", ds_path, "--variant", variant, "--out", params_path]) == 0
        capsys.readouterr()
        assert run(["train", "--data", ds_path, "--variant", variant]) == 0
        assert capsys.readouterr().out == params_path.read_text()

    def test_eval_deterministic_bytes(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        params_path = tmp_path / "params.json"
        run(["gen", "--m", 4, "--q", 2, "--seed", 5, "--out", ds_path])
        run(["train", "--data", ds_path, "--out", params_path])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(["eval", "--data", ds_path, "--params", params_path, "--out", r1])
        run(["eval", "--data", ds_path, "--params", params_path, "--out", r2])
        assert r1.read_bytes() == r2.read_bytes()

    def test_general_cost_below_bound(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        params_path = tmp_path / "params.json"
        report_path = tmp_path / "rep.json"
        run(["gen", "--m", 5, "--q", 3, "--noise", "0.1", "--seed", 9, "--out", ds_path])
        run(["train", "--data", ds_path, "--variant", "general", "--out", params_path])
        run(["eval", "--data", ds_path, "--params", params_path, "--out", report_path])
        rep = json.loads(report_path.read_text())
        assert rep["cost_l2"] <= rep["bound_l2"] + 1e-10 * (1 + rep["bound_l2"])
        assert rep["bound_l2"] <= rep["bound_deltap"] + 1e-12


class TestVerify:
    def test_bounds_suite_passes(self, capsys):
        assert run(["verify", "bounds", "--seed", 7, "--m", 4, "--q", 3]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_exact_min_requires_square(self, capsys):
        code = run(["verify", "exact-min", "--seed", 1, "--m", 4, "--q", 3])
        assert code == 3
        assert "requires M = Q" in capsys.readouterr().err

    def test_exact_min_above_projector_limit(self, capsys):
        # N = 6000 > MAX_PROJECTOR_N: the projector route is matrix-free
        assert run(["verify", "exact-min", "--m", 3, "--q", 3,
                    "--sizes", "2000,2000,2000"]) == 0
        out = capsys.readouterr().out
        assert "7/7 checks passed" in out
        assert "[PASS] exact.projector-route" in out

    def test_invariance_above_projector_limit(self, capsys):
        # N = 6000 > MAX_PROJECTOR_N: the data projector is compared on probes
        assert run(["verify", "invariance", "--m", 3, "--q", 3,
                    "--sizes", "2000,2000,2000"]) == 0
        out = capsys.readouterr().out
        assert "4/4 checks passed" in out
        assert "[PASS] invariance.gl-data-projector" in out

    def test_non_numeric_dataset_csv_exit_3(self, tmp_path, capsys):
        path = tmp_path / "ds.csv"
        path.write_text("1.0,0.0,0\n0.0,1.0,1\n0.5,abc,1\n")
        assert run(["train", "--data", path]) == 3
        assert "DimensionError: dataset row 2 (line 3)" in capsys.readouterr().err

    def test_all_suite_summary(self, capsys):
        assert run(["verify", "all", "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "[FAIL]" not in out


class TestClassify:
    def test_csv_output(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        params_path = tmp_path / "params.json"
        inputs = tmp_path / "inputs.csv"
        out = tmp_path / "scored.csv"
        run(["gen", "--m", 3, "--q", 2, "--noise", "0.02", "--seed", 4, "--out", ds_path])
        run(["train", "--data", ds_path, "--variant", "general", "--out", params_path])
        ds_doc = json.loads(ds_path.read_text())
        rows = [ds_doc["classes"][0][0], ds_doc["classes"][1][0]]
        with open(inputs, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs, "--out", out]) == 0
        with open(out) as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["index", "winner", "score_0", "score_1"]
        assert [r[1] for r in got[1:]] == ["0", "1"]
        assert len(got) == 3


    @pytest.fixture
    def trained_files(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        params_path = tmp_path / "params.json"
        run(["gen", "--m", 3, "--q", 2, "--noise", "0.02", "--seed", 4, "--out", ds_path])
        run(["train", "--data", ds_path, "--variant", "general", "--out", params_path])
        return ds_path, params_path

    def test_class_means_computed_once(self, tmp_path, trained_files, monkeypatch):
        from shallowmin import dataset
        ds_path, params_path = trained_files
        calls = []
        original = dataset.block_means

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(dataset, "block_means", counting)
        inputs = tmp_path / "inputs.csv"
        with open(inputs, "w", newline="") as fh:
            csv.writer(fh).writerows([[0.1 * i, 1.0, -0.5] for i in range(50)])
        out = tmp_path / "scored.csv"
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 51
        assert len(calls) == 1

    @pytest.mark.parametrize("text", [
        "0.1,0.2,0.3\n0.1,0.2\n",         # wrong width
        "0.1,0.2,0.3\n0.1,0.2,0.3,0.4\n",  # ragged
        "0.1,0.2,0.3\n0.1,nan,0.3\n",      # non-finite
        "0.1,0.2,0.3\n0.1,abc,0.3\n",      # non-numeric
    ], ids=["wrong-width", "ragged", "nan", "non-numeric"])
    def test_bad_rows_exit_3_without_output(self, tmp_path, trained_files, capsys, text):
        ds_path, params_path = trained_files
        inputs = tmp_path / "inputs.csv"
        inputs.write_text(text)
        out = tmp_path / "scored.csv"
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs, "--out", out]) == 3
        assert not out.exists()
        capsys.readouterr()
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"DimensionError: input (row|column) 1\b", captured.err)

    def test_empty_inputs_write_header_only(self, tmp_path, trained_files):
        ds_path, params_path = trained_files
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("")
        out = tmp_path / "scored.csv"
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs, "--out", out]) == 0
        assert out.read_text().splitlines() == ["index,winner,score_0,score_1"]


class TestTruncationSweep:
    def test_jsonl_output(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        grid_path = tmp_path / "grid.json"
        out = tmp_path / "sweep.jsonl"
        run(["gen", "--m", 2, "--q", 2, "--noise", "0.05", "--seed", 6, "--out", ds_path])
        grid = [
            {"w1": [[1.0, 0.0], [0.0, 1.0]], "b1": [5.0, 5.0]},
            {"w1": [[1.0, 0.0], [0.0, 1.0]], "b1": [-0.2, 0.1]},
            {"w1": [[1.0, 1.0], [1.0, 1.0]], "b1": [0.0, 0.0]},
        ]
        grid_path.write_text(json.dumps(grid))
        assert run(["truncation-sweep", "--data", ds_path, "--grid", grid_path,
                    "--out", out]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 3
        assert lines[0]["in_fixed_point_region"] is True
        assert "error" in lines[2]  # singular w1 recorded, sweep continued

    def test_dependent_means_recorded_per_point(self, tmp_path):
        ds_path = tmp_path / "ds.csv"
        grid_path = tmp_path / "grid.json"
        out = tmp_path / "sweep.jsonl"
        # third class mean is the sum of the first two
        ds_path.write_text("1,0,0.1,0\n1,0,-0.1,0\n0,1,0.1,1\n0,1,-0.1,1\n"
                           "1,1,0.1,2\n1,1,-0.1,2\n")
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        grid_path.write_text(json.dumps([{"w1": eye, "b1": [5.0] * 3},
                                         {"w1": eye, "b1": [-10.0] * 3}]))
        assert run(["truncation-sweep", "--data", ds_path, "--grid", grid_path,
                    "--out", out]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["error"].startswith("SingularMeans")
        assert lines[1]["min_cost_weighted"] is None


class TestCompare:
    def test_runs_and_writes_trace(self, tmp_path, capsys):
        # fixed dataset with identity means; a randomly generated one can start
        # GD with every hidden unit dead (all-negative inputs, zero bias init)
        ds_path = tmp_path / "ds.json"
        trace = tmp_path / "trace.csv"
        out = tmp_path / "cmp.json"
        ds_doc = {"m": 2, "q": 2,
                  "classes": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]}
        ds_path.write_text(json.dumps(ds_doc))
        assert run(["compare", "--data", ds_path, "--steps", 2000,
                    "--trace-out", trace, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["gd"]["cost_l2"] < 1e-2
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "cost_l2"]
        assert len(rows) > 3


    def test_eval_csv_format(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        params_path = tmp_path / "params.json"
        out = tmp_path / "report.csv"
        run(["gen", "--m", 3, "--q", 3, "--seed", 2, "--out", ds_path])
        run(["train", "--data", ds_path, "--variant", "exact", "--out", params_path])
        assert run(["eval", "--data", ds_path, "--params", params_path,
                    "--format", "csv", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "cost_l2" and len(rows) == 2
        assert float(rows[1][0]) >= 0.0

    def test_compare_holdout_accuracy(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        out = tmp_path / "cmp.json"
        ds_doc = {"m": 2, "q": 2, "classes": [
            [[1.0, 0.0], [1.05, 0.0], [0.95, 0.0], [1.0, 0.05]],
            [[0.0, 1.0], [0.0, 1.05], [0.0, 0.95], [0.05, 1.0]],
        ]}
        ds_path.write_text(json.dumps(ds_doc))
        assert run(["compare", "--data", ds_path, "--steps", 500,
                    "--holdout", "0.25", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["constructive"]["holdout_accuracy"] == 1.0
        assert 0.0 <= doc["gd"]["holdout_accuracy"] <= 1.0


class TestReport:
    def test_empty_inputs(self, capsys):
        assert run(["report"]) == 0

    def test_merges_artifacts(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.json"
        params_path = tmp_path / "params.json"
        report_path = tmp_path / "rep.json"
        merged = tmp_path / "merged.json"
        run(["gen", "--m", 3, "--q", 3, "--noise", "0.05", "--seed", 2, "--out", ds_path])
        run(["train", "--data", ds_path, "--variant", "exact", "--out", params_path])
        run(["eval", "--data", ds_path, "--params", params_path, "--out", report_path])
        assert run(["report", "--inputs", params_path, report_path,
                    "--out", merged]) == 0
        doc = json.loads(merged.read_text())
        kinds = [a["kind"] for a in doc["artifacts"]]
        assert kinds == ["train", "eval"]
        out = capsys.readouterr().out
        assert "train" in out and "eval" in out

    def test_missing_artifact_exit_code(self, tmp_path, capsys):
        assert run(["report", "--inputs", tmp_path / "nope.json"]) == 2
        assert "no such artifact" in capsys.readouterr().err

    def test_truncation_lines_in_report(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        grid_path = tmp_path / "grid.json"
        sweep = tmp_path / "sweep.jsonl"
        merged = tmp_path / "merged.json"
        run(["gen", "--m", 2, "--q", 2, "--noise", "0.05", "--seed", 6, "--out", ds_path])
        grid_path.write_text(json.dumps(
            [{"w1": [[1.0, 0.0], [0.0, 1.0]], "b1": [5.0, 5.0]}]))
        run(["truncation-sweep", "--data", ds_path, "--grid", grid_path, "--out", sweep])
        assert run(["report", "--inputs", sweep, "--out", merged]) == 0
        doc = json.loads(merged.read_text())
        assert doc["artifacts"][0]["kind"] == "truncation"
        assert doc["artifacts"][0]["in_fixed_point_region"] is True


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2
