import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hashlib

import numpy as np
import pytest

from shallowmin.classify import score_batch
from shallowmin.cli import main
from shallowmin.network import load_params


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

    def test_stdout_equals_out_file(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        args = ["gen", "--m", 4, "--q", 3, "--sizes", "5,2500,3", "--seed", 11]
        assert run(args + ["--out", out]) == 0
        capsys.readouterr()
        assert run(args) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("args, code", [
        (["--m", 2, "--q", 3], 3),            # DimensionError: q > m
        (["--m", 3, "--q", 3, "--noise", "nan"], 2),
        (["--m", 0, "--q", 0], 3),            # DimensionError: no class
    ])
    def test_failed_gen_leaves_no_file(self, tmp_path, capsys, args, code):
        out = tmp_path / "ds.json"
        assert run(["gen", *args, "--out", out]) == code
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [["gen"], ["train"], ["train", "--variant", "exact"],
                                         ["verify", "all"], ["verify", "exact-min"]])
    def test_zero_classes_exit_3(self, capsys, command):
        assert run([*command, "--m", 0, "--q", 0]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: DimensionError: need at least one class, got Q=0\n"


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

    @pytest.mark.parametrize("source", ["json", "csv", "synthesized"])
    def test_provenance_records_targets_and_data_digest(self, tmp_path, capsys, source):
        data = {"json": tmp_path / "ds.json", "csv": tmp_path / "ds.csv"}.get(source)
        if source == "json":
            data.write_text(json.dumps({"m": 2, "q": 2, "y": [[2.0, 0.0], [1.0, 1.0]],
                                        "classes": [[[1.0, 0.1], [1.1, 0.0]],
                                                    [[0.0, 1.0], [0.1, 0.9]]]}))
        elif source == "csv":
            data.write_text("1.0,0.1,0\n0.0,1.0,1\n1.1,0.0,0\n0.1,0.9,1\n")
        args = ["train", *(["--data", data] if data else ["--m", 3, "--q", 2, "--seed", 4])]
        params_path = tmp_path / "params.json"
        assert run(args + ["--out", params_path]) == 0
        capsys.readouterr()
        assert run(args) == 0
        assert capsys.readouterr().out == params_path.read_text()
        prov = json.loads(params_path.read_text())["provenance"]
        assert list(prov)[-2:] == ["y", "data_sha256"]
        if source == "json":
            assert prov["y"] == [[2.0, 0.0], [1.0, 1.0]]
            assert prov["data_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
        else:
            assert prov["y"] == np.eye(2).tolist()
            assert prov["data_sha256"] is None

    def test_only_train_and_classify_take_digests(self, tmp_path, monkeypatch):
        ds_path, params_path = tmp_path / "ds.json", tmp_path / "params.json"
        run(["gen", "--m", 3, "--q", 2, "--seed", 4, "--out", ds_path])
        calls = []
        original = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(1) or original(*a))
        assert run(["train", "--data", ds_path, "--out", params_path]) == 0
        assert len(calls) == 1
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("0.1,0.2,0.3\n")
        for args in (["eval", "--data", ds_path, "--params", params_path],
                     ["verify", "bounds", "--data", ds_path],
                     ["compare", "--data", ds_path, "--steps", 10, "--holdout", 0.25],
                     ["gen", "--m", 3, "--q", 2, "--seed", 4]):
            assert run(args) == 0
        assert len(calls) == 1
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("command", [
        ["train", "--variant", "exact"],
        ["train", "--variant", "general"],  # the provenance solves after the general fit
        ["compare", "--steps", 10],
        ["compare", "--steps", 10, "--holdout", 0.25],
    ])
    def test_one_exact_solve_per_command(self, tmp_path, capsys, exact_calls, pipeline_calls,
                                         command):
        """On M = Q data a command builds one record, whose one stats pass and
        one closed-form solve the fit, the provenance and the comparison
        read: one relative-deviations pass, one Gram, one closed form."""
        ds_path = tmp_path / "ds.json"
        run(["gen", "--m", 4, "--q", 4, "--sizes", "12,12,12,12", "--seed", 3, "--out", ds_path])
        assert run([*command, "--data", ds_path]) == 0
        assert exact_calls == {"relative_deviations": 1, "_gram": 1, "closed_form_min": 1}
        assert (pipeline_calls["compute_stats"], pipeline_calls["exact_minimum"]) == (1, 1)

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
        assert "8/8 checks passed" in out
        assert "[PASS] exact.projector-route" in out

    @pytest.mark.parametrize("args, t0", [
        (["--m", 8, "--q", 8, "--sizes", ",".join(["300"] * 8), "--seed", 2], "2^-5"),
        (["--m", 3, "--q", 3, "--noise", "1e-10", "--seed", 1], "2^-0"),
    ], ids=["lambda-max-2.8", "noise-1e-10"])
    def test_exact_min_trend_octaves_in_their_regime(self, capsys, args, t0):
        """The trend octaves start at the first t0 = 2^-k with t0^2
        lambda_max(D2) <= 0.01: on deviations large against the means
        (lambda_max(D2) = 2.79) and on tiny ones, every check passes, with
        RuntimeWarnings raised as errors."""
        assert run(["verify", "exact-min", *args]) == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out
        assert f"from t0={t0}," in out and "[PASS] exact.t-law-route" in out

    def test_invariance_above_projector_limit(self, capsys):
        # N = 6000 > MAX_PROJECTOR_N: the data projector is compared on probes
        assert run(["verify", "invariance", "--m", 3, "--q", 3,
                    "--sizes", "2000,2000,2000"]) == 0
        out = capsys.readouterr().out
        assert "4/4 checks passed" in out
        assert "[PASS] invariance.gl-data-projector" in out

    @pytest.mark.parametrize("text, row", [
        ("1.0,0.0,0\n0.0,1.0,1\n0.5,abc,1\n", "dataset row 2 (line 3)"),
        ("1.0,2.0,0\n1.5,0\n", "dataset row 1 (line 2)"),
    ], ids=["non-numeric", "ragged"])
    def test_non_numeric_dataset_csv_exit_3(self, tmp_path, capsys, text, row):
        path = tmp_path / "ds.csv"
        path.write_text(text)
        assert run(["train", "--data", path]) == 3
        assert f"DimensionError: {row}" in capsys.readouterr().err

    @pytest.mark.parametrize("m, q, per_class, counts", [
        (8, 8, 300, {"compute_stats": 4, "class_means": 24, "exact_minimum": 22,
                     "_fit_general": 2, "_fit_exact": 1}),
        (12, 6, 50, {"compute_stats": 3, "class_means": 3, "exact_minimum": 0,
                     "_fit_general": 2, "_fit_exact": 0}),
    ], ids=["square", "rectangular"])
    def test_all_reads_one_record(self, capsys, pipeline_calls, m, q, per_class, counts):
        """verify all builds one record of the given data, which every suite
        reads; the derived datasets build their own. Stats passes: 1, plus 2
        scaled copies, plus for M = Q the one rebuilt noise octave. The 20
        GL(Q) copies take only their class means and solve the closed form
        once each, as the given data do. The general fit runs once for bounds
        and metric, plus the big-margin fit; the M = Q fit once for exact-min
        and degeneracy."""
        sizes = ",".join([str(per_class)] * q)
        assert run(["verify", "all", "--m", m, "--q", q, "--sizes", sizes, "--seed", 1]) == 0
        assert pipeline_calls == counts

    def test_all_suite_summary(self, capsys):
        assert run(["verify", "all", "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "[FAIL]" not in out

    def test_all_on_rectangular_runs_general_suites(self, capsys):
        assert run(["verify", "all", "--m", 6, "--q", 3]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        checks = [line for line in lines if line.startswith("[")]
        assert checks and all(line.startswith("[PASS]") for line in checks)
        assert lines[-1] == f"{len(checks)}/{len(checks)} checks passed"
        for prefix in ("bounds.", "invariance.", "metric."):
            assert any(f"] {prefix}" in line for line in checks)
        assert captured.err == ("verify all: M=6 != Q=3, not run (M = Q only): "
                                "exact-min, degeneracy, truncation\n")

    @pytest.mark.parametrize("args", [
        ["truncation", "--data", "q1.json", "--seed", 1],
        ["all", "--m", 1, "--q", 1, "--sizes", 9, "--seed", 3],
        ["all", "--m", 1, "--q", 1],
    ], ids=["truncation-data", "all-sized", "all-default"])
    def test_q1_passes_without_a_full_truncation_check(self, tmp_path, monkeypatch, capsys,
                                                       args):
        """At Q = 1 the full truncation keeps rank 1 = Q, so the check that it
        drops the rank is not made, and every check that is made passes."""
        monkeypatch.chdir(tmp_path)
        run(["gen", "--m", 1, "--q", 1, "--sizes", 9, "--seed", 3, "--out", "q1.json"])
        capsys.readouterr()
        assert run(["verify", *args]) == 0
        lines = capsys.readouterr().out.splitlines()
        checks = [line for line in lines if line.startswith("[")]
        assert any("] truncation." in line for line in checks)
        assert checks and all(line.startswith("[PASS]") for line in checks)
        assert not any("truncation.full-truncation-flagged" in line for line in checks)


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

    @staticmethod
    def _count_calls(monkeypatch, module, name) -> list:
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_class_means_computed_once(self, tmp_path, trained_files, monkeypatch):
        from shallowmin import dataset
        ds_path, params_path = trained_files
        # a byte-different copy of the training data takes the loading path
        copy = tmp_path / "copy.json"
        copy.write_text(json.dumps(json.loads(ds_path.read_text()), indent=1))
        calls = self._count_calls(monkeypatch, dataset, "block_means")
        inputs = tmp_path / "inputs.csv"
        with open(inputs, "w", newline="") as fh:
            csv.writer(fh).writerows([[0.1 * i, 1.0, -0.5] for i in range(50)])
        out = tmp_path / "scored.csv"
        assert run(["classify", "--data", copy, "--params", params_path,
                    "--inputs", inputs, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 51
        assert len(calls) == 1

    def test_trained_file_is_not_parsed(self, tmp_path, trained_files, monkeypatch):
        from shallowmin import cli, dataset
        ds_path, params_path = trained_files
        means_calls = self._count_calls(monkeypatch, dataset, "block_means")
        load_calls = self._count_calls(monkeypatch, cli, "load_dataset")
        json_calls = self._count_calls(monkeypatch, dataset, "load_json")
        inputs = tmp_path / "inputs.csv"
        with open(inputs, "w", newline="") as fh:
            csv.writer(fh).writerows([[0.1 * i, 1.0, -0.5] for i in range(50)])
        out = tmp_path / "scored.csv"
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 51
        assert (means_calls, load_calls, json_calls) == ([], [], [])

    @staticmethod
    def _skewed_dataset(path, y) -> list:
        """Write a noisy M=4, Q=3 dataset with targets y to path; returns
        points to classify, some far outside the training data."""
        rng = np.random.default_rng(3)
        means = rng.standard_normal((3, 4))
        classes = [(mu + 0.05 * rng.uniform(-1, 1, (6, 4))).tolist() for mu in means]
        path.write_text(json.dumps({"m": 4, "q": 3, "classes": classes, "y": y}))
        return (np.concatenate([means, 3.0 * rng.standard_normal((5, 4))])).tolist()

    def _classify(self, tmp_path, data, params, points, name) -> bytes:
        inputs, out = tmp_path / f"{name}.in.csv", tmp_path / f"{name}.csv"
        with open(inputs, "w", newline="") as fh:
            csv.writer(fh).writerows([[repr(v) for v in p] for p in points])
        assert run(["classify", "--data", data, "--params", params,
                    "--inputs", inputs, "--out", out]) == 0
        return out.read_bytes()

    def test_digest_path_and_loading_path_write_the_same_bytes(self, tmp_path, monkeypatch):
        from shallowmin import cli
        ds_path, params_path = tmp_path / "ds.json", tmp_path / "params.json"
        y = [[2.0, 0.5, 0.0], [0.0, 1.0, -1.0], [0.3, 0.0, 1.5]]
        points = self._skewed_dataset(ds_path, y)
        assert run(["train", "--data", ds_path, "--out", params_path]) == 0
        copy = tmp_path / "copy.json"
        copy.write_text(json.dumps(json.loads(ds_path.read_text()), indent=1))
        load_calls = self._count_calls(monkeypatch, cli, "load_dataset")
        direct = self._classify(tmp_path, ds_path, params_path, points, "direct")
        assert load_calls == []
        loaded = self._classify(tmp_path, copy, params_path, points, "loaded")
        assert load_calls == [1]
        assert direct == loaded
        # the scores are residuals against the non-identity y
        params, _ = load_params(params_path)
        expected = score_batch(params, np.array(y), np.array(points).T)
        rows = list(csv.reader(direct.decode().splitlines()))[1:]
        assert [[float(v) for v in r[2:]] for r in rows] == expected.tolist()

    def test_y_changed_after_train_uses_the_file_y(self, tmp_path):
        ds_path, params_path = tmp_path / "ds.json", tmp_path / "params.json"
        points = self._skewed_dataset(ds_path, np.eye(3).tolist())
        assert run(["train", "--data", ds_path, "--out", params_path]) == 0
        new_y = [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 3.0, -1.0]]
        doc = json.loads(ds_path.read_text())
        ds_path.write_text(json.dumps({**doc, "y": new_y}))
        got = self._classify(tmp_path, ds_path, params_path, points, "changed")
        params, _ = load_params(params_path)
        expected = score_batch(params, np.array(new_y), np.array(points).T)
        rows = list(csv.reader(got.decode().splitlines()))[1:]
        assert [[float(v) for v in r[2:]] for r in rows] == expected.tolist()
        assert [int(r[1]) for r in rows] == np.argmin(expected, axis=1).tolist()

    @pytest.mark.parametrize("strip", ["new-keys", "provenance", "null-provenance"])
    def test_params_without_recorded_targets_classify(self, tmp_path, strip):
        ds_path, params_path = tmp_path / "ds.json", tmp_path / "params.json"
        points = self._skewed_dataset(ds_path, [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                                                [0.0, 0.0, 2.0]])
        assert run(["train", "--data", ds_path, "--out", params_path]) == 0
        want = self._classify(tmp_path, ds_path, params_path, points, "full")
        doc = json.loads(params_path.read_text())
        if strip == "new-keys":
            del doc["provenance"]["y"], doc["provenance"]["data_sha256"]
        elif strip == "provenance":
            del doc["provenance"]
        else:
            doc["provenance"] = None
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert self._classify(tmp_path, ds_path, old, points, "old") == want

    @pytest.mark.parametrize("y, error", [
        ("[[1.0, 0.0], [0.0]]", "DimensionError: params provenance field 'y'"),
        ("[[1.0, 0.0], [0.0, NaN]]", "DimensionError: y contains non-finite entries"),
        ("[[1.0, 0.0], [0.0, 1e999]]", "DimensionError: y contains non-finite entries"),
        ("[1.0, 1.0]", "DimensionError: y must be 2-D"),
        ("[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]",
         "DimensionError: y shape (3, 3) != (2, 2)"),
        ("[[1.0, 2.0], [2.0, 4.0]]", "RankDeficient: target columns"),
        ("null", "DimensionError: y must be 2-D"),
    ], ids=["ragged", "nan", "inf", "1-d", "wrong-q", "rank-deficient", "null"])
    def test_bad_recorded_targets_exit_3(self, tmp_path, trained_files, capsys, y, error):
        ds_path, params_path = trained_files
        doc = json.loads(params_path.read_text())
        doc["provenance"]["y"] = "Y"
        params_path.write_text(json.dumps(doc).replace('"Y"', y))
        inputs, out = tmp_path / "inputs.csv", tmp_path / "scored.csv"
        inputs.write_text("0.1,0.2,0.3\n")
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs, "--out", out]) == 3
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    def test_params_of_other_dimensions_exit_3(self, tmp_path, trained_files, capsys):
        ds_path, params_path = trained_files
        other = tmp_path / "other.json"
        run(["gen", "--m", 4, "--q", 2, "--seed", 4, "--out", other])
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("0.1,0.2,0.3\n")
        assert run(["classify", "--data", other, "--params", params_path,
                    "--inputs", inputs]) == 3
        assert "error: DimensionError: means shape (4, 2) != (3, 2)" in capsys.readouterr().err

    def test_dataset_errors_come_before_params_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2, "q": 2, "classes": [[[1.0, 0.0]], [[0.0]]]}')
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("0.1,0.2\n")
        assert run(["classify", "--data", bad, "--params", tmp_path / "missing.json",
                    "--inputs", inputs]) == 3
        assert "error: DimensionError: sample length 1 != m=2" in capsys.readouterr().err

    def test_non_object_provenance_exit_3(self, tmp_path, trained_files, capsys):
        ds_path, params_path = trained_files
        doc = json.loads(params_path.read_text())
        params_path.write_text(json.dumps({**doc, "provenance": 5}))
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("0.1,0.2,0.3\n")
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: DimensionError: params document field 'provenance' must be a JSON "
                "object or null, got int") in captured.err

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

    @pytest.mark.parametrize("text, error", [
        # plain digits take numpy's reader, which reads the cell as inf
        ("1," + "2" * 200_000 + ",3\n", "input column 0 contains non-finite entries"),
        # a quoted cell takes the csv walk, which stops at the field limit
        ('1,"' + "2" * 200_000 + '",3\n',
         "input row 0 (line 1): field larger than field limit (131072)"),
    ], ids=["plain", "quoted"])
    def test_oversized_cell_exit_3(self, tmp_path, trained_files, capsys, text, error):
        ds_path, params_path = trained_files
        inputs, out = tmp_path / "inputs.csv", tmp_path / "scored.csv"
        inputs.write_text(text)
        assert run(["classify", "--data", ds_path, "--params", params_path,
                    "--inputs", inputs, "--out", out]) == 3
        assert capsys.readouterr().err == f"error: DimensionError: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("m, q, scores", [
        (3, 2, [[0.0, 5e-324], [1e300, 0.1], [5e-324, 1e300]]),
        (1, 1, [[0.0], [5e-324], [1e300]]),
        (3, 2, np.empty((0, 2))),
        (1, 1, np.empty((0, 1))),
    ], ids=["q2", "q1", "q2-no-rows", "q1-no-rows"])
    def test_output_bytes_equal_csv_writer(self, tmp_path, capsys, monkeypatch, m, q, scores):
        """The scores CSV, to stdout and to --out, has the bytes csv.writer
        writes for the header, then [index, winner, repr(score), ...] per row."""
        from shallowmin import cli
        ds_path, params_path = tmp_path / "ds.json", tmp_path / "params.json"
        run(["gen", "--m", m, "--q", q, "--seed", 4, "--out", ds_path])
        run(["train", "--data", ds_path, "--out", params_path])
        scores = np.asarray(scores, dtype=float)
        monkeypatch.setattr(cli, "score_batch", lambda params, y, x: scores)
        inputs, out = tmp_path / "inputs.csv", tmp_path / "scored.csv"
        inputs.write_text("".join(",".join(["0.5"] * m) + "\n" for _ in scores))
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["index", "winner"] + [f"score_{j}" for j in range(q)])
        for i, row in enumerate(scores.tolist()):
            writer.writerow([i, int(np.argmin(row))] + [repr(s) for s in row])
        args = ["classify", "--data", ds_path, "--params", params_path, "--inputs", inputs]
        assert run(args + ["--out", out]) == 0
        assert out.read_bytes() == want.getvalue().encode()
        capsys.readouterr()
        assert run(args) == 0
        assert capsys.readouterr().out == want.getvalue()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_oversized_dataset_csv_cell_exit_3(tmp_path, capsys, command):
    data = tmp_path / "ds.csv"
    data.write_text("1.0,0.5,0\n0.5," + "2" * 200_000 + ",1\n")
    params = tmp_path / "params.json"
    extra = ["--params", params] if command == "eval" else []
    if command == "eval":
        run(["train", "--m", 2, "--q", 2, "--out", params])
    assert run([command, "--data", data, *extra]) == 3
    assert capsys.readouterr().err == ("error: DimensionError: dataset row 1 (line 2) of "
                                       f"{data}: field larger than field limit (131072)\n")


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

    def test_empty_grid_writes_nothing(self, tmp_path, capsys):
        """An empty grid has no points, so no JSON lines: no lone newline on
        stdout or in the --out file."""
        ds_path = tmp_path / "ds.json"
        grid_path = tmp_path / "grid.json"
        out = tmp_path / "sweep.jsonl"
        run(["gen", "--m", 2, "--q", 2, "--seed", 6, "--out", ds_path])
        grid_path.write_text("[]")
        capsys.readouterr()
        assert run(["truncation-sweep", "--data", ds_path, "--grid", grid_path]) == 0
        assert capsys.readouterr().out == ""
        assert run(["truncation-sweep", "--data", ds_path, "--grid", grid_path,
                    "--out", out]) == 0
        assert out.read_bytes() == b""

    def test_grid_not_a_list_exit_3(self, tmp_path, capsys):
        ds_path, grid_path = tmp_path / "ds.json", tmp_path / "grid.json"
        run(["gen", "--m", 2, "--q", 2, "--seed", 6, "--out", ds_path])
        grid_path.write_text('{"w1": [[1.0, 0.0], [0.0, 1.0]], "b1": [5.0, 5.0]}')
        capsys.readouterr()
        assert run(["truncation-sweep", "--data", ds_path, "--grid", grid_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: DimensionError: truncation grid must be a JSON list, "
                                "got dict\n")


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

    def test_eval_table_out_writes_the_json_report(self, tmp_path, capsys):
        ds_path, params_path = tmp_path / "ds.json", tmp_path / "params.json"
        table_out, json_out = tmp_path / "table.json", tmp_path / "report.json"
        run(["gen", "--m", 3, "--q", 3, "--seed", 2, "--out", ds_path])
        run(["train", "--data", ds_path, "--out", params_path])
        capsys.readouterr()
        common = ["eval", "--data", ds_path, "--params", params_path]
        assert run([*common, "--format", "table", "--out", table_out]) == 0
        assert "cost_l2" in capsys.readouterr().out
        assert run([*common, "--out", json_out]) == 0
        assert table_out.read_bytes() == json_out.read_bytes()

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

    def test_json_format_writes_the_document_to_stdout_or_out(self, tmp_path, capsys):
        ds_path, params_path = tmp_path / "ds.json", tmp_path / "params.json"
        merged = tmp_path / "merged.json"
        run(["gen", "--m", 3, "--q", 2, "--noise", "0.05", "--seed", 2, "--out", ds_path])
        run(["train", "--data", ds_path, "--out", params_path])
        capsys.readouterr()
        assert run(["report", "--inputs", params_path, "--format", "json"]) == 0
        stdout = capsys.readouterr().out
        assert run(["report", "--inputs", params_path, "--format", "json",
                    "--out", merged]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(stdout) == json.loads(merged.read_text())
        assert [a["kind"] for a in json.loads(stdout)["artifacts"]] == ["train"]

    def test_null_provenance_is_a_train_row(self, tmp_path, capsys):
        path, merged = tmp_path / "a.json", tmp_path / "merged.json"
        path.write_text('{"provenance": null}')
        assert run(["report", "--inputs", path, "--out", merged]) == 0
        assert json.loads(merged.read_text()) == {
            "artifacts": [{"kind": "train", "source": str(path)}]}

    def test_missing_artifact_exit_code(self, tmp_path, capsys):
        assert run(["report", "--inputs", tmp_path / "nope.json"]) == 2
        assert "no such artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (" \n", "empty artifact: "),
        ("not json", "not a JSON artifact: "),
    ], ids=["empty", "non-json"])
    def test_unreadable_artifact_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "rep.json"
        path.write_text(text)
        assert run(["report", "--inputs", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}{path}")

    def test_compare_and_unknown_rows(self, tmp_path, capsys):
        cmp_path, other, merged = tmp_path / "cmp.json", tmp_path / "o.json", tmp_path / "m.json"
        cmp_path.write_text(json.dumps({"steps": 5, "gd": {"cost_l2": 0.5},
                                        "constructive": {"cost_l2": 0.1, "cost_weighted": 0.2}}))
        other.write_text('{"note": "x"}')
        assert run(["report", "--inputs", cmp_path, other, "--out", merged]) == 0
        assert json.loads(merged.read_text()) == {"artifacts": [
            {"kind": "compare", "source": str(cmp_path), "steps": 5,
             "cost_l2": 0.1, "cost_weighted": 0.2},
            {"kind": "unknown", "source": str(other), "note": "x"}]}
        table = capsys.readouterr().out
        assert "compare" in table and "unknown" in table

    @pytest.mark.parametrize("text", ["[1, 2]", '[{"cost_l2": 1.0}, "x"]', "3",
                                      '{"cost_l2": 1.0}\n[1]\n', '{"provenance": 5}'],
                             ids=["ints", "mixed", "scalar", "jsonl", "provenance"])
    def test_non_object_artifact_exit_3(self, tmp_path, capsys, text):
        path = tmp_path / "rep.json"
        path.write_text(text)
        assert run(["report", "--inputs", path]) == 3
        assert "must be a JSON object" in capsys.readouterr().err

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


_TWO_SAMPLES = [[[1.0, 0.0]], [[0.0, 1.0]]]


@pytest.mark.parametrize("command, doc, message", [
    ("train", {"q": 2, "classes": []}, "dataset document has no field 'm'"),
    ("train", [], "dataset document must be a JSON object, got list"),
    ("train", {"m": 2, "q": 2, "classes": [[[1.0, 0.0]], [[0.0, "x"]]]},
     "dataset document field 'classes': could not convert"),
    ("train", {"m": 2, "q": 2, "classes": _TWO_SAMPLES, "y": [[1, 0], [0, "x"]]},
     "dataset document field 'y': could not convert"),
    ("train", {"m": 2, "q": 2, "classes": _TWO_SAMPLES, "y": [[1, 0], [0]]},
     "dataset document field 'y': "),
    ("eval", {"b1": [0.0], "w2": [[1.0]], "b2": [0.0]}, "params document has no field 'w1'"),
    ("eval", {"w1": [[1.0, 0.0], [0.0, "x"]], "b1": [0.0, 0.0], "w2": [[1.0, 0.0]],
              "b2": [0.0]}, "params document field 'w1': could not convert"),
    ("eval", {"w1": [[1.0, 0.0], [0.0, 1.0]], "b1": [0.0, 0.0], "w2": [[1.0, 0.0], [0.0, 1.0]],
              "b2": [0.0, 0.0], "provenance": [1]},
     "params document field 'provenance' must be a JSON object or null, got list"),
    ("truncation-sweep", [{"w1": [[1.0, 0.0], [0.0, 1.0]]}],
     "truncation grid entry 0 has no field 'b1'"),
], ids=["dataset-no-m", "dataset-list", "non-numeric-sample", "non-numeric-y", "ragged-y",
        "params-no-w1", "non-numeric-params", "params-list-provenance", "grid-no-b1"])
def test_malformed_json_document_exit_3(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    synthetic = ["--m", 2, "--q", 2]
    args = {"train": ["--data", path], "eval": [*synthetic, "--params", path],
            "truncation-sweep": [*synthetic, "--grid", path]}[command]
    assert run([command, *args]) == 3
    assert f"error: DimensionError: {message}" in capsys.readouterr().err


def test_unparsable_json_exit_2(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text("{not json")
    assert run(["train", "--data", path]) == 2
    assert "DimensionError" not in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["train", "--m", 3, "--q", 2, "--beta1-margin", "nan"],
    ["train", "--m", 3, "--q", 2, "--beta1-margin", "inf"],
    ["gen", "--noise", "nan"],
    ["gen", "--noise", "inf"],
    ["gen", "--mean-scale", "inf"],
    ["gen", "--mean-scale", "nan"],
    ["compare", "--steps", 5, "--lr", "nan"],
    ["compare", "--steps", 5, "--lr", "inf"],
    ["compare", "--steps", 5, "--init-scale", "inf"],
    ["compare", "--steps", 5, "--init-scale", "nan"],
])
def test_non_finite_settings_exit_2(capsys, args):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


@pytest.mark.parametrize("scale", ["0", "-0.0"])
def test_zero_mean_scale_exits_2(capsys, scale):
    assert run(["gen", "--m", 2, "--q", 2, "--mean-scale", scale]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "mean_scale must be nonzero" in captured.err


@pytest.mark.parametrize("args", [
    ["train", "--m", 3, "--q", 2, "--beta1-margin", "1e200"],
    ["train", "--m", 3, "--q", 2, "--beta1-margin", "1e308"],
    ["train", "--m", 3, "--q", 3, "--variant", "exact", "--beta1-margin", "1e308"],
])
def test_overflowing_beta1_exit_3_without_warnings(capsys, args):
    # A RuntimeWarning would be an exception here (pyproject's filterwarnings).
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: BetaTooLarge: beta1=1e+") and "RuntimeWarning" not in err


@pytest.mark.parametrize("args", [
    ["train", "--m", 3, "--q", 2, "--beta1-margin", "1e20"],
    ["train", "--m", 3, "--q", 3, "--variant", "exact", "--beta1-margin", "1e17"],
])
def test_beta1_that_rounds_away_the_data_exit_3(capsys, args):
    """Finite, but X0 + beta1 keeps too few of X0's digits for the cost check:
    beta1 is named, not the cost."""
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: BetaTooLarge: beta1=1e+") and "rounds away X0's digits" in err


@pytest.mark.parametrize("flags", [
    ["--m", "6", "--q", "6", "--sizes", ",".join(["3000"] * 6), "--seed", "3"],
    ["--m", "100", "--q", "50", "--sizes", ",".join(["200"] * 50), "--seed", "1"],
], ids=["6x6", "100x50"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, flags):
    """train and eval print the same bytes under one and two OpenBLAS threads:
    with sums of squares over more than 10^4 entries (6x6: Q N_j = 18000),
    and with a general first layer whose projector numpy's syrk would round
    by the thread count (100x50)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        params = tmp_path / f"p{threads}.json"
        printed = [subprocess.run([sys.executable, "-m", "shallowmin.cli", *argv], env=env,
                                  capture_output=True, text=True, check=True).stdout
                   for argv in (["train", *flags, "--out", str(params)],
                                ["eval", *flags, "--params", str(params)])]
        outputs.append((params.read_bytes(), printed))
    assert outputs[0] == outputs[1]


def test_gd_overflow_exit_3_without_warnings(capsys):
    # pyproject's filterwarnings turns a RuntimeWarning into an exception,
    # which main does not catch.
    assert run(["compare", "--m", 3, "--q", 3, "--steps", 5, "--lr", "1e300"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Diverged: ") and "RuntimeWarning" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2
