"""A dataset read back from its JSON file is the dataset in memory: the same
row-major X0, and so bit for bit the same statistics, fits, verify records
and CLI output, for the gen flags of every tools/cli_matrix.py dataset."""

import dataclasses
import hashlib
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from shallowmin import cli
from shallowmin.constructive import pipeline
from shallowmin.dataset import from_json_dict, load_json, save_json
from shallowmin.errors import ShallowminError
from shallowmin.verify import SQUARE_ONLY_SUITES, SUITES, run_suite

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"
DATASETS = runpy.run_path(str(TOOL))["DATASETS"]


def _synthesized(name: str):
    """The dataset that `gen` writes for the named gen flags, in memory."""
    return cli._dataset_from_args(cli.build_parser().parse_args(["gen", *DATASETS[name]]))


def _bits(value):
    """value with every array as its shape and bytes and every float as its
    repr, so that == compares bit for bit."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return repr(value)


def _outcome(fn):
    """_bits of fn(), or the type and message of the ShallowminError it raises."""
    try:
        return _bits(fn())
    except ShallowminError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", list(DATASETS))
def test_json_dataset_is_the_dataset_in_memory(tmp_path, name):
    ds = _synthesized(name)
    path = tmp_path / f"{name}.json"
    save_json(ds, path)
    streamed, whole = load_json(path), from_json_dict(json.loads(path.read_text()))
    for other in (ds, streamed, whole):
        assert other.x0.flags.c_contiguous
        assert _bits(other) == _bits(ds)

    square = ds.m == ds.q
    mine, theirs = pipeline(ds), pipeline(streamed)
    records = ("stats", "pack", "general") + (("square", "minimum") if square else ())
    for record in records:
        assert _outcome(lambda: getattr(theirs, record)) == _outcome(lambda: getattr(mine, record))
    for suite in SUITES:
        if square or suite not in SQUARE_ONLY_SUITES:
            assert _outcome(lambda: run_suite(suite, streamed, seed=1)) \
                == _outcome(lambda: run_suite(suite, ds, seed=1)), suite


@pytest.mark.parametrize("name", list(DATASETS))
def test_train_and_eval_print_the_same_bytes_from_data_and_gen_flags(tmp_path, capsys, name):
    """train and eval with --data FILE print what they print with the gen
    flags FILE was written from; only train's data_sha256 differs (null for
    synthesized data)."""
    flags = DATASETS[name]
    data = tmp_path / f"{name}.json"
    assert cli.main(["gen", *flags, "--out", str(data)]) == 0
    sha = hashlib.sha256(data.read_bytes()).hexdigest()
    square = flags[flags.index("--m") + 1] == flags[flags.index("--q") + 1]

    def run(*argv):
        code = cli.main([str(a) for a in argv])
        out, err = capsys.readouterr()
        return code, out.replace(f'"data_sha256": "{sha}"', '"data_sha256": null'), err

    for variant in ("general", "exact") if square else ("general",):
        trained = run("train", "--data", data, "--variant", variant)
        assert trained == run("train", *flags, "--variant", variant)
        if trained[0] != 0:
            continue
        params = tmp_path / f"{name}.{variant}.json"
        params.write_text(trained[1])
        for extra in (["--format", "json"], ["--format", "csv"], ["--matrices"]):
            assert run("eval", "--data", data, "--params", params, *extra) \
                == run("eval", *flags, "--params", params, *extra)
