"""Memory guards for the general-regime pipeline: the statistics retain no
M x N array and their pass keeps under a quarter of one (it works in
class-block buffers), training keeps under one M x N array of transient
memory, and a cost report under half of one (it forwards column chunks and
reads the bound from the statistics). Synthesis holds one M x N array (it
builds X0 in place), and the JSON writer less than one (it streams column
chunks). The JSON reader holds about two (the class blocks and their
concatenation), not the text and the decoded document: it decodes one class
at a time. The truncation suite holds one grid point's arrays at a time (it
folds each point of the sweep into scalars as it arrives), and one point's
truncation pass three (it forms the hidden layer in place of the
pre-activations and reads the reapplication leak off the extremes), and its
least-squares oracle under three and a half (its weighted targets are one
repeat of Y, and the targets leave the residual block by block). A
gradient-descent run holds its workspace (the hidden layer, back-propagated
residual, mask, residual and targets). The trend checks of verify exact-min
read every octave off the closed form the suite already holds and rebuild
one octave as data: its X0(t), made from the deviations in place with no
expansion of the class means, and that X0(t)'s own closed form."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from shallowmin import (dataset, dataset_stats, evaluate, pipeline, synthesize, train_general,
                        truncation, verify)
from shallowmin.dataset import load_json, save_json
from shallowmin.gd import GdConfig, train_gd
from shallowmin.network import params_from_dict, params_to_dict


def test_stats_retain_one_m_by_n_array():
    ds = synthesize(6, 3, [7, 8, 9], noise=0.1, seed=1)
    stats, _ = dataset_stats(ds)
    arrays = [getattr(stats, f.name) for f in dataclasses.fields(stats)]
    retained = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert retained == 8 * ds.m * ds.q


@pytest.fixture(scope="module")
def fitted():
    ds = synthesize(40, 20, [1000] * 20, noise=0.05, seed=3)
    stats, pack = dataset_stats(ds)
    return ds, stats, pack, train_general(ds, stats, pack)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_dataset_stats_peak_under_a_quarter_m_by_n_array(fitted):
    ds = fitted[0]
    assert traced_peak(dataset_stats, ds) < 0.25 * ds.x0.nbytes


def unrecorded(params):
    """A copy that carries no record of a cost pass, so evaluate runs its own."""
    return params_from_dict(params_to_dict(params))


def test_evaluate_peak_under_three_m_by_n_arrays(fitted):
    ds, stats, pack, params = fitted
    assert traced_peak(evaluate, unrecorded(params), ds, stats, pack) < 3 * ds.x0.nbytes


def test_evaluate_peak_under_half_an_m_by_n_array(fitted):
    ds, stats, pack, params = fitted
    assert traced_peak(evaluate, unrecorded(params), ds, stats, pack) < 0.5 * ds.x0.nbytes


def test_train_general_peak_under_one_m_by_n_array(fitted):
    ds, stats, pack, _ = fitted
    assert traced_peak(train_general, ds, stats, pack) < 1.0 * ds.x0.nbytes


def test_synthesize_peak_one_m_by_n_array(fitted):
    ds = fitted[0]
    peak = traced_peak(synthesize, 40, 20, [1000] * 20, 1.0, 0.05, 3)
    assert peak < 1.25 * ds.x0.nbytes


def test_save_json_peak_under_one_m_by_n_array(tmp_path):
    ds = synthesize(8, 4, [2500] * 4, noise=0.05, seed=3)
    assert traced_peak(save_json, ds, tmp_path / "d.json") < 1.0 * ds.x0.nbytes


def test_load_json_peak_under_four_m_by_n_arrays(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_HASH_CHUNK_BYTES", 1 << 16)
    ds = synthesize(20, 10, [200] * 10, noise=0.05, seed=3)
    path = tmp_path / "d.json"
    save_json(ds, path)
    assert path.stat().st_size > 4 * dataset._HASH_CHUNK_BYTES
    assert traced_peak(load_json, path) < 4 * ds.x0.nbytes


def test_truncation_pass_peak_under_three_and_a_half_m_by_n_arrays():
    ds = synthesize(8, 8, [500] * 8, noise=0.05, seed=3)
    for b in (3.0, -0.2):  # in the fixed-point region and out of it
        peak = traced_peak(truncation._truncation_pass, np.eye(8), np.full(8, b), ds)
        assert peak < 3.5 * ds.x0.nbytes


def test_lstsq_oracle_peak_under_three_and_a_half_m_by_n_arrays():
    ds = synthesize(16, 16, [1000] * 16, noise=0.05, seed=1)
    b1 = np.full(16, 3.0)
    hidden = truncation._truncation_pass(np.eye(16), b1, ds)[1]
    assert traced_peak(truncation.lstsq_min_weighted, hidden, b1, ds) < 3.5 * ds.x0.nbytes


def test_truncation_suite_peak_does_not_grow_with_the_grid(monkeypatch):
    ds = synthesize(8, 8, [500] * 8, noise=0.05, seed=3)
    pl = pipeline(ds)
    pl.minimum  # built before tracing: the suite reads it
    full_grid = verify.default_truncation_grid(pl)
    full = traced_peak(verify.suite_truncation, pl)
    monkeypatch.setattr(verify, "default_truncation_grid", lambda pl, seed=0: full_grid[:5])
    prefix = traced_peak(verify.suite_truncation, pl)
    assert len(full_grid) == 30
    assert full <= 1.25 * prefix
    assert full < 10 * ds.x0.nbytes


def test_train_gd_peak_under_three_and_a_half_m_by_n_arrays():
    ds = synthesize(16, 8, [2000] * 8, noise=0.05, seed=1)
    assert traced_peak(train_gd, ds, GdConfig(steps=3)) < 3.5 * ds.x0.nbytes


def test_quadratic_trend_checks_peak_under_four_and_a_half_m_by_n_arrays():
    ds = synthesize(16, 16, [1000] * 16, noise=0.05, seed=1)
    pl = pipeline(ds)
    pl.minimum  # built before the call, as suite_exact_min holds it
    assert traced_peak(verify.quadratic_trend_checks, pl) < 4.5 * ds.x0.nbytes
