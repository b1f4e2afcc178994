"""Memory guards for the general-regime pipeline: the statistics retain one
M x N array, and a cost report stays under three M x N arrays of transient
memory."""

import dataclasses
import tracemalloc

import numpy as np

from shallowmin import dataset_stats, evaluate, synthesize, train_general


def test_stats_retain_one_m_by_n_array():
    ds = synthesize(6, 3, [7, 8, 9], noise=0.1, seed=1)
    stats, _ = dataset_stats(ds)
    arrays = [getattr(stats, f.name) for f in dataclasses.fields(stats)]
    retained = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert retained == 8 * (ds.m * ds.n + ds.m * ds.q)


def test_evaluate_peak_under_three_m_by_n_arrays():
    ds = synthesize(40, 20, [1000] * 20, noise=0.05, seed=3)
    stats, pack = dataset_stats(ds)
    params = train_general(ds, stats, pack)
    tracemalloc.start()
    try:
        evaluate(params, ds, stats, pack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * ds.x0.nbytes
