"""Cross-checks between algebraically equal forms computed through different
routes. Each identity is exact in exact arithmetic; disagreement beyond
round-off would indicate an implementation error in one of the routes."""

import numpy as np
import pytest

from shallowmin import (
    data_projector,
    dataset_stats,
    exact_min_weighted,
    relative_deviations,
    synthesize,
    y_ext,
)
from shallowmin.constructive import w2_tilde
from shallowmin.cost import _gram, normal_w2, weighted_norm
from shallowmin.dataset import deviations


@pytest.fixture(params=[0, 1, 2])
def square_ds(request):
    return synthesize(3, 3, [5, 7, 6], noise=0.12, seed=request.param)


def test_gram_decomposes_into_means_plus_deviations(square_ds):
    # X0 N^-1 X0^T = means means^T + dev N^-1 dev^T: the cross terms vanish
    # because per-class deviations sum to zero
    ds = square_ds
    stats, _ = dataset_stats(ds)
    inv_n = ds.inv_size_weights()
    dev = deviations(ds, stats.means)
    d2_raw = (dev * inv_n[None, :]) @ dev.T
    decomposed = stats.means @ stats.means.T + d2_raw
    assert np.allclose(_gram(ds.x0, inv_n), decomposed, atol=1e-12)


def test_residual_equals_correction_form(square_ds):
    # -Yext Pperp = Y D1 - R with R = Y D2 (1 + D2)^-1 (means^-1 X0)
    ds = square_ds
    stats, _ = dataset_stats(ds)
    d1, d2 = relative_deviations(ds, stats.means)
    p_perp = np.eye(ds.n) - data_projector(ds)
    lhs = -(y_ext(ds) @ p_perp)
    correction = ds.y @ d2 @ np.linalg.solve(
        np.eye(ds.q) + d2, np.linalg.solve(stats.means, ds.x0))
    rhs = ds.y @ d1 - correction
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_exact_w2_equals_gap_corrected_interpolant(square_ds):
    # W2* = W2~ - Y D2 (1 + D2)^-1 means^-1: the output weights shrink away
    # from the mean interpolant by the deviation Gram correction
    ds = square_ds
    stats, pack = dataset_stats(ds)
    _, d2 = relative_deviations(ds, stats.means)
    correction = ds.y @ d2 @ np.linalg.solve(
        np.eye(ds.q) + d2, np.linalg.inv(stats.means))
    w2 = normal_w2(ds, _gram(ds.x0, ds.inv_size_weights()), stats.means)
    assert np.allclose(w2, w2_tilde(ds, pack) - correction, atol=1e-11)


def test_weighted_residual_trace_form(square_ds):
    # ||Yext Pperp||^2 = Tr(Y D2 (1 + D2)^-1 Y^T), the scalar form behind the
    # eigenvalue expression
    ds = square_ds
    stats, _ = dataset_stats(ds)
    _, d2 = relative_deviations(ds, stats.means)
    p_perp = np.eye(ds.n) - data_projector(ds)
    direct = weighted_norm(y_ext(ds) @ p_perp, ds.class_sizes) ** 2
    trace = float(np.trace(ds.y @ d2 @ np.linalg.solve(np.eye(ds.q) + d2, ds.y.T)))
    assert direct == pytest.approx(trace, rel=1e-10)
    assert exact_min_weighted(ds, stats) ** 2 == pytest.approx(trace, rel=1e-10)


def test_data_projector_transpose_is_row_space_projector(square_ds):
    # P^T fixes every row of X0 and annihilates nothing in its row space
    ds = square_ds
    p = data_projector(ds)
    assert np.max(np.abs(ds.x0 @ p - ds.x0)) < 1e-10
