"""Truncation of the training inputs by the first layer, rank preservation,
fixed-point-region membership, and the closed-form output-layer minimum at a
fixed first layer (M = Q regime).

The truncation map conjugates the activation by the affine first-layer map:
tau(X0) = w1^-1 (relu(w1 X0 + b1 1^T) - b1 1^T). Its fixed points are exactly
the (w1, b1) for which the network is effectively linear on the data; on that
region the output-layer minimum does not depend on (w1, b1) at all. A point is
in the region iff no pre-activation w1 X0 + b1 1^T is negative (no tolerance);
_region_preactivation is that rule, and invertibility of w1, for every caller.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .checks import check, rel, require
from .cost import closed_form_min, lstsq_min_weighted, relative_gram
from .dataset import ClassifiedDataset, block_means, deviations
from .errors import ConsistencyError, ShallowminError, SingularMeans, SingularW1, WrongRegime
from .linalg import numerical_rank, rank_with_margin
from .network import relu

# Relative tolerance of the closed form vs the brute-force least squares.
ORACLE_RTOL = 1e-8


@dataclass
class TruncationResult:
    """Everything derived from one (w1, b1) point.

    min_cost_weighted is present iff the truncation preserved both ranks; the
    relative-deviation matrices and delta_p_tr are the truncated analogues of
    the dataset statistics. in_fixed_point_region: no pre-activation w1 X0 + b1
    is negative (a sign test, no tolerance). to_dict leaves out lstsq_oracle,
    the least-squares value min_cost_weighted was checked against.
    """

    tau_x0: np.ndarray = field(repr=False)
    rank_x0_preserved: bool
    rank_means_preserved: bool
    rank_marginal: bool
    in_fixed_point_region: bool
    min_cost_weighted: float | None = None
    delta_p_tr: float | None = None
    delta1_rel_tr: np.ndarray | None = field(default=None, repr=False)
    delta2_rel_tr: np.ndarray | None = field(default=None, repr=False)
    lstsq_oracle: float | None = field(default=None, repr=False)

    def to_dict(self, include_matrices: bool = False) -> dict:
        doc = {
            "rank_x0_preserved": self.rank_x0_preserved,
            "rank_means_preserved": self.rank_means_preserved,
            "rank_marginal": self.rank_marginal,
            "in_fixed_point_region": self.in_fixed_point_region,
            "min_cost_weighted": self.min_cost_weighted,
            "delta_p_tr": self.delta_p_tr,
        }
        if include_matrices:
            doc["tau_x0"] = self.tau_x0.tolist()
            if self.delta1_rel_tr is not None:
                doc["delta1_rel_tr"] = self.delta1_rel_tr.tolist()
                doc["delta2_rel_tr"] = self.delta2_rel_tr.tolist()
        return doc


def _region_preactivation(w1, b1, ds: ClassifiedDataset) -> tuple[np.ndarray, bool]:
    """(w1 X0 + b1 1^T, whether its minimum is >= 0) of a first layer: the
    product and the fixed-point-region flag. WrongRegime unless M = Q and the
    shapes match, SingularW1 unless w1 is invertible."""
    if ds.m != ds.q:
        raise WrongRegime(f"truncation requires M = Q, got M={ds.m}, Q={ds.q}")
    w1 = np.asarray(w1, dtype=float)
    b1 = np.asarray(b1, dtype=float).reshape(-1)
    if w1.shape != (ds.q, ds.q) or b1.shape != (ds.q,):
        raise WrongRegime(f"w1/b1 shapes {w1.shape}/{b1.shape} do not match Q={ds.q}")
    if numerical_rank(w1) < ds.q:
        raise SingularW1("w1 must be invertible")
    pre = w1 @ ds.x0 + b1[:, None]
    return pre, bool(pre.min() >= 0.0)


def _truncation_pass(w1: np.ndarray, b1: np.ndarray,
                     ds: ClassifiedDataset) -> tuple[np.ndarray, np.ndarray, bool, float]:
    """(tau(X0), hidden layer relu(w1 X0 + b1 1^T), fixed-point membership,
    reapplication leak) of one first layer, from its one product w1 X0."""
    pre, in_region = _region_preactivation(w1, b1, ds)
    w1 = np.asarray(w1, dtype=float)
    bias = np.asarray(b1, dtype=float).reshape(-1, 1)
    hidden = np.maximum(pre, 0.0, out=pre)  # relu(pre); nothing reads pre again
    tau = np.linalg.solve(w1, hidden - bias)
    reapplied = w1 @ tau
    reapplied += bias
    # |relu(r) - r| is -r for r < 0, 0 for finite r >= 0 and NaN for r NaN or
    # +inf, so its maximum over reapplied is its maximum over the two extremes.
    ends = np.array([reapplied.min(), reapplied.max()])
    leak = float(np.max(np.abs(relu(ends) - ends)))
    # hidden >= 0, so its maximum is max|hidden| up to the sign of a zero.
    require(check("truncation.reapplication-leak", leak, 1e-10 * (1.0 + np.max(hidden))),
            ConsistencyError, f"reapplication identity violated by {leak:.3e}")
    return tau, hidden, in_region, leak


def _data_ranks(ds: ClassifiedDataset) -> tuple[int, int]:
    """(rank(X0), rank(class means)): they depend on the dataset alone, so a
    sweep computes them once, not once per grid point."""
    return numerical_rank(ds.x0), numerical_rank(block_means(ds.x0, ds.class_sizes))


def min_over_output_layer(w1: np.ndarray, b1: np.ndarray, ds: ClassifiedDataset) -> TruncationResult:
    """Minimum of the weighted cost over the tied output-layer family at a
    fixed (w1, b1), via the truncated statistics.

    The value is the truncated analogue of the exact M = Q minimum,
    closed_form_min at the truncated relative-deviation Gram. It is
    cross-checked against an explicit least-squares solve over the output
    layer on the truncated data. If the truncation is rank reducing the
    minimum is absent; if it preserves the rank of class means that were
    already dependent, SingularMeans is raised.
    """
    return _min_over_output_layer(_truncation_pass(w1, b1, ds), b1, ds, _data_ranks(ds))


def _min_over_output_layer(passed: tuple, b1, ds: ClassifiedDataset, data_ranks) -> TruncationResult:
    """min_over_output_layer from passed = _truncation_pass(w1, b1, ds) and
    data_ranks = _data_ranks(ds)."""
    tau, hidden, in_region, _ = passed
    rank_tau, marginal_tau = rank_with_margin(tau)
    means_tau = block_means(tau, ds.class_sizes)  # the classes of ds, never re-clustered
    rank_means_tau, marginal_means = rank_with_margin(means_tau)
    rank_x0 = rank_tau == data_ranks[0]
    rank_means = rank_means_tau == data_ranks[1]
    result = TruncationResult(
        tau_x0=tau,
        rank_x0_preserved=rank_x0,
        rank_means_preserved=rank_means,
        rank_marginal=marginal_tau or marginal_means,
        in_fixed_point_region=in_region,
    )
    if not (rank_x0 and rank_means):
        return result
    if rank_means_tau < ds.q:
        raise SingularMeans(
            f"truncated class means have rank {rank_means_tau} < Q={ds.q}")
    d1_tr, d2_tr = relative_gram(means_tau, deviations(replace(ds, x0=tau), means_tau),
                                 ds.inv_size_weights())
    value = closed_form_min(ds.y, d2_tr)[0]
    result.min_cost_weighted = value
    result.delta_p_tr = float(np.max(np.linalg.norm(d1_tr, axis=0)))
    result.delta1_rel_tr = d1_tr
    result.delta2_rel_tr = d2_tr
    oracle = lstsq_min_weighted(hidden, b1, ds)
    result.lstsq_oracle = oracle
    require(check("truncation.closed-vs-lstsq", rel(value, oracle), ORACLE_RTOL), ConsistencyError,
            f"closed-form minimum {value!r} disagrees with least squares {oracle!r}")
    return result


@dataclass
class SweepPoint:
    """One grid entry of a fixed-point-region sweep; exactly one of result and
    error (the raised ShallowminError, its traceback dropped so no frame keeps
    the point's arrays) is set. leak, max|relu(r) - r| at r = w1 tau(X0) + b1,
    is set iff the truncation pass finished."""

    index: int
    result: TruncationResult | None = None
    error: ShallowminError | None = None
    leak: float | None = None

    def to_dict(self, include_matrices: bool = False) -> dict:
        if self.error is not None:
            return {"index": self.index, "error": f"{type(self.error).__name__}: {self.error}"}
        return {"index": self.index, **self.result.to_dict(include_matrices)}


def _sweep_point(i: int, w1, b1, ds: ClassifiedDataset, data_ranks: tuple[int, int]) -> SweepPoint:
    """Grid point i of a sweep, from one truncation pass."""
    point = SweepPoint(index=i)
    try:
        passed = _truncation_pass(w1, b1, ds)
        point.leak = passed[3]
        point.result = _min_over_output_layer(passed, b1, ds, data_ranks)
    except ShallowminError as exc:
        point.error = exc.with_traceback(None)
    return point


def sweep_fixed_point_region(ds: ClassifiedDataset, grid) -> Iterator[SweepPoint]:
    """Evaluate min_over_output_layer on every (w1, b1) grid point, yielding
    each point as soon as it is evaluated.

    Per-point errors are recorded and the sweep continues; points come in grid
    order. All in-region points report the same minimum (the value does not
    depend on (w1, b1) there). The ranks of X0 and of its class means are
    computed once for the whole grid. The sweep keeps no reference to a point
    it has yielded, so a caller that folds each point into scalars holds one
    point's M x N arrays at a time.
    """
    data_ranks = _data_ranks(ds)
    for i, (w1, b1) in enumerate(grid):
        yield _sweep_point(i, w1, b1, ds, data_ranks)
