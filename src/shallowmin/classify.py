"""Matching test inputs to classes with the trained network, and the equivalent
nearest-class-mean rule under the induced metric.

For the constructively trained network the Euclidean residual of the network
output against each target column equals the distance from the projected input
to the corresponding class mean under the metric |w2_tilde P (x - y)|. The
network simply cuts off components orthogonal to the span of the class means.
The equality holds on the ball |x| <= beta1, where the first layer stays in its
linear regime.

Every winner is the row-wise argmin of score_batch over an M x K block of
inputs, which needs only the parameters and the targets. classify_batch adds
the metric scores and their agreement; the class means are passed in once, so
a block costs one forward pass and Q linear maps, never a pass over the
training data per input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ClassifiedDataset, class_means
from .errors import DimensionError
from .network import ShallowParams, forward

AGREEMENT_RTOL = 1e-9


@dataclass
class ClassificationOutcome:
    scores: np.ndarray         # Q network residuals
    winner: int                # argmin, lowest index on ties
    metric_scores: np.ndarray  # Q metric distances
    agreement: bool            # scores ~ metric_scores componentwise


@dataclass
class BatchOutcome:
    """classify_batch results, one row per input column."""

    scores: np.ndarray         # K x Q network residuals
    winners: np.ndarray        # (K,) argmin per row, lowest index on ties
    metric_scores: np.ndarray  # K x Q metric distances
    agreement: np.ndarray      # (K,) bool, scores ~ metric_scores componentwise


def _input_block(params: ShallowParams, x) -> np.ndarray:
    """x as an M x K float block; wrong heights and non-finite columns raise."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != params.m:
        raise DimensionError(f"input block shape {x.shape} != ({params.m}, K)")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=0))
    if bad.size:
        raise DimensionError(f"input column {bad[0]} contains non-finite entries")
    return x


def _input_column(params: ShallowParams, x) -> np.ndarray:
    """A single input as an M x 1 block."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != params.m:
        raise DimensionError(f"input length {x.shape[0]} != M={params.m}")
    return x[:, None]


def score_batch(params: ShallowParams, y: np.ndarray, x) -> np.ndarray:
    """K x Q Euclidean residuals of the network outputs on the M x K block x
    against every target column of y, by direct differences."""
    x = _input_block(params, x)
    if y.shape != (params.q, params.q):
        raise DimensionError(f"targets shape {y.shape} != ({params.q}, {params.q})")
    _, out = forward(params, x)
    return np.stack(
        [np.linalg.norm(out - y[:, j:j + 1], axis=0) for j in range(y.shape[1])], axis=1)


def metric(w2_tilde: np.ndarray, p: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """|w2_tilde P (x - y)|: a genuine metric on the range of P.

    P is applied internally, so arbitrary representatives may be passed; the
    value only depends on Px and Py.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    return float(np.linalg.norm(w2_tilde @ (p @ (x - y))))


def classify_batch(
    params: ShallowParams,
    w2_tilde: np.ndarray,
    p: np.ndarray,
    means: np.ndarray,
    y: np.ndarray,
    x,
) -> BatchOutcome:
    """Score every column of the M x K block x against every class through the
    network and through the metric.

    means are the M x Q class means (stats.means) and y the Q x Q targets.
    winners are the row-wise argmin of the network scores with lowest-index
    tie breaking; agreement records per input whether both score vectors
    coincide to 1e-9 relative (guaranteed for parameters from the general
    construction and |x| <= beta1). Non-finite inputs raise DimensionError.
    """
    if means.shape != (params.m, params.q):
        raise DimensionError(f"means shape {means.shape} != ({params.m}, {params.q})")
    x = _input_block(params, x)
    s = score_batch(params, y, x)
    px = p @ x
    ms = np.stack(
        [np.linalg.norm(w2_tilde @ (p @ (px - means[:, j:j + 1])), axis=0)
         for j in range(params.q)], axis=1)
    return BatchOutcome(
        scores=s,
        winners=np.argmin(s, axis=1),
        metric_scores=ms,
        agreement=np.all(np.abs(s - ms) <= AGREEMENT_RTOL * (1.0 + s), axis=1),
    )


def classify(
    params: ShallowParams,
    w2_tilde: np.ndarray,
    p: np.ndarray,
    ds: ClassifiedDataset,
    x: np.ndarray,
) -> ClassificationOutcome:
    """classify_batch of the single input x; see there.

    Computes the class means of ds on every call: use classify_batch with
    stats.means for more than one input.
    """
    out = classify_batch(params, w2_tilde, p, class_means(ds), ds.y, _input_column(params, x))
    return ClassificationOutcome(
        scores=out.scores[0],
        winner=int(out.winners[0]),
        metric_scores=out.metric_scores[0],
        agreement=bool(out.agreement[0]),
    )
