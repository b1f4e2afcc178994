"""Matching test inputs to classes with the trained network, and the equivalent
nearest-class-mean rule under the induced metric.

For the constructively trained network the Euclidean residual of the network
output against each target column equals the distance from the projected input
to the corresponding class mean under the metric |w2_tilde P (x - y)|. The
network simply cuts off components orthogonal to the span of the class means.
The equality holds on the ball |x| <= beta1, where the first layer stays in its
linear regime.
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


def score(params: ShallowParams, x: np.ndarray, ds: ClassifiedDataset) -> np.ndarray:
    """Euclidean residual of the network output against every target column."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != params.m:
        raise DimensionError(f"input length {x.shape[0]} != M={params.m}")
    _, out = forward(params, x[:, None])
    return np.linalg.norm(out - ds.y, axis=0)


def metric(w2_tilde: np.ndarray, p: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """|w2_tilde P (x - y)|: a genuine metric on the range of P.

    P is applied internally, so arbitrary representatives may be passed; the
    value only depends on Px and Py.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    return float(np.linalg.norm(w2_tilde @ (p @ (x - y))))


def classify(
    params: ShallowParams,
    w2_tilde: np.ndarray,
    p: np.ndarray,
    ds: ClassifiedDataset,
    x: np.ndarray,
) -> ClassificationOutcome:
    """Score x against every class through the network and through the metric.

    winner is the argmin of the network scores with lowest-index tie breaking;
    agreement records whether both score vectors coincide to 1e-9 relative
    (guaranteed for parameters from the general construction and |x| <= beta1).
    """
    s = score(params, x, ds)
    means = class_means(ds)
    px = p @ np.asarray(x, dtype=float).reshape(-1)
    ms = np.array([metric(w2_tilde, p, px, means[:, j]) for j in range(ds.q)])
    agreement = bool(np.all(np.abs(s - ms) <= AGREEMENT_RTOL * (1.0 + s)))
    return ClassificationOutcome(
        scores=s,
        winner=int(np.argmin(s)),
        metric_scores=ms,
        agreement=agreement,
    )
