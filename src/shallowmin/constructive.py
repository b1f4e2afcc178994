"""Closed-form trainers: the general Q <= M construction that realizes the cost
upper bound, and the M = Q construction whose weighted cost is known exactly.

Both build the first layer so that the activation acts as the identity on the
signal block (bias beta1 >= 2 rho lifts every projected sample into the
positive orthant) while the general variant simultaneously pushes the noise
block below zero so the activation deletes it. The output layer then solves a
least-squares matching of class means to targets, and the second bias reverts
the first-layer translation. Each trainer reads its first-layer checks and its
cost off one pass of the network over the data; the M = Q trainer solves the
normal equations once, in cost.exact_minimum. fit returns the parameters with
what their trainer proved (Fit): the costs of that pass, the general bounds
and the M = Q trainer's ExactMinimum, so no caller solves or passes again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cost import ExactMinimum, _residual_sums, bound_general, exact_minimum
from .dataset import ClassifiedDataset, DatasetStats
from .errors import BetaTooSmall, ConsistencyError, WrongRegime
from .linalg import ProjectorPack, op_norm
from .network import ShallowParams, forward
from .truncation import _region_preactivation


class Variant(str, Enum):
    GENERAL = "general"   # Q <= M: rotation + block split
    EXACT = "exact"       # M = Q: identity first layer, exact weighted minimum


@dataclass(frozen=True)
class ConstructiveConfig:
    """beta1_margin is the extra slack added above the 2*rho threshold; None
    selects the default 0.5*rho, which keeps the positivity check away from
    round-off at the boundary."""

    beta1_margin: float | None = None

    def __post_init__(self):
        if self.beta1_margin is not None and self.beta1_margin < 0:
            raise ValueError(f"beta1_margin must be >= 0, got {self.beta1_margin}")
        if self.beta1_margin is not None and not np.isfinite(self.beta1_margin):
            raise ValueError(f"beta1_margin must be finite, got {self.beta1_margin}")

    def beta1(self, rho: float) -> float:
        margin = 0.5 * rho if self.beta1_margin is None else self.beta1_margin
        return 2.0 * rho + margin


@dataclass(frozen=True)
class Fit:
    """Trained parameters with their certificate: the L2 and weighted costs
    of the trainer's one pass over the data, the general bounds (bound_l2,
    bound_deltap) and, from the M = Q trainer only, the ExactMinimum it
    solved (None otherwise)."""

    params: ShallowParams
    cost_l2: float
    cost_weighted: float
    bound_l2: float
    bound_deltap: float
    exact: ExactMinimum | None


def w2_tilde(ds: ClassifiedDataset, pack: ProjectorPack) -> np.ndarray:
    """Y times the pseudoinverse of the class means (pack.pen): maps every
    class mean to its target column."""
    return ds.y @ pack.pen


def fit(ds: ClassifiedDataset, stats: DatasetStats, pack: ProjectorPack | None,
        variant: Variant, cfg: ConstructiveConfig = ConstructiveConfig()) -> Fit:
    """The Fit of one trainer: _fit_general (reads pack) or _fit_exact (M = Q)."""
    if variant is Variant.EXACT:
        return _fit_exact(ds, stats, cfg)
    return _fit_general(ds, stats, pack, cfg)


def train_general(ds: ClassifiedDataset, stats: DatasetStats, pack: ProjectorPack,
                  cfg: ConstructiveConfig = ConstructiveConfig()) -> ShallowParams:
    """The parameters of the general Q <= M construction (_fit_general)."""
    return fit(ds, stats, pack, Variant.GENERAL, cfg).params


def train_exact_meq(ds: ClassifiedDataset, stats: DatasetStats,
                    cfg: ConstructiveConfig = ConstructiveConfig()) -> ShallowParams:
    """The parameters of the M = Q construction (_fit_exact)."""
    return fit(ds, stats, None, Variant.EXACT, cfg).params


def _fit_general(ds: ClassifiedDataset, stats: DatasetStats, pack: ProjectorPack, cfg) -> Fit:
    """The general Q <= M construction.

    w1 is the diagonalizing rotation; b1 is beta1 on the leading Q (signal)
    coordinates and -delta on the trailing M-Q (noise) coordinates; w2 matches
    rotated class means to targets in the least-squares sense; b2 reverts the
    signal-block translation. The resulting L2 cost equals the closed-form
    bound up to round-off.

    One blocked pass of the network over the data yields the cost and, from
    each chunk's hidden layer, the three first-layer checks, all run before
    the cost is compared with the bound:
    - the activation keeps the signal block: the hidden signal rows
      relu(r x + beta1) stay above 0 (BetaTooSmall otherwise);
    - the signal block does not leak into the noise rows: the rows q.. of
      r p x, zero in exact arithmetic, are bounded without the data by
      op_norm((r p)[q:]) rho, never below their largest entry;
    - the activation deletes the noise block: the hidden noise rows
      relu((r x)[q:] - delta) stay at 0 up to round-off.
    """
    m, q = ds.m, ds.q
    beta1 = cfg.beta1(stats.rho)
    r = pack.r
    b1 = np.concatenate([np.full(q, beta1), np.full(m - q, -stats.delta)])
    w2 = w2_tilde(ds, pack) @ pack.p @ r.T
    signal_bias = np.concatenate([np.full(q, beta1), np.zeros(m - q)])
    b2 = -(w2 @ signal_bias)
    params = ShallowParams(w1=r, b1=b1, w2=w2, b2=b2)

    signal_min, noise_max = np.inf, 0.0

    def track(hidden):
        nonlocal signal_min, noise_max
        signal_min = min(signal_min, float(hidden[:q].min()))
        if m > q:
            noise_max = max(noise_max, float(hidden[q:].max()))

    total, weighted = _residual_sums(params, ds, track)
    if not signal_min > 0.0:
        raise BetaTooSmall(
            f"beta1={beta1!r} leaves signal pre-activation at or below 0"
        )
    tol = 1e-9 * (1.0 + stats.rho)
    if m > q:
        junk = op_norm((r @ pack.p)[q:]) * stats.rho
        if junk > tol:
            raise ConsistencyError(f"signal block leaks up to {junk:.3e} into noise rows")
        if noise_max > tol:
            raise ConsistencyError(f"noise block leaks {noise_max:.3e} above zero")
    achieved = float(np.sqrt(total) / np.sqrt(ds.n))
    bound_l2, bound_deltap = bound_general(ds, stats)
    if achieved > bound_l2 + 1e-10 * (1.0 + bound_l2):
        raise ConsistencyError(
            f"constructed cost {achieved!r} exceeds its bound {bound_l2!r}"
        )
    return Fit(params, achieved, float(np.sqrt(weighted)), bound_l2, bound_deltap, None)


def _fit_exact(ds: ClassifiedDataset, stats: DatasetStats, cfg) -> Fit:
    """The M = Q construction: identity first layer, bias beta1 on every
    coordinate, output layer from the normal equations, second bias tied to
    revert the translation. w2 and the target value come from one
    exact_minimum call; one pass then yields the weighted cost, which must
    equal it, and checks that relu(X0 + beta1) stays above 0. The general
    bounds are taken last, after the trainer's own checks."""
    if ds.m != ds.q:
        raise WrongRegime(f"requires M = Q, got M={ds.m}, Q={ds.q}")
    q = ds.q
    beta1 = cfg.beta1(stats.rho)
    b1 = np.full(q, beta1)
    exact = exact_minimum(ds, stats)
    params = ShallowParams(w1=np.eye(q), b1=b1, w2=exact.w2, b2=-(exact.w2 @ b1))
    hidden_mins = []
    total, weighted = _residual_sums(params, ds, lambda hidden: hidden_mins.append(hidden.min()))
    if not min(hidden_mins) > 0.0:
        raise BetaTooSmall(f"beta1={beta1!r} leaves pre-activation at or below 0")
    achieved = float(np.sqrt(weighted))
    target = exact.value
    if abs(achieved - target) > 1e-9 * (1.0 + max(achieved, target)):
        raise ConsistencyError(
            f"constructed weighted cost {achieved!r} != exact minimum {target!r}"
        )
    return Fit(params, float(np.sqrt(total) / np.sqrt(ds.n)), achieved,
               *bound_general(ds, stats), exact)


def tied_output_layer(w1, b1, ds: ClassifiedDataset, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal tied-family (w2, b2) for a fixed identity-regime first layer,
    given v = ExactMinimum.w2, the M = Q normal-equation solution of ds.

    For (w1, b1) inside the fixed-point region the hidden layer is the affine
    image w1 X0 + b1 1^T, so the normal equations on that hidden data reduce to
    the original ones conjugated by the affine map: w2 = v w1^-1 and
    b2 = -w2 b1. Raises what truncation's first-layer rule raises
    (WrongRegime, SingularW1), BetaTooSmall outside the region.
    """
    if not _region_preactivation(w1, b1, ds)[1]:
        raise BetaTooSmall("first layer leaves the identity region")
    w2 = np.linalg.solve(np.transpose(w1), v.T).T
    return w2, -(w2 @ np.ravel(b1))


def in_region_perturbation(
    params: ShallowParams,
    stats: DatasetStats,
    beta1: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Random (w1, b1) perturbation small enough to stay inside the fixed-point
    region: w1 -> w1 @ (I + A) with ||A||_op < eps, b1 -> b1 + v with |v| < eps,
    eps = 1e-3 (beta1 - 2 rho + delta)."""
    q = params.m
    epsilon = 1e-3 * (beta1 - 2.0 * stats.rho + stats.delta)
    epsilon = max(epsilon, 1e-6 * (1.0 + beta1))  # zero-margin, zero-noise corner
    a = rng.standard_normal((q, q))
    a *= 0.9 * epsilon / max(np.linalg.norm(a, 2), 1e-300)
    v = rng.standard_normal(q)
    v *= 0.9 * epsilon * rng.uniform() / max(np.linalg.norm(v), 1e-300)
    return params.w1 @ (np.eye(q) + a), params.b1 + v


def provenance(variant: Variant, fit: Fit, ds: ClassifiedDataset, stats: DatasetStats,
               cfg: ConstructiveConfig) -> dict:
    """Training-time metadata block emitted next to serialized parameters:
    the bounds of the fit and, for M = Q, the exact minimum its trainer
    solved (solved here only after the general trainer)."""
    doc = {
        "variant": variant.value,
        "beta1": cfg.beta1(stats.rho),
        "delta": stats.delta,
        "delta_p": stats.delta_p,
        "rho": stats.rho,
        "bound_l2": fit.bound_l2,
        "bound_deltap": fit.bound_deltap,
    }
    if ds.m == ds.q:
        doc["exact_min_weighted"] = (fit.exact or exact_minimum(ds, stats)).value
    return doc


def sanity_forward_means(
    params: ShallowParams, ds: ClassifiedDataset, stats: DatasetStats
) -> float:
    """Max Euclidean error of forward(class mean) against the target columns."""
    _, out = forward(params, stats.means)
    return float(np.max(np.linalg.norm(out - ds.y, axis=0)))
