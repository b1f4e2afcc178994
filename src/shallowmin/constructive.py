"""Closed-form trainers: the general Q <= M construction that realizes the cost
upper bound, and the M = Q construction whose weighted cost is known exactly.

Both build the first layer so that the activation acts as the identity on the
signal block (bias beta1 >= 2 rho lifts every projected sample into the
positive orthant) while the general variant simultaneously pushes the noise
block below zero so the activation deletes it. The output layer then solves a
least-squares matching of class means to targets, and the second bias reverts
the first-layer translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cost import bound_general, cost_l2, cost_weighted, exact_min_weighted, normal_w2
from .dataset import ClassifiedDataset, DatasetStats
from .errors import BetaTooSmall, ConsistencyError, WrongRegime
from .linalg import ProjectorPack, penrose_inverse
from .network import ShallowParams, forward


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

    def beta1(self, rho: float) -> float:
        margin = 0.5 * rho if self.beta1_margin is None else self.beta1_margin
        return 2.0 * rho + margin


def w2_tilde(ds: ClassifiedDataset, stats: DatasetStats) -> np.ndarray:
    """Y times the pseudoinverse of the class means: maps every class mean to
    its target column."""
    return ds.y @ penrose_inverse(stats.means)


def train_general(
    ds: ClassifiedDataset,
    stats: DatasetStats,
    pack: ProjectorPack,
    cfg: ConstructiveConfig = ConstructiveConfig(),
) -> ShallowParams:
    """The general Q <= M construction.

    w1 is the diagonalizing rotation; b1 is beta1 on the leading Q (signal)
    coordinates and -delta on the trailing M-Q (noise) coordinates; w2 matches
    rotated class means to targets in the least-squares sense; b2 reverts the
    signal-block translation. The resulting L2 cost equals the closed-form
    bound up to round-off.
    """
    m, q = ds.m, ds.q
    beta1 = cfg.beta1(stats.rho)
    r = pack.r
    b1 = np.concatenate([np.full(q, beta1), np.full(m - q, -stats.delta)])
    w2 = ds.y @ pack.pen @ pack.p @ r.T
    signal_bias = np.concatenate([np.full(q, beta1), np.zeros(m - q)])
    b2 = -(w2 @ signal_bias)
    params = ShallowParams(w1=r, b1=b1, w2=w2, b2=b2)

    # The activation must act as the identity on the signal block. The first q
    # rows carry the rotated projected data plus beta1; the trailing rows of
    # r p x0 vanish in exact arithmetic and only need a round-off bound.
    rotated_signal = r @ (pack.p @ ds.x0)
    top = rotated_signal[:q, :] + beta1
    if top.min() < 0.0:
        raise BetaTooSmall(
            f"beta1={beta1!r} leaves signal pre-activation at {top.min():.3e} < 0"
        )
    if m > q:
        junk = float(np.max(np.abs(rotated_signal[q:, :])))
        if junk > 1e-9 * (1.0 + stats.rho):
            raise ConsistencyError(f"signal block leaks {junk:.3e} into noise rows")
        # ... and delete the noise block entirely.
        noise_block = (r @ (pack.p_perp @ ds.x0))[q:, :] - stats.delta
        leak = float(noise_block.max())
        if leak > 1e-9 * (1.0 + stats.rho):
            raise ConsistencyError(f"noise block leaks {leak:.3e} above zero")

    achieved = cost_l2(params, ds)
    bound_l2, _ = bound_general(ds, stats, pack)
    if achieved > bound_l2 + 1e-10 * (1.0 + bound_l2):
        raise ConsistencyError(
            f"constructed cost {achieved!r} exceeds its bound {bound_l2!r}"
        )
    return params


def exact_w2(ds: ClassifiedDataset, stats: DatasetStats) -> np.ndarray:
    """Normal-equation output weights of the M = Q construction:
    Y means^T (X0 N^-1 X0^T)^-1."""
    return normal_w2(ds, ds.x0, stats.means)


def train_exact_meq(
    ds: ClassifiedDataset,
    stats: DatasetStats,
    cfg: ConstructiveConfig = ConstructiveConfig(),
) -> ShallowParams:
    """The M = Q construction: identity first layer, bias beta1 on every
    coordinate, output layer from the normal equations, second bias tied to
    revert the translation. Its weighted cost equals exact_min_weighted."""
    if ds.m != ds.q:
        raise WrongRegime(f"requires M = Q, got M={ds.m}, Q={ds.q}")
    q = ds.q
    beta1 = cfg.beta1(stats.rho)
    b1 = np.full(q, beta1)
    preact = ds.x0 + b1[:, None]
    if preact.min() < 0.0:
        raise BetaTooSmall(
            f"beta1={beta1!r} leaves pre-activation at {preact.min():.3e} < 0"
        )
    w2 = exact_w2(ds, stats)
    params = ShallowParams(w1=np.eye(q), b1=b1, w2=w2, b2=-(w2 @ b1))
    achieved = cost_weighted(params, ds)
    target = exact_min_weighted(ds, stats)
    if abs(achieved - target) > 1e-9 * (1.0 + max(achieved, target)):
        raise ConsistencyError(
            f"constructed weighted cost {achieved!r} != exact minimum {target!r}"
        )
    return params


def train(
    ds: ClassifiedDataset,
    stats: DatasetStats,
    pack: ProjectorPack,
    variant: Variant,
    cfg: ConstructiveConfig = ConstructiveConfig(),
) -> ShallowParams:
    if variant is Variant.EXACT:
        return train_exact_meq(ds, stats, cfg)
    return train_general(ds, stats, pack, cfg)


def resolve_output_layer(
    w1: np.ndarray,
    b1: np.ndarray,
    ds: ClassifiedDataset,
    stats: DatasetStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal tied-family (w2, b2) for a fixed identity-regime first layer.

    For (w1, b1) inside the fixed-point region the hidden layer is the affine
    image w1 X0 + b1 1^T, so the normal equations on that hidden data reduce to
    the original ones conjugated by the affine map: w2 = V w1^-1 with V the
    M = Q normal-equation solution, and b2 = -w2 b1.
    """
    w1 = np.asarray(w1, dtype=float)
    b1 = np.asarray(b1, dtype=float).reshape(-1)
    preact = w1 @ ds.x0 + b1[:, None]
    if preact.min() < 0.0:
        raise BetaTooSmall("first layer leaves the identity region")
    v = exact_w2(ds, stats)
    w2 = np.linalg.solve(w1.T, v.T).T
    return w2, -(w2 @ b1)


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


def provenance(
    variant: Variant,
    ds: ClassifiedDataset,
    stats: DatasetStats,
    pack: ProjectorPack,
    cfg: ConstructiveConfig,
) -> dict:
    """Training-time metadata block emitted next to serialized parameters."""
    b_l2, b_dp = bound_general(ds, stats, pack)
    doc = {
        "variant": variant.value,
        "beta1": cfg.beta1(stats.rho),
        "delta": stats.delta,
        "delta_p": stats.delta_p,
        "rho": stats.rho,
        "bound_l2": b_l2,
        "bound_deltap": b_dp,
    }
    if ds.m == ds.q:
        doc["exact_min_weighted"] = exact_min_weighted(ds, stats)
    return doc


def sanity_forward_means(
    params: ShallowParams, ds: ClassifiedDataset, stats: DatasetStats
) -> float:
    """Max Euclidean error of forward(class mean) against the target columns."""
    _, out = forward(params, stats.means)
    return float(np.max(np.linalg.norm(out - ds.y, axis=0)))
