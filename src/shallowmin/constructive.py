"""Closed-form trainers: the general Q <= M construction that realizes the cost
upper bound, and the M = Q construction whose weighted cost is known exactly.

Both build the first layer so that the activation acts as the identity on the
signal block (bias beta1 >= 2 rho lifts every projected sample into the
positive orthant) while the general variant simultaneously pushes the noise
block below zero so the activation deletes it. The output layer then solves a
least-squares matching of class means to targets, and the second bias reverts
the first-layer translation. Each trainer reads its first-layer checks and its
cost off one pass of the network over the data.

Everything derived from one dataset hangs off one Pipeline record, built by
pipeline(ds, cfg) from one dataset_stats call and shared by every verify suite
and command: the M = Q closed form, both fits and the scale-invariance slack,
each built once, on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .checks import Check, check, rel, require
from .cost import ExactMinimum, bound_chain, bound_general, costs, exact_minimum
from .dataset import ClassifiedDataset, DatasetStats, dataset_stats, seal
from .errors import BetaTooLarge, BetaTooSmall, ConsistencyError, WrongRegime
from .linalg import ProjectorPack, op_norm, projector_pack
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
    bound_deltap) and the cost checks it passed, which verify prints."""

    params: ShallowParams
    cost_l2: float
    cost_weighted: float
    bound_l2: float
    bound_deltap: float
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class Pipeline:
    """One dataset, its stats and pack (one dataset_stats call) and the trainers'
    config; minimum, general, square and scale_slack are built on first read
    and kept."""

    ds: ClassifiedDataset
    stats: DatasetStats
    pack: ProjectorPack
    cfg: ConstructiveConfig = ConstructiveConfig()

    @cached_property
    def minimum(self) -> ExactMinimum:
        """The M = Q closed form (WrongRegime otherwise)."""
        if self.ds.m != self.ds.q:
            raise WrongRegime(f"requires M = Q, got M={self.ds.m}, Q={self.ds.q}")
        return exact_minimum(self.ds, self.stats.means)

    @cached_property
    def general(self) -> Fit:
        """The Fit of the general Q <= M trainer (_fit_general)."""
        return _fit_general(self)

    @cached_property
    def square(self) -> Fit:
        """The Fit of the M = Q trainer (_fit_exact)."""
        return _fit_exact(self)

    @cached_property
    def scale_slack(self) -> float:
        """Worst relative change of bound_l2 and delta_p under X0 -> lambda X0,
        lambda in {0.1, 10}; each scaled copy builds its own record."""
        b_l2, _ = bound_general(self.ds, self.stats)
        worst = 0.0
        for lam in (0.1, 10.0):
            scaled = pipeline(replace(self.ds, x0=lam * self.ds.x0))
            b_l2_l, _ = bound_general(scaled.ds, scaled.stats)
            worst = max(worst, rel(b_l2_l, b_l2), rel(scaled.stats.delta_p, self.stats.delta_p))
        return worst


def pipeline(ds: ClassifiedDataset, cfg: ConstructiveConfig = ConstructiveConfig()) -> Pipeline:
    """The Pipeline record of ds: class means, pack and stats, nothing more."""
    return Pipeline(ds, *dataset_stats(ds), cfg)


def w2_tilde(ds: ClassifiedDataset, pack: ProjectorPack) -> np.ndarray:
    """Y times the pseudoinverse of the class means (pack.pen): maps every
    class mean to its target column."""
    return ds.y @ pack.pen


def train_general(ds: ClassifiedDataset, stats: DatasetStats, pack: ProjectorPack,
                  cfg: ConstructiveConfig = ConstructiveConfig()) -> ShallowParams:
    """The parameters of the general Q <= M construction (Pipeline.general)."""
    return Pipeline(ds, stats, pack, cfg).general.params


def train_exact_meq(ds: ClassifiedDataset, stats: DatasetStats,
                    cfg: ConstructiveConfig = ConstructiveConfig()) -> ShallowParams:
    """The parameters of the M = Q construction (Pipeline.square)."""
    return Pipeline(ds, stats, projector_pack(stats.means), cfg).square.params


def _tied_pass(pl: Pipeline, w1, b1, w2, lifted, on_hidden) -> tuple[ShallowParams, float, float]:
    """Params (w1, b1, w2, -w2 lifted) and the (cost_l2, cost_weighted) of their
    one pass over pl.ds; a numpy overflow there, at a scale beta1 sets, raises
    BetaTooLarge, not a warning. The params hold sealed copies, so the pass's
    costs stay readable by cost queries on them, and the arrays passed in
    (ExactMinimum.w2) stay writable."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            w1, b1, w2 = (seal(np.array(a)) for a in (w1, b1, w2))
            params = ShallowParams(w1=w1, b1=b1, w2=w2, b2=seal(-(w2 @ lifted)))
            return (params, *costs(params, pl.ds, on_hidden))
    except FloatingPointError as exc:
        beta1 = pl.cfg.beta1(pl.stats.rho)
        raise BetaTooLarge(f"beta1={beta1!r} overflows the trainer's pass ({exc})") from None


def _cost_miss(pl: Pipeline, w2, tol: float, message: str):
    """Raise for a failed cost check, tol being its tolerance on an output: BetaTooLarge if
    the lift X0 + beta1 rounds an output by eps beta1 ||w2||_op > tol, else ConsistencyError."""
    beta1 = pl.cfg.beta1(pl.stats.rho)
    lift = float(np.finfo(float).eps) * beta1 * op_norm(w2)
    if lift > tol:
        raise BetaTooLarge(f"beta1={beta1!r} rounds away X0's digits ({lift:.3e} > {tol:.3e})")
    raise ConsistencyError(message)


def _fit_general(pl: Pipeline) -> Fit:
    """The general Q <= M construction.

    w1 is the rotation pack.r that diagonalizes pack.p; b1 is beta1 on the
    leading Q (signal) coordinates and -delta on the trailing M-Q (noise)
    coordinates; w2 matches rotated class means to targets in the
    least-squares sense; b2 reverts the signal-block translation. The
    resulting L2 cost equals the closed-form bound up to round-off.

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
    ds, stats, pack = pl.ds, pl.stats, pl.pack
    m, q = ds.m, ds.q
    beta1 = pl.cfg.beta1(stats.rho)
    r = pack.r
    b1 = np.concatenate([np.full(q, beta1), np.full(m - q, -stats.delta)])
    w2 = w2_tilde(ds, pack) @ pack.p @ r.T
    signal_bias = np.concatenate([np.full(q, beta1), np.zeros(m - q)])
    signal_min, noise_max = np.inf, 0.0

    def track(hidden):
        nonlocal signal_min, noise_max
        signal_min = min(signal_min, float(hidden[:q].min()))
        if m > q:
            noise_max = max(noise_max, float(hidden[q:].max()))

    params, achieved, cost_w = _tied_pass(pl, r, b1, w2, signal_bias, track)
    if not signal_min > 0.0:
        raise BetaTooSmall(
            f"beta1={beta1!r} leaves signal pre-activation at or below 0"
        )
    tol = 1e-9 * (1.0 + stats.rho)
    if m > q:
        junk = op_norm((r @ pack.p)[q:]) * stats.rho
        require(check("general.signal-leak", junk, tol), ConsistencyError,
                f"signal block leaks up to {junk:.3e} into noise rows")
        require(check("general.noise-leak", noise_max, tol), ConsistencyError,
                f"noise block leaks {noise_max:.3e} above zero")
    bound_l2, bound_deltap = bound_general(ds, stats)
    le_bound = check("bounds.cost-le-bound", achieved - bound_l2, 1e-10 * (1.0 + bound_l2),
                     f"cost={achieved:.6e} bound_l2={bound_l2:.6e}")
    if not le_bound.passed:
        _cost_miss(pl, w2, le_bound.tolerance,
                   f"constructed cost {achieved!r} exceeds its bound {bound_l2!r}")
    return Fit(params, achieved, cost_w, bound_l2, bound_deltap,
               (le_bound, bound_chain(bound_l2, bound_deltap)))


def _fit_exact(pl: Pipeline) -> Fit:
    """The M = Q construction: identity first layer, bias beta1 on every
    coordinate, output layer from the normal equations, second bias tied to
    revert the translation. w2 and the target value are read from pl.minimum
    (first: WrongRegime unless M = Q); one pass then yields the weighted cost,
    which must equal it, and checks that relu(X0 + beta1) stays above 0. The
    general bounds are taken last, after the trainer's own checks."""
    exact, ds, stats = pl.minimum, pl.ds, pl.stats
    beta1 = pl.cfg.beta1(stats.rho)
    b1 = np.full(ds.q, beta1)
    hidden_mins = []
    params, c_l2, cw = _tied_pass(pl, np.eye(ds.q), b1, exact.w2, b1,
                                  lambda hidden: hidden_mins.append(hidden.min()))
    if not min(hidden_mins) > 0.0:
        raise BetaTooSmall(f"beta1={beta1!r} leaves pre-activation at or below 0")
    em, spec = exact.value, exact.spec
    eq_closed = check("exact.cost-eq-closed-form", rel(cw, em), 1e-9,
                      f"cost_N={cw:.9e} closed={em:.9e} spec(D2)=[{spec[0]:.3e},{spec[-1]:.3e}]")
    if not eq_closed.passed:  # the weighted cost moves by up to sqrt(Q) x an output
        _cost_miss(pl, exact.w2, eq_closed.tolerance * (1.0 + em) / np.sqrt(ds.q),
                   f"constructed weighted cost {cw!r} != exact minimum {em!r}")
    return Fit(params, c_l2, cw, *bound_general(ds, stats), (eq_closed,))


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


def provenance(variant: Variant, fit: Fit, pl: Pipeline) -> dict:
    """Training-time metadata block emitted next to serialized parameters:
    the bounds of the fit and, for M = Q, the value of pl.minimum (solved
    here only after the general trainer)."""
    doc = {
        "variant": variant.value,
        "beta1": pl.cfg.beta1(pl.stats.rho),
        "delta": pl.stats.delta,
        "delta_p": pl.stats.delta_p,
        "rho": pl.stats.rho,
        "bound_l2": fit.bound_l2,
        "bound_deltap": fit.bound_deltap,
    }
    if pl.ds.m == pl.ds.q:
        doc["exact_min_weighted"] = pl.minimum.value
    return doc


def sanity_forward_means(
    params: ShallowParams, ds: ClassifiedDataset, stats: DatasetStats
) -> float:
    """Max Euclidean error of forward(class mean) against the target columns."""
    _, out = forward(params, stats.means)
    return float(np.max(np.linalg.norm(out - ds.y, axis=0)))
