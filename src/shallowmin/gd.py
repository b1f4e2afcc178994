"""Plain full-batch gradient descent on the squared L2 cost, used only as an
empirical comparator against the constructive bounds. The ReLU subgradient at
zero is taken to be zero.

A run allocates its arrays once, in a private workspace: the M x N
pre-activations, mask, hidden layer and back-propagated residual, the Q x N
residual and its square, and the four gradients. Each step writes into them
and updates the weights in place, so a step allocates no array."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructive import Fit
from .cost import costs
from .dataset import ClassifiedDataset, y_ext
from .errors import Diverged, ShallowminError
from .network import ShallowParams
from .truncation import _region_preactivation


@dataclass(frozen=True)
class GdConfig:
    learning_rate: float = 1e-2
    steps: int = 20000
    seed: int = 0
    init_scale: float = 0.1
    record_every: int = 100

    def __post_init__(self):
        if self.learning_rate < 0 or self.steps < 0 or self.init_scale < 0:
            raise ValueError("learning_rate, steps and init_scale must be >= 0")
        if not np.isfinite([self.learning_rate, self.init_scale]).all():
            raise ValueError("learning_rate and init_scale must be finite")
        if self.record_every <= 0:
            raise ValueError("record_every must be positive")


class _Workspace:
    """The arrays of one full-batch step on data x0 (M x N) with targets
    (Q x N), allocated once per run: the pre-activations, their ReLU mask,
    the hidden layer, the residual and its square, the back-propagated
    residual, and grads = (g_w1, g_b1, g_w2, g_b2)."""

    def __init__(self, x0: np.ndarray, targets: np.ndarray):
        (m, n), q = x0.shape, targets.shape[0]
        self.x0, self.targets, self.n = x0, targets, n
        self.pre, self.hidden, self.back = np.empty((m, n)), np.empty((m, n)), np.empty((m, n))
        self.mask = np.empty((m, n), dtype=bool)
        self.resid, self.resid_sq = np.empty((q, n)), np.empty((q, n))
        self.grads = (np.empty((m, m)), np.empty(m), np.empty((q, m)), np.empty(q))

    def gradients(self, w1, b1, w2, b2) -> float:
        """Write the gradients of the squared cost at (w1, b1, w2, b2) into
        grads and return that cost. The floating-point operations are those
        of hidden = relu(w1 x0 + b1), resid = w2 hidden + b2 - targets and
        their chain rule, in the same order as the allocating formulas, so
        the results are the same bit for bit."""
        x0, pre, mask, hidden, resid, back = (self.x0, self.pre, self.mask, self.hidden,
                                              self.resid, self.back)
        g_w1, g_b1, g_w2, g_b2 = self.grads
        scale = 2.0 / self.n
        np.matmul(w1, x0, out=pre)
        pre += b1[:, None]
        np.greater(pre, 0.0, out=mask)
        hidden.fill(0.0)
        np.copyto(hidden, pre, where=mask)
        np.matmul(w2, hidden, out=resid)
        resid += b2[:, None]
        resid -= self.targets
        np.matmul(resid, hidden.T, out=g_w2)
        g_w2 *= scale
        resid.sum(axis=1, out=g_b2)
        g_b2 *= scale
        np.matmul(w2.T, resid, out=back)
        back *= mask
        np.matmul(back, x0.T, out=g_w1)
        g_w1 *= scale
        back.sum(axis=1, out=g_b1)
        g_b1 *= scale
        return float(np.multiply(resid, resid, out=self.resid_sq).sum()) / self.n


def train_gd(
    ds: ClassifiedDataset, cfg: GdConfig = GdConfig()
) -> tuple[ShallowParams, list[tuple[int, float]]]:
    """Full-batch subgradient descent on the squared cost.

    Weights start Gaussian with std init_scale, biases at zero; the run is
    bit-reproducible per seed. The trace records (step, cost_l2) every
    record_every steps plus the initial and final points. Raises Diverged, and
    no numpy warning, if the cost exceeds 1e6 x its initial value or is not
    finite. With zero biases and entirely negative inputs the whole hidden
    layer can start dead and the run stalls at the constant predictor; this is
    inherent to the baseline.
    """
    rng = np.random.default_rng(cfg.seed)
    m, q = ds.m, ds.q
    w1 = cfg.init_scale * rng.standard_normal((m, m))
    b1 = np.zeros(m)
    w2 = cfg.init_scale * rng.standard_normal((q, m))
    b2 = np.zeros(q)
    work = _Workspace(ds.x0, y_ext(ds))

    trace: list[tuple[int, float]] = []
    initial_cost = None
    lr = cfg.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps + 1):
            cost = float(np.sqrt(work.gradients(w1, b1, w2, b2)))
            if initial_cost is None:
                initial_cost = cost
            if initial_cost > 0 and cost > 1e6 * initial_cost:
                raise Diverged(f"cost {cost:.3e} exceeds 1e6 x initial {initial_cost:.3e}")
            if not np.isfinite(cost):
                raise Diverged(f"cost {cost} is not finite")
            if step % cfg.record_every == 0 or step == cfg.steps:
                trace.append((step, cost))
            if step == cfg.steps:
                break
            for w, g in zip((w1, b1, w2, b2), work.grads):
                g *= lr
                w -= g
    return ShallowParams(w1=w1, b1=b1, w2=w2, b2=b2), trace


def gd_in_fixed_point_region(params: ShallowParams, ds: ClassifiedDataset) -> bool:
    """Whether the final first layer lies in the fixed-point region (M = Q
    only), by truncation's one first-layer rule."""
    try:
        return _region_preactivation(params.w1, params.b1, ds)[1]
    except ShallowminError:
        return False


def compare(ds: ClassifiedDataset, gd_params: ShallowParams, fit: Fit) -> dict:
    """Side-by-side cost figures for a GD run and a constructive fit on the
    same dataset, plus the fit's closed-form references (exact_min_weighted
    is None unless the fit is the M = Q one). Only GD's costs are computed."""
    gd_l2, gd_w = costs(gd_params, ds)
    return {
        "gd": {
            "cost_l2": gd_l2,
            "cost_weighted": gd_w,
            "in_fixed_point_region": gd_in_fixed_point_region(gd_params, ds),
        },
        "constructive": {
            "cost_l2": fit.cost_l2,
            "cost_weighted": fit.cost_weighted,
        },
        "bound_l2": fit.bound_l2,
        "bound_deltap": fit.bound_deltap,
        "exact_min_weighted": None if fit.exact is None else fit.exact.value,
    }
