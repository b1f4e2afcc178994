"""Plain full-batch gradient descent on the squared L2 cost, used only as an
empirical comparator against the constructive bounds. The ReLU subgradient at
zero is taken to be zero.

A run allocates its arrays once, in a private workspace: the M x N hidden
layer (written first as the pre-activations), ReLU mask and back-propagated
residual, the Q x N residual, and the four gradients, views of one flat
vector. Each step writes into them and updates the weights, views of another
flat vector, in place, so a step allocates no array."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructive import Fit, Pipeline
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


def _flat_views(flat: np.ndarray, m: int, q: int) -> tuple[np.ndarray, ...]:
    """(w1, b1, w2, b2)-shaped views of one flat vector of (m + q)(m + 1)
    entries, in that order."""
    w1, b1, w2, b2 = np.split(flat, np.cumsum([m * m, m, q * m]))
    return w1.reshape(m, m), b1, w2.reshape(q, m), b2


class _Workspace:
    """The arrays of one full-batch step on data x0 (M x N) with targets
    (Q x N), allocated once per run: the hidden layer (which holds the
    pre-activations until the ReLU runs in place), their ReLU mask, the
    back-propagated residual, the residual (squared in place for the cost
    after its last read), and grads = (g_w1, g_b1, g_w2, g_b2), views of one
    flat vector grad_flat laid out as _flat_views."""

    def __init__(self, x0: np.ndarray, targets: np.ndarray):
        (m, n), q = x0.shape, targets.shape[0]
        self.x0, self.targets, self.n = x0, targets, n
        self.hidden, self.back = np.empty((m, n)), np.empty((m, n))
        self.mask = np.empty((m, n), dtype=bool)
        self.resid = np.empty((q, n))
        self.grad_flat = np.empty((m + q) * (m + 1))
        self.grads = _flat_views(self.grad_flat, m, q)

    def gradients(self, w1, b1, w2, b2) -> float:
        """Write the gradients of the squared cost at (w1, b1, w2, b2) into
        grads and return that cost. The floating-point operations are those
        of hidden = relu(w1 x0 + b1), resid = w2 hidden + b2 - targets and
        their chain rule, in the same order as the allocating formulas, so
        the results are the same bit for bit. fmax(pre, 0) is 0 where pre is
        NaN, as the mask is; it keeps a -0.0, which pre never holds (b1
        starts at +0.0 and a difference is -0.0 only from -0.0 - +0.0)."""
        x0, mask, hidden, resid, back = self.x0, self.mask, self.hidden, self.resid, self.back
        g_w1, g_b1, g_w2, g_b2 = self.grads
        np.matmul(w1, x0, out=hidden)
        hidden += b1[:, None]  # pre, until the mask is read off it
        np.greater(hidden, 0.0, out=mask)
        np.fmax(hidden, 0.0, out=hidden)
        np.matmul(w2, hidden, out=resid)
        resid += b2[:, None]
        resid -= self.targets
        np.matmul(resid, hidden.T, out=g_w2)
        resid.sum(axis=1, out=g_b2)
        np.matmul(w2.T, resid, out=back)
        back *= mask
        np.matmul(back, x0.T, out=g_w1)
        back.sum(axis=1, out=g_b1)
        self.grad_flat *= 2.0 / self.n
        return float(np.multiply(resid, resid, out=resid).sum()) / self.n


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
    work = _Workspace(ds.x0, y_ext(ds))
    flat = np.zeros_like(work.grad_flat)
    w1, b1, w2, b2 = _flat_views(flat, m, q)
    w1[...] = cfg.init_scale * rng.standard_normal((m, m))
    w2[...] = cfg.init_scale * rng.standard_normal((q, m))

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
            work.grad_flat *= lr
            flat -= work.grad_flat
    return ShallowParams(w1=w1, b1=b1, w2=w2, b2=b2), trace


def gd_in_fixed_point_region(params: ShallowParams, ds: ClassifiedDataset) -> bool:
    """Whether the final first layer lies in the fixed-point region (M = Q
    only), by truncation's one first-layer rule."""
    try:
        return _region_preactivation(params.w1, params.b1, ds)[1]
    except ShallowminError:
        return False


def compare(pl: Pipeline, gd_params: ShallowParams, fit: Fit) -> dict:
    """Side-by-side cost figures for a GD run and a constructive fit of pl
    on its dataset, plus the closed-form references: the fit's bounds and,
    for M = Q, the value of pl.minimum (None otherwise). Only GD's costs are
    computed."""
    gd_l2, gd_w = costs(gd_params, pl.ds)
    return {
        "gd": {
            "cost_l2": gd_l2,
            "cost_weighted": gd_w,
            "in_fixed_point_region": gd_in_fixed_point_region(gd_params, pl.ds),
        },
        "constructive": {
            "cost_l2": fit.cost_l2,
            "cost_weighted": fit.cost_weighted,
        },
        "bound_l2": fit.bound_l2,
        "bound_deltap": fit.bound_deltap,
        "exact_min_weighted": pl.minimum.value if pl.ds.m == pl.ds.q else None,
    }
