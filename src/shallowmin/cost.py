"""Cost functionals, the data-side projector, relative deviations, and the
closed-form bound / minimum expressions.

The plain L2 cost (1/sqrt(N)) ||X2 - Yext||_F and the size-weighted cost
sqrt(sum_j ||residual_j||_F^2 / N_j) come from one blocked residual kernel
that forms neither the M x N hidden layer nor the Q x N residual. A full pass
over a dataset with a read-only X0 records its sums for that params object;
a later cost query on the same params and dataset reads the record while
w1, b1, w2, b2 and Y still match its copies. The general bound is read from
the statistics. The M = Q closed forms are functions of the relative
deviation Gram alone, cross-checked at runtime against the matrix-free data
projector route; only data_projector forms the N x N projector, for tests,
and it refuses N > MAX_PROJECTOR_N. ExactMinimum keeps its route check, and
bound_chain is the one form of the bound chain's check; verify prints both.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .checks import Check, check, rel, require
from .dataset import ClassifiedDataset, DatasetStats, block_slices, column_chunks, deviations, y_ext
from .errors import (
    ConsistencyError,
    NotPositiveSemidefinite,
    SingularGram,
    SingularMeans,
    WrongRegime,
)
from .linalg import SV_TOLERANCE, ProjectorPack, numerical_rank, op_norm, sum_squares
from .network import ShallowParams, forward

# Largest N for which data_projector materializes the N x N projector. No
# runtime check needs it: projector_route and projector_action are matrix-free.
MAX_PROJECTOR_N = 5000


def weighted_norm(a: np.ndarray, class_sizes) -> float:
    """sqrt(Tr(A N^-1 A^T)): Frobenius norm with columns weighted by 1/N_j per
    class, summed class block by class block with no temporary."""
    return float(np.sqrt(sum(sum_squares(a[:, sl]) / nj
                             for sl, nj in zip(block_slices(class_sizes), class_sizes))))


# Sums of the last recorded residual pass per live ShallowParams, keyed by
# id(p) and dropped when p is collected: (weak reference to the dataset, copies
# of w1, b1, w2, b2 and Y, sum ||r||^2, sum_j ||r_j||^2 / N_j).
_records: dict[int, tuple] = {}


def _inputs(p: ShallowParams, ds: ClassifiedDataset) -> tuple[np.ndarray, ...]:
    return p.w1, p.b1, p.w2, p.b2, ds.y


def _read_only(a: np.ndarray) -> bool:
    """True when no writable array shares a's memory: a and every array it is
    a view of are read-only, down to one that owns its data."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        if a.base is None:
            return True
        a = a.base
    return False


def _residual_sums(p: ShallowParams, ds: ClassifiedDataset, on_hidden=None) -> tuple[float, float]:
    """(sum ||r||^2, sum_j ||r_j||^2 / N_j) of the residual r = X2 - Yext.

    The network runs on each class block in column chunks; y_j is subtracted
    in place from each chunk's output, whose squares are summed before the
    next chunk, so no M x N hidden layer and no Q x N residual is formed.
    on_hidden, if given, is called with each chunk's hidden layer, so a
    caller can check the hidden layer within this same pass.

    When ds.x0 is read-only (_read_only), each full pass records its sums for
    p. Without on_hidden, the record is returned and the network does not run
    if it was made on this same dataset object and w1, b1, w2, b2 and ds.y
    still equal its copies; with on_hidden the pass always runs, so a check
    reads only values it produced."""
    sealed = _read_only(ds.x0)
    record = _records.get(id(p)) if sealed and on_hidden is None else None
    if (record is not None and record[0]() is ds
            and all(map(np.array_equal, record[1], _inputs(p, ds)))):
        return record[2], record[3]
    total = weighted = 0.0
    for sl, target, nj in zip(ds.class_slices(), ds.y.T, ds.class_sizes):
        block = 0.0
        for chunk in column_chunks(sl):
            hidden, resid = forward(p, ds.x0[:, chunk])
            if on_hidden is not None:
                on_hidden(hidden)
            del hidden  # freed before the next chunk's hidden layer is formed
            resid -= target[:, None]
            block += sum_squares(resid)
        total += block
        weighted += block / nj
    if sealed:
        if id(p) not in _records:
            weakref.finalize(p, _records.pop, id(p), None)
        copies = tuple(np.array(a) for a in _inputs(p, ds))
        _records[id(p)] = (weakref.ref(ds), copies, total, weighted)
    return total, weighted


def cost_l2(p: ShallowParams, ds: ClassifiedDataset) -> float:
    """(1/sqrt(N)) ||X2 - Yext||_F."""
    return costs(p, ds)[0]


def cost_weighted(p: ShallowParams, ds: ClassifiedDataset) -> float:
    """Size-weighted cost; equals sqrt(Q) x cost_l2 for uniform class sizes."""
    return costs(p, ds)[1]


def costs(p: ShallowParams, ds: ClassifiedDataset) -> tuple[float, float]:
    """(cost_l2, cost_weighted) from one pass of the network over the data,
    or from the sums an earlier pass recorded for p on this dataset object."""
    total, weighted = _residual_sums(p, ds)
    return float(np.sqrt(total) / np.sqrt(ds.n)), float(np.sqrt(weighted))


def _gram(x: np.ndarray, inv_n: np.ndarray) -> np.ndarray:
    """x N^-1 x^T, checked for invertibility."""
    gram = (x * inv_n[None, :]) @ x.T
    s = np.linalg.svd(gram, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= SV_TOLERANCE * s[0]:
        raise SingularGram(
            f"X0 N^-1 X0^T is numerically singular "
            f"(singular values {s[-1]:.3e}..{s[0]:.3e})"
        )
    return gram


def normal_w2(ds: ClassifiedDataset, gram: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Normal-equation output weights W2 = Y means^T gram^-1 for inputs x
    (M x N, grouped like ds) of class means `means`, gram = _gram(x, N^-1).

    Since Yext N^-1 x^T = Y means^T, W2 x = Yext P(x) with P(x) the data
    projector N^-1 x^T (x N^-1 x^T)^-1 x.
    """
    return np.linalg.solve(gram, means @ ds.y.T).T


def projector_route(ds: ClassifiedDataset, x: np.ndarray, means: np.ndarray) -> float:
    """||Yext Pperp(x)|| in the weighted norm, as the Q x N residual
    normal_w2 x - Yext; never forms the N x N projector."""
    w2 = normal_w2(ds, _gram(x, ds.inv_size_weights()), means)
    return weighted_norm(w2 @ x - y_ext(ds), ds.class_sizes)


def projector_action(ds: ClassifiedDataset, gram: np.ndarray, z: np.ndarray) -> np.ndarray:
    """N^-1 X0^T gram^-1 (X0 z): the data projector of ds applied to the
    N x k block z, given gram = _gram(ds.x0, ds.inv_size_weights()) (as
    ExactMinimum.gram keeps it). Forms no N x N matrix unless z is one."""
    out = ds.x0.T @ np.linalg.solve(gram, ds.x0 @ z)
    out *= ds.inv_size_weights()[:, None]
    return out


def data_projector(ds: ClassifiedDataset) -> np.ndarray:
    """The N x N data projector N^-1 X0^T (X0 N^-1 X0^T)^-1 X0 in the M = Q
    regime, orthogonal with respect to the class-size inner product.

    Refuses datasets with N > MAX_PROJECTOR_N before allocating anything;
    projector_action and projector_route never form an N x N matrix.
    """
    if ds.m != ds.q:
        raise WrongRegime(f"data projector requires M = Q, got M={ds.m}, Q={ds.q}")
    if ds.n > MAX_PROJECTOR_N:
        raise WrongRegime(
            f"refusing to materialize a {ds.n} x {ds.n} projector "
            f"(MAX_PROJECTOR_N={MAX_PROJECTOR_N}); use projector_action"
        )
    return projector_action(ds, _gram(ds.x0, ds.inv_size_weights()), np.eye(ds.n))


def relative_gram(
    means: np.ndarray, dev: np.ndarray, inv_n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-normalized deviations means^-1 dev (Q x N) and their Gram
    Delta1 diag(inv_n) Delta1^T (Q x Q PSD, explicitly symmetrized); means must
    be square and invertible."""
    d1 = np.linalg.solve(means, dev)
    d2 = (d1 * inv_n[None, :]) @ d1.T
    d2 = 0.5 * (d2 + d2.T)
    return d1, d2


def relative_deviations(
    ds: ClassifiedDataset, stats: DatasetStats
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-normalized deviations (Q x N) and their size-weighted Gram (Q x Q PSD).

    Both are invariant under reparametrizations X0 -> K X0, K in GL(Q).
    """
    if ds.m != ds.q:
        raise WrongRegime(f"relative deviations require M = Q, got M={ds.m}, Q={ds.q}")
    if numerical_rank(stats.means) < ds.q:
        raise SingularMeans("reduced mean matrix is numerically singular")
    return relative_gram(stats.means, deviations(ds, stats.means), ds.inv_size_weights())


def _psd_eig(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a PSD-up-to-roundoff matrix, eigenvalues clamped at 0."""
    w, v = np.linalg.eigh(d2)
    require(check("psd-floor", -w.min(), 1e-12), NotPositiveSemidefinite,
            f"relative deviation Gram has eigenvalue {w.min():.3e} < -1e-12")
    return np.clip(w, 0.0, None), v


def closed_form_min(y: np.ndarray, d2: np.ndarray) -> float:
    """||Y V diag(sqrt(l/(1+l)))||_F from the eigendecomposition (l, V) of a
    relative deviation Gram d2: the weighted-cost minimum over the tied
    output-layer family."""
    w, v = _psd_eig(d2)
    return float(np.linalg.norm((y @ v) * np.sqrt(w / (1.0 + w))[None, :]))


@dataclass(frozen=True)
class ExactMinimum:
    """The M = Q closed form of one dataset: relative deviations d1, their Gram
    d2, the checked Gram X0 N^-1 X0^T and normal-equation output weights w2,
    the closed-form weighted minimum value, the projector route of w2 and its
    route_check (exact.projector-route)."""

    d1: np.ndarray
    d2: np.ndarray
    gram: np.ndarray
    w2: np.ndarray
    value: float
    route: float
    route_check: Check


def exact_minimum(ds: ClassifiedDataset, stats: DatasetStats) -> ExactMinimum:
    """ExactMinimum from one relative_deviations pass and one _gram solve.

    The value is ||Y V diag(sqrt(l/(1+l))) V^T||_F from the eigendecomposition
    (l, V) of d2. Algebraically it equals ||Yext Pperp|| in the weighted norm;
    that route, the residual w2 X0 - Yext, is evaluated matrix-free at every N
    and must agree to 1e-9 relative.
    """
    d1, d2 = relative_deviations(ds, stats)
    value = closed_form_min(ds.y, d2)
    gram = _gram(ds.x0, ds.inv_size_weights())
    w2 = normal_w2(ds, gram, stats.means)
    route = weighted_norm(w2 @ ds.x0 - y_ext(ds), ds.class_sizes)
    route_check = require(
        check("exact.projector-route", rel(value, route), 1e-9, f"projector route={route:.9e}"),
        ConsistencyError, f"closed form {value!r} and projector route {route!r} disagree")
    return ExactMinimum(d1, d2, gram, w2, value, route, route_check)


def exact_min_weighted(ds: ClassifiedDataset, stats: DatasetStats) -> float:
    """The weighted-cost value of the M = Q closed-form construction,
    cross-checked against the projector route (see exact_minimum)."""
    return exact_minimum(ds, stats).value


def bound_general(ds: ClassifiedDataset, stats: DatasetStats) -> tuple[float, float]:
    """Closed-form cost bounds of the general Q <= M construction.

    Returns (bound_l2, bound_deltap) with
    bound_l2 = (1/sqrt(N)) ||Y pen dev||_F and bound_deltap = ||Y||_op delta_p;
    the first never exceeds the second (columnwise sup bound), which is
    checked here. Both are invariant under X0 -> lambda X0. ||Y pen dev||_F^2
    is summed by compute_stats in its one pass over the data, so this costs
    one Q x Q singular value decomposition.
    """
    bound_l2 = float(np.sqrt(stats.y_pen_dev_sq) / np.sqrt(ds.n))
    bound_deltap = float(op_norm(ds.y) * stats.delta_p)
    require(bound_chain(bound_l2, bound_deltap), ConsistencyError,
            f"bound_l2 {bound_l2!r} exceeds ||Y||_op delta_p {bound_deltap!r}")
    return bound_l2, bound_deltap


def bound_chain(b_l2: float, b_dp: float) -> Check:
    """The check b_l2 <= b_dp of bound_general's two bounds (b_l2, b_dp)."""
    return check("bounds.bound-le-op-deltap", b_l2 - b_dp, 1e-12 * (1.0 + b_dp),
                 f"bound_l2={b_l2:.6e} |Y|_op*delta_p={b_dp:.6e}")


def lstsq_min_weighted(hidden: np.ndarray, b1, ds: ClassifiedDataset) -> float:
    """Weighted-cost minimum over the tied output-layer family b2 = -W2 b1 at
    the hidden layer `hidden` (b1's broadcast already included), by one LAPACK
    lstsq of W2 (hidden - b1 1^T) ~ Yext: the brute-force counterpart of
    closed_form_min."""
    b1 = np.asarray(b1, dtype=float).reshape(-1)
    targets = y_ext(ds)
    sqrt_w = np.sqrt(ds.inv_size_weights())
    design = hidden - b1[:, None]
    theta_t, *_ = np.linalg.lstsq((design * sqrt_w).T, (targets * sqrt_w).T, rcond=None)
    w2 = theta_t.T
    b2 = -w2 @ b1
    resid = w2 @ hidden
    resid += b2[:, None]
    resid -= targets
    return weighted_norm(resid, ds.class_sizes)


@dataclass
class CostReport:
    """Evaluated costs, bounds and (in the M = Q regime) the exact minimum."""

    cost_l2: float
    cost_weighted: float
    bound_l2: float
    bound_deltap: float
    delta: float
    delta_p: float
    rho: float
    exact_min_weighted: float | None = None
    delta1_rel: np.ndarray | None = field(default=None, repr=False)
    delta2_rel: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self, include_matrices: bool = False) -> dict:
        doc = {
            "cost_l2": self.cost_l2,
            "cost_weighted": self.cost_weighted,
            "bound_l2": self.bound_l2,
            "bound_deltap": self.bound_deltap,
            "delta": self.delta,
            "delta_p": self.delta_p,
            "rho": self.rho,
            "exact_min_weighted": self.exact_min_weighted,
        }
        if include_matrices and self.delta1_rel is not None:
            doc["delta1_rel"] = self.delta1_rel.tolist()
            doc["delta2_rel"] = self.delta2_rel.tolist()
        return doc


def evaluate(
    p: ShallowParams,
    ds: ClassifiedDataset,
    stats: DatasetStats,
    pack: ProjectorPack,
    include_matrices: bool = False,
) -> CostReport:
    """Full cost report for one parameter set on one dataset. The costs are
    read from the record of an earlier pass of p over ds when there is one;
    the M = Q fields come from one exact_minimum call. pack is not read."""
    b_l2, b_dp = bound_general(ds, stats)
    c_l2, c_w = costs(p, ds)
    report = CostReport(
        cost_l2=c_l2,
        cost_weighted=c_w,
        bound_l2=b_l2,
        bound_deltap=b_dp,
        delta=stats.delta,
        delta_p=stats.delta_p,
        rho=stats.rho,
    )
    if ds.m == ds.q:
        exact = exact_minimum(ds, stats)
        report.exact_min_weighted = exact.value
        if include_matrices:
            report.delta1_rel, report.delta2_rel = exact.d1, exact.d2
    return report
