"""Numerical verification suites for every closed-form claim the library
implements: bound chains, exact-minimum identities, degeneracy of the flat
region, scaling and reparametrization invariances, the metric equivalence of
classification, and truncation behaviour.

Each suite returns PropertyCheck records with the measured slack and its
tolerance; a suite passes iff every check does. The CLI `verify` command is a
thin renderer over these functions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .classify import classify_batch, metric as metric_distance, score_batch
from .constructive import (
    ConstructiveConfig,
    Variant,
    fit,
    in_region_perturbation,
    sanity_forward_means,
    tied_output_layer,
    train_general,
    w2_tilde,
)
from .cost import (
    _psd_eig,
    bound_general,
    cost_weighted,
    exact_min_weighted,
    exact_minimum,
    lstsq_output_layer,
    projector_action,
    weighted_norm,
)
from .dataset import ClassifiedDataset, dataset_stats, deviations, independent_means, y_ext
from .errors import WrongRegime
from .linalg import op_norm
from .network import ShallowParams, forward
from .truncation import _truncation_pass, min_over_output_layer, sweep_fixed_point_region

SUITES = ("bounds", "exact-min", "degeneracy", "invariance", "metric", "truncation")

# Suites whose claims hold only in the M = Q regime; they raise WrongRegime
# elsewhere, and `all` leaves them out there.
SQUARE_ONLY_SUITES = ("exact-min", "degeneracy", "truncation")

# Halvings of the deviations over which quadratic_trend_checks fits its slopes.
OCTAVES = 4


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _check(name: str, measured: float, tolerance: float, detail: str = "") -> PropertyCheck:
    return PropertyCheck(
        name=name,
        passed=bool(measured <= tolerance),
        measured=float(measured),
        tolerance=float(tolerance),
        detail=detail,
    )


def _scaled(ds: ClassifiedDataset, lam: float) -> ClassifiedDataset:
    return replace(ds, x0=lam * ds.x0)


def random_gl(q: int, rng: np.random.Generator, cond_max: float = 10.0) -> np.ndarray:
    """Random GL(Q) matrix with controlled condition number (< cond_max)."""
    a = rng.standard_normal((q, q))
    u, _ = np.linalg.qr(a)
    v, _ = np.linalg.qr(rng.standard_normal((q, q)))
    s = np.exp(rng.uniform(-0.5 * np.log(cond_max), 0.5 * np.log(cond_max), size=q))
    return u @ np.diag(s) @ v.T


def random_ball(m: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(m)
    v /= max(np.linalg.norm(v), 1e-300)
    return v * radius * rng.uniform() ** (1.0 / m)


def _scale_invariance_slack(ds: ClassifiedDataset, delta_p: float, b_l2: float) -> float:
    """Worst relative change of bound_l2 and delta_p under X0 -> lambda X0, lambda in {0.1, 10}."""
    worst = 0.0
    for lam in (0.1, 10.0):
        stats_l, _ = dataset_stats(_scaled(ds, lam))
        b_l2_l, _ = bound_general(_scaled(ds, lam), stats_l)
        worst = max(worst, _rel(b_l2_l, b_l2), _rel(stats_l.delta_p, delta_p))
    return worst


def suite_bounds(ds: ClassifiedDataset) -> list[PropertyCheck]:
    """Upper-bound chain of the general construction plus its invariances."""
    stats, pack = dataset_stats(ds)
    general = fit(ds, stats, pack, Variant.GENERAL)
    params, achieved = general.params, general.cost_l2
    b_l2, b_dp = general.bound_l2, general.bound_deltap
    checks = [
        _check("bounds.cost-le-bound", achieved - b_l2, 1e-10 * (1.0 + b_l2),
               detail=f"cost={achieved:.6e} bound_l2={b_l2:.6e}"),
        _check("bounds.bound-le-op-deltap", b_l2 - b_dp, 1e-12 * (1.0 + b_dp),
               detail=f"bound_l2={b_l2:.6e} |Y|_op*delta_p={b_dp:.6e}"),
    ]
    if stats.delta == 0.0:
        checks.append(_check("bounds.zero-noise-cost", achieved, 1e-10))
    checks.append(_check("bounds.scale-invariance",
                         _scale_invariance_slack(ds, stats.delta_p, b_l2), 1e-9))

    margin = 0.5 * stats.rho + 1.7 * (stats.rho + 1.0)
    big = fit(ds, stats, pack, Variant.GENERAL, ConstructiveConfig(beta1_margin=margin))
    checks.append(_check("bounds.beta-margin-invariance", abs(big.cost_l2 - achieved), 1e-10))

    hidden, _ = forward(params, ds.x0)
    signal = pack.r @ (pack.p @ ds.x0)
    signal[: ds.q, :] += ConstructiveConfig().beta1(stats.rho)
    checks.append(_check("bounds.hidden-layer-identity",
                         float(np.max(np.abs(hidden - signal))), 1e-12))
    checks.append(_check("bounds.means-to-targets",
                         sanity_forward_means(params, ds, stats), 1e-9))
    return checks


def suite_exact_min(ds: ClassifiedDataset) -> list[PropertyCheck]:
    """M = Q exact-value identities, the least-squares oracle, and the
    quadratic-in-delta_p trends of the W2 gap and the minimum's deficit."""
    if ds.m != ds.q:
        raise WrongRegime("exact-min suite requires M = Q")
    stats, pack = dataset_stats(ds)
    square = fit(ds, stats, pack, Variant.EXACT)
    params, cw, exact = square.params, square.cost_weighted, square.exact
    em = exact.value
    lam, _ = _psd_eig(exact.d2)
    checks = [
        _check("exact.cost-eq-closed-form", _rel(cw, em), 1e-9,
               detail=f"cost_N={cw:.9e} closed={em:.9e} spec(D2)=[{lam.min():.3e},{lam.max():.3e}]"),
        _check("exact.projector-route", _rel(em, exact.route), 1e-9,
               detail=f"projector route={exact.route:.9e}"),
    ]
    hidden, _ = forward(params, ds.x0)
    _, _, oracle = lstsq_output_layer(hidden, y_ext(ds), ds.class_sizes, b1=params.b1)
    checks.append(_check("exact.lstsq-oracle", _rel(em, oracle), 1e-8,
                         detail=f"lstsq oracle={oracle:.9e}"))
    upper = weighted_norm(ds.y @ exact.d1, ds.class_sizes)
    checks.append(_check("exact.le-upper-line", em - upper, 1e-12 * (1.0 + upper),
                         detail=f"closed={em:.6e} |Y D1|={upper:.6e}"))
    if len(set(ds.class_sizes)) == 1:
        checks.append(_check("exact.sqrtq-identity",
                             _rel(cw, np.sqrt(ds.q) * square.cost_l2), 1e-12))
    if stats.delta > 0:
        checks.extend(quadratic_trend_checks(ds))
    return checks


def quadratic_trend_checks(ds: ClassifiedDataset) -> list[PropertyCheck]:
    """Log-log slopes of |W2* - W2~|_op and of the minimum's deficit against
    delta_p, over OCTAVES halvings t of the deviations, X0(t) = mean_ext + t dev
    with the class means kept; both must be ~2."""
    means = independent_means(ds)
    mean_ext = np.repeat(means, ds.class_sizes, axis=1)
    dev = deviations(ds, means)
    delta_ps, gaps, deficits = [], [], []
    for k in range(OCTAVES + 1):
        ds_t = replace(ds, x0=mean_ext + 0.5 ** k * dev)
        stats_t, pack_t = dataset_stats(ds_t)
        exact = exact_minimum(ds_t, stats_t)
        gap = op_norm(exact.w2 - w2_tilde(ds_t, pack_t))
        upper = weighted_norm(ds_t.y @ exact.d1, ds_t.class_sizes)
        delta_ps.append(stats_t.delta_p)
        gaps.append(gap)
        deficits.append(1.0 - exact.value / upper)
    log_dp = np.log(delta_ps)
    slope_gap = float(np.polyfit(log_dp, np.log(gaps), 1)[0])
    slope_def = float(np.polyfit(log_dp, np.log(deficits), 1)[0])
    return [
        _check("exact.w2-gap-slope", abs(slope_gap - 2.0), 0.15,
               detail=f"slope={slope_gap:.4f} over {OCTAVES} octaves"),
        _check("exact.deficit-slope", abs(slope_def - 2.0), 0.2,
               detail=f"slope={slope_def:.4f} over {OCTAVES} octaves"),
    ]


def suite_degeneracy(ds: ClassifiedDataset, seed: int = 0) -> list[PropertyCheck]:
    """Random in-region (w1, b1) perturbations followed by the tied output-layer
    re-solve must reproduce the exact minimum."""
    if ds.m != ds.q:
        raise WrongRegime("degeneracy suite requires M = Q")
    stats, pack = dataset_stats(ds)
    square = fit(ds, stats, pack, Variant.EXACT)
    params, exact = square.params, square.exact
    beta1 = ConstructiveConfig().beta1(stats.rho)
    rng = np.random.default_rng(seed)
    worst = 0.0
    n_perturbations = 50
    for _ in range(n_perturbations):
        w1p, b1p = in_region_perturbation(params, stats, beta1, rng)
        w2p, b2p = tied_output_layer(w1p, b1p, ds, exact.w2)
        cw = cost_weighted(ShallowParams(w1=w1p, b1=b1p, w2=w2p, b2=b2p), ds)
        worst = max(worst, _rel(cw, exact.value))
    return [_check("degeneracy.flat-value", worst, 1e-8,
                   detail=f"{n_perturbations} perturbations, exact={exact.value:.9e}")]


def suite_invariance(ds: ClassifiedDataset, seed: int = 0) -> list[PropertyCheck]:
    """Scaling invariance of the bound quantities; GL(Q) reparametrization
    invariance of the data projector, relative deviations and exact minimum.

    The data projector is compared through its action P Z on a seeded N x 4
    probe block Z, a randomized identity test in the style of Freivalds, so
    no N x N matrix is formed at any N; each probe reuses the Gram that its
    dataset's exact_minimum checked. The probes come from their own
    generator; the sequence of K depends on the seed alone."""
    stats, _ = dataset_stats(ds)
    b_l2, _ = bound_general(ds, stats)
    checks = [_check("invariance.scaling", _scale_invariance_slack(ds, stats.delta_p, b_l2), 1e-9)]
    if ds.m != ds.q:
        return checks

    exact = exact_minimum(ds, stats)
    d1, em = exact.d1, exact.value
    probe_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    z = probe_rng.standard_normal((ds.n, 4))
    pz = projector_action(ds, exact.gram, z)
    pz_scale = 1.0 + float(np.max(np.abs(pz)))
    d1_scale = 1.0 + float(np.max(np.abs(d1)))
    rng = np.random.default_rng(seed)
    worst_p = worst_d1 = worst_em = 0.0
    n_k = 20
    for _ in range(n_k):
        k = random_gl(ds.q, rng)
        ds_k = replace(ds, x0=k @ ds.x0)
        stats_k, _ = dataset_stats(ds_k)
        exact_k = exact_minimum(ds_k, stats_k)
        worst_p = max(worst_p, float(np.max(np.abs(projector_action(ds_k, exact_k.gram, z) - pz)))
                      / pz_scale)
        worst_d1 = max(worst_d1, float(np.max(np.abs(exact_k.d1 - d1))) / d1_scale)
        worst_em = max(worst_em, _rel(exact_k.value, em))
    checks.append(_check("invariance.gl-data-projector", worst_p, 1e-7, detail=f"{n_k} random K"))
    checks.append(_check("invariance.gl-delta1", worst_d1, 1e-7))
    checks.append(_check("invariance.gl-exact-min", worst_em, 1e-7))
    return checks


def suite_metric(ds: ClassifiedDataset, seed: int = 0) -> list[PropertyCheck]:
    """Network-score vs metric-score equality for the general construction,
    insensitivity to components the network cuts off, and the metric axioms.

    Test points are drawn with |x| <= 2 rho < beta1, inside the ball on which
    the first layer of the construction provably stays linear.
    """
    stats, pack = dataset_stats(ds)
    params = train_general(ds, stats, pack)
    w2t = w2_tilde(ds, pack)
    rng = np.random.default_rng(seed)
    radius = 2.0 * stats.rho
    n_points = 1000
    xs, vs = [], []
    for _ in range(n_points):
        xs.append(random_ball(ds.m, radius, rng))
        vs.append(pack.p_perp @ rng.standard_normal(ds.m))
    x = np.stack(xs, axis=1)
    out = classify_batch(params, w2t, pack.p, stats.means, ds.y, x)
    all_agree = bool(np.all(out.agreement))
    worst_agree = float(np.max(np.abs(out.scores - out.metric_scores) / (1.0 + out.scores)))
    shifted = score_batch(params, ds.y, x + np.stack(vs, axis=1))
    worst_perp = float(np.max(np.abs(shifted - out.scores)))
    checks = [
        _check("metric.network-eq-metric", worst_agree, 1e-9,
               detail=f"{n_points} points, all agreement flags set: {all_agree}"),
        _check("metric.pperp-insensitive", worst_perp, 1e-10),
    ]
    worst_sym = worst_tri = worst_id = 0.0
    for _ in range(100):
        x = random_ball(ds.m, radius, rng)
        y = random_ball(ds.m, radius, rng)
        z = random_ball(ds.m, radius, rng)
        dxy = metric_distance(w2t, pack.p, x, y)
        worst_sym = max(worst_sym, abs(dxy - metric_distance(w2t, pack.p, y, x)))
        worst_tri = max(worst_tri, metric_distance(w2t, pack.p, x, z)
                        - (dxy + metric_distance(w2t, pack.p, y, z)))
        worst_id = max(worst_id, metric_distance(w2t, pack.p, x, x))
    checks.append(_check("metric.symmetry", worst_sym, 1e-12))
    checks.append(_check("metric.triangle", worst_tri, 1e-12))
    checks.append(_check("metric.identity", worst_id, 0.0))
    return checks


def default_truncation_grid(ds: ClassifiedDataset, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mixed 30-point grid: in-region bias sweeps, near-identity in-region
    rotations, partial clippings, and one full truncation."""
    stats, _ = dataset_stats(ds)
    rho = stats.rho
    q = ds.q
    rng = np.random.default_rng(seed)
    grid: list[tuple[np.ndarray, np.ndarray]] = []
    for t in np.linspace(2.0 * rho, 4.0 * rho, 6):
        grid.append((np.eye(q), t * np.ones(q)))
    for _ in range(4):
        a = rng.standard_normal((q, q))
        a *= 0.01 / np.linalg.norm(a, 2)
        grid.append((np.eye(q) + a, 3.0 * rho * np.ones(q)))
    while len(grid) < 29:  # the full truncation below is point 30
        b = rng.uniform(-0.4 * rho, 1.2 * rho, size=q)
        grid.append((np.eye(q), b))
    grid.append((np.eye(q), -10.0 * rho * np.ones(q)))  # full truncation
    return grid


def suite_truncation(ds: ClassifiedDataset, seed: int = 0) -> list[PropertyCheck]:
    """Sweep a default grid: rank-preserving closed form vs least squares,
    flat value across the fixed-point region, agreement with the exact minimum,
    and the reapplication identity everywhere."""
    if ds.m != ds.q:
        raise WrongRegime("truncation suite requires M = Q")
    stats, _ = dataset_stats(ds)
    em = exact_min_weighted(ds, stats)
    grid = default_truncation_grid(ds, seed=seed)
    points = sweep_fixed_point_region(ds, grid)

    # The sweep compared each rank-preserving point's closed form with its
    # least-squares oracle already and kept the oracle value; errored points
    # are counted in the detail.
    worst_oracle = 0.0
    n_preserving = 0
    region_vals = []
    errored = [pt.index for pt in points if pt.result is None]
    for pt in points:
        if pt.result is None or pt.result.min_cost_weighted is None:
            continue
        n_preserving += 1
        worst_oracle = max(worst_oracle, _rel(pt.result.min_cost_weighted, pt.result.lstsq_oracle))
        if pt.result.in_fixed_point_region:
            region_vals.append(pt.result.min_cost_weighted)

    # The relative spread of the in-region minima, (hi - lo) / (1 + hi): 0 for
    # one point. With none, both region checks fail rather than pass on no data.
    flat = _rel(max(region_vals), min(region_vals)) if region_vals else float("inf")
    vs_exact = max((_rel(v, em) for v in region_vals), default=float("inf"))
    checks = [
        _check("truncation.closed-vs-lstsq", worst_oracle, 1e-8,
               detail=f"{n_preserving} rank-preserving points"
               + (f", {len(errored)} errored, first at index {errored[0]}" if errored else "")),
        _check("truncation.region-flat", flat, 1e-8,
               detail=f"{len(region_vals)} in-region points"),
        _check("truncation.region-matches-exact", vs_exact, 1e-8,
               detail=f"exact={em:.9e}" if region_vals else "0 in-region points"),
    ]
    # The sweep measured the reapplication leak of every point it finished. A
    # point that recorded an error is truncated again, so an error of the
    # truncation itself surfaces.
    worst_reapply = max(
        _truncation_pass(w1, b1, ds)[3] if pt.result is None else pt.result.reapplication_leak
        for (w1, b1), pt in zip(grid, points))
    checks.append(_check("truncation.reapplication-identity", worst_reapply, 1e-10))
    # The sweep already evaluated the full truncation, the last grid point. If
    # it recorded an error there, the point is rerun to raise that error.
    full = points[-1].result
    if full is None:
        full = min_over_output_layer(grid[-1][0], grid[-1][1], ds)
    flagged = (not full.rank_x0_preserved) and (not full.rank_means_preserved) \
        and full.min_cost_weighted is None
    checks.append(_check("truncation.full-truncation-flagged", 0.0 if flagged else 1.0, 0.5,
                         detail="flags false and minimum absent"))
    return checks


def run_suite(name: str, ds: ClassifiedDataset, seed: int = 0) -> list[PropertyCheck]:
    """Checks of one suite, or of every suite for "all". With M != Q, "all"
    runs the suites of the general regime and names the M = Q-only ones it
    left out on one stderr line."""
    if name == "bounds":
        return suite_bounds(ds)
    if name == "exact-min":
        return suite_exact_min(ds)
    if name == "degeneracy":
        return suite_degeneracy(ds, seed=seed)
    if name == "invariance":
        return suite_invariance(ds, seed=seed)
    if name == "metric":
        return suite_metric(ds, seed=seed)
    if name == "truncation":
        return suite_truncation(ds, seed=seed)
    if name == "all":
        skipped = SQUARE_ONLY_SUITES if ds.m != ds.q else ()
        if skipped:
            print(f"verify all: M={ds.m} != Q={ds.q}, not run (M = Q only): "
                  + ", ".join(skipped), file=sys.stderr)
        checks = []
        for suite in SUITES:
            if suite not in skipped:
                checks.extend(run_suite(suite, ds, seed=seed))
        return checks
    raise ValueError(f"unknown suite {name!r}")
