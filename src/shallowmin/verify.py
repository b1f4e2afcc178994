"""Numerical verification suites for every closed-form claim the library
implements: bound chains, exact-minimum identities, degeneracy of the flat
region, scaling and reparametrization invariances, the metric equivalence of
classification, and truncation behaviour.

Every suite reads one Pipeline record of the dataset, so the given data's
stats, pack, closed form and fits are built once however many suites run;
derived datasets build their own. A suite returns checks.Check records with
the measured slack and its tolerance and passes iff every check does; those of
the bound chain and of the exact minimum's two routes are the records the fits
and the closed form made at run time. The CLI `verify` command is a thin
renderer over run_suite.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from .checks import Check, check, rel
from .classify import classify_batch, metric as metric_distance, score_batch
from .constructive import (
    ConstructiveConfig,
    Pipeline,
    in_region_perturbation,
    pipeline,
    sanity_forward_means,
    tied_output_layer,
    w2_tilde,
)
from .cost import cost_weighted, lstsq_min_weighted, projector_action, weighted_norm
from .dataset import ClassifiedDataset, deviations
from .errors import WrongRegime
from .linalg import op_norm
from .network import ShallowParams, forward
from .truncation import (
    ORACLE_RTOL, _truncation_pass, min_over_output_layer, sweep_fixed_point_region)

SUITES = ("bounds", "exact-min", "degeneracy", "invariance", "metric", "truncation")

# Suites whose claims hold only in the M = Q regime; they raise WrongRegime
# elsewhere, and `all` leaves them out there.
SQUARE_ONLY_SUITES = ("exact-min", "degeneracy", "truncation")

# Halvings of the deviations over which quadratic_trend_checks fits its slopes.
OCTAVES = 4


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


def suite_bounds(pl: Pipeline) -> list[Check]:
    """Upper-bound chain of the general construction (its fit's checks) plus its invariances."""
    ds, stats, pack = pl.ds, pl.stats, pl.pack
    general = pl.general
    params, achieved = general.params, general.cost_l2
    checks = list(general.checks)
    if stats.delta == 0.0:
        checks.append(check("bounds.zero-noise-cost", achieved, 1e-10))
    checks.append(check("bounds.scale-invariance", pl.scale_slack, 1e-9))

    margin = 0.5 * stats.rho + 1.7 * (stats.rho + 1.0)
    big = replace(pl, cfg=ConstructiveConfig(beta1_margin=margin)).general
    checks.append(check("bounds.beta-margin-invariance", abs(big.cost_l2 - achieved), 1e-10))

    hidden, _ = forward(params, ds.x0)
    signal = pack.r @ (pack.p @ ds.x0)
    signal[: ds.q, :] += pl.cfg.beta1(stats.rho)
    checks.append(check("bounds.hidden-layer-identity",
                        float(np.max(np.abs(hidden - signal))), 1e-12))
    checks.append(check("bounds.means-to-targets",
                        sanity_forward_means(params, ds, stats), 1e-9))
    return checks


def suite_exact_min(pl: Pipeline) -> list[Check]:
    """M = Q exact-value identities (the fit's and the closed form's checks), the
    least-squares oracle, and the quadratic trends of the W2 gap and deficit."""
    square, ds, stats, exact = pl.square, pl.ds, pl.stats, pl.minimum
    params, cw, em = square.params, square.cost_weighted, exact.value
    checks = [*square.checks, exact.route_check]
    hidden, _ = forward(params, ds.x0)
    oracle = lstsq_min_weighted(hidden, params.b1, ds)
    checks.append(check("exact.lstsq-oracle", rel(em, oracle), ORACLE_RTOL,
                        detail=f"lstsq oracle={oracle:.9e}"))
    upper = weighted_norm(ds.y @ exact.d1, ds.class_sizes)
    checks.append(check("exact.le-upper-line", em - upper, 1e-12 * (1.0 + upper),
                        detail=f"closed={em:.6e} |Y D1|={upper:.6e}"))
    if len(set(ds.class_sizes)) == 1:
        checks.append(check("exact.sqrtq-identity",
                            rel(cw, np.sqrt(ds.q) * square.cost_l2), 1e-12))
    if stats.delta > 0:
        checks.extend(quadratic_trend_checks(pl))
    return checks


def quadratic_trend_checks(pl: Pipeline) -> list[Check]:
    """Log-log slopes of |W2* - W2~|_op and of the minimum's deficit against
    delta_p, over OCTAVES halvings t of the deviations, X0(t) = mean_ext + t dev
    with pl's class means kept, each with its own record; both must be ~2."""
    ds, means = pl.ds, pl.stats.means
    mean_ext = np.repeat(means, ds.class_sizes, axis=1)
    dev = deviations(ds, means)
    delta_ps, gaps, deficits = [], [], []
    for k in range(OCTAVES + 1):
        pl_t = pipeline(replace(ds, x0=mean_ext + 0.5 ** k * dev))
        exact = pl_t.minimum
        gap = op_norm(exact.w2 - w2_tilde(pl_t.ds, pl_t.pack))
        upper = weighted_norm(ds.y @ exact.d1, ds.class_sizes)
        delta_ps.append(pl_t.stats.delta_p)
        gaps.append(gap)
        deficits.append(1.0 - exact.value / upper)
    log_dp = np.log(delta_ps)
    slope_gap = float(np.polyfit(log_dp, np.log(gaps), 1)[0])
    slope_def = float(np.polyfit(log_dp, np.log(deficits), 1)[0])
    return [
        check("exact.w2-gap-slope", abs(slope_gap - 2.0), 0.15,
              detail=f"slope={slope_gap:.4f} over {OCTAVES} octaves"),
        check("exact.deficit-slope", abs(slope_def - 2.0), 0.2,
              detail=f"slope={slope_def:.4f} over {OCTAVES} octaves"),
    ]


def suite_degeneracy(pl: Pipeline, seed: int = 0) -> list[Check]:
    """Random in-region (w1, b1) perturbations followed by the tied output-layer
    re-solve must reproduce the exact minimum."""
    params, ds, stats, exact = pl.square.params, pl.ds, pl.stats, pl.minimum
    beta1 = pl.cfg.beta1(stats.rho)
    rng = np.random.default_rng(seed)
    worst = 0.0
    n_perturbations = 50
    for _ in range(n_perturbations):
        w1p, b1p = in_region_perturbation(params, stats, beta1, rng)
        w2p, b2p = tied_output_layer(w1p, b1p, ds, exact.w2)
        cw = cost_weighted(ShallowParams(w1=w1p, b1=b1p, w2=w2p, b2=b2p), ds)
        worst = max(worst, rel(cw, exact.value))
    return [check("degeneracy.flat-value", worst, 1e-8,
                  detail=f"{n_perturbations} perturbations, exact={exact.value:.9e}")]


def suite_invariance(pl: Pipeline, seed: int = 0) -> list[Check]:
    """Scaling invariance of the bound quantities; GL(Q) reparametrization
    invariance of the data projector, relative deviations and exact minimum.

    The data projector is compared through its action P Z on a seeded N x 4
    probe block Z, a randomized identity test in the style of Freivalds, so
    no N x N matrix is formed at any N; each probe reuses the Gram that its
    dataset's minimum checked; each K X0 has its own record. The probes come
    from their own generator; the sequence of K depends on the seed alone."""
    ds = pl.ds
    checks = [check("invariance.scaling", pl.scale_slack, 1e-9)]
    if ds.m != ds.q:
        return checks

    exact = pl.minimum
    probe_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    z = probe_rng.standard_normal((ds.n, 4))
    pz = projector_action(ds, exact.gram, z)
    pz_scale = 1.0 + float(np.max(np.abs(pz)))
    d1_scale = 1.0 + float(np.max(np.abs(exact.d1)))
    rng = np.random.default_rng(seed)
    worst_p = worst_d1 = worst_em = 0.0
    n_k = 20
    for _ in range(n_k):
        k = random_gl(ds.q, rng)
        pl_k = pipeline(replace(ds, x0=k @ ds.x0))
        exact_k = pl_k.minimum
        worst_p = max(worst_p, float(np.max(np.abs(projector_action(pl_k.ds, exact_k.gram, z) - pz)))
                      / pz_scale)
        worst_d1 = max(worst_d1, float(np.max(np.abs(exact_k.d1 - exact.d1))) / d1_scale)
        worst_em = max(worst_em, rel(exact_k.value, exact.value))
    checks.append(check("invariance.gl-data-projector", worst_p, 1e-7, detail=f"{n_k} random K"))
    checks.append(check("invariance.gl-delta1", worst_d1, 1e-7))
    checks.append(check("invariance.gl-exact-min", worst_em, 1e-7))
    return checks


def suite_metric(pl: Pipeline, seed: int = 0) -> list[Check]:
    """Network-score vs metric-score equality for the general construction,
    insensitivity to components the network cuts off, and the metric axioms.

    Test points are drawn with |x| <= 2 rho < beta1, inside the ball on which
    the first layer of the construction provably stays linear.
    """
    ds, stats, pack = pl.ds, pl.stats, pl.pack
    params = pl.general.params
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
        check("metric.network-eq-metric", worst_agree, 1e-9,
              detail=f"{n_points} points, all agreement flags set: {all_agree}"),
        check("metric.pperp-insensitive", worst_perp, 1e-10),
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
    checks.append(check("metric.symmetry", worst_sym, 1e-12))
    checks.append(check("metric.triangle", worst_tri, 1e-12))
    checks.append(check("metric.identity", worst_id, 0.0))
    return checks


def default_truncation_grid(pl: Pipeline, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mixed 30-point grid: in-region bias sweeps, near-identity in-region
    rotations, partial clippings, and one full truncation."""
    rho = pl.stats.rho
    q = pl.ds.q
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


def suite_truncation(pl: Pipeline, seed: int = 0) -> list[Check]:
    """Sweep a default grid: rank-preserving closed form vs least squares,
    flat value across the fixed-point region, agreement with the exact minimum,
    and the reapplication identity everywhere."""
    ds, em = pl.ds, pl.minimum.value
    grid = default_truncation_grid(pl, seed=seed)
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
        worst_oracle = max(worst_oracle, rel(pt.result.min_cost_weighted, pt.result.lstsq_oracle))
        if pt.result.in_fixed_point_region:
            region_vals.append(pt.result.min_cost_weighted)

    # The relative spread of the in-region minima, (hi - lo) / (1 + hi): 0 for
    # one point. With none, both region checks fail rather than pass on no data.
    flat = rel(max(region_vals), min(region_vals)) if region_vals else float("inf")
    vs_exact = max((rel(v, em) for v in region_vals), default=float("inf"))
    checks = [
        check("truncation.closed-vs-lstsq", worst_oracle, ORACLE_RTOL,
              detail=f"{n_preserving} rank-preserving points"
              + (f", {len(errored)} errored, first at index {errored[0]}" if errored else "")),
        check("truncation.region-flat", flat, 1e-8,
              detail=f"{len(region_vals)} in-region points"),
        check("truncation.region-matches-exact", vs_exact, 1e-8,
              detail=f"exact={em:.9e}" if region_vals else "0 in-region points"),
    ]
    # The sweep measured the reapplication leak of every point it finished. A
    # point that recorded an error is truncated again, so an error of the
    # truncation itself surfaces.
    worst_reapply = max(
        _truncation_pass(w1, b1, ds)[3] if pt.result is None else pt.result.reapplication_leak
        for (w1, b1), pt in zip(grid, points))
    checks.append(check("truncation.reapplication-identity", worst_reapply, 1e-10))
    # The sweep already evaluated the full truncation, the last grid point. If
    # it recorded an error there, the point is rerun to raise that error.
    full = points[-1].result
    if full is None:
        full = min_over_output_layer(grid[-1][0], grid[-1][1], ds)
    flagged = (not full.rank_x0_preserved) and (not full.rank_means_preserved) \
        and full.min_cost_weighted is None
    checks.append(check("truncation.full-truncation-flagged", 0.0 if flagged else 1.0, 0.5,
                        detail="flags false and minimum absent"))
    return checks


def run_suite(name: str, ds: ClassifiedDataset, seed: int = 0) -> list[Check]:
    """Checks of one suite, or of every suite for "all", all reading one
    record, pipeline(ds). An M = Q-only suite on M != Q data raises
    WrongRegime before the record is built; "all" there runs the suites of
    the general regime and names the ones it left out on one stderr line."""
    if name not in SUITES and name != "all":
        raise ValueError(f"unknown suite {name!r}")
    if name in SQUARE_ONLY_SUITES and ds.m != ds.q:
        raise WrongRegime(f"{name} suite requires M = Q")
    skipped = SQUARE_ONLY_SUITES if name == "all" and ds.m != ds.q else ()
    if skipped:
        print(f"verify all: M={ds.m} != Q={ds.q}, not run (M = Q only): "
              + ", ".join(skipped), file=sys.stderr)
    pl = pipeline(ds)
    suites = {
        "bounds": lambda: suite_bounds(pl),
        "exact-min": lambda: suite_exact_min(pl),
        "degeneracy": lambda: suite_degeneracy(pl, seed=seed),
        "invariance": lambda: suite_invariance(pl, seed=seed),
        "metric": lambda: suite_metric(pl, seed=seed),
        "truncation": lambda: suite_truncation(pl, seed=seed),
    }
    return [check for suite in (SUITES if name == "all" else (name,)) if suite not in skipped
            for check in suites[suite]()]
