"""Numerical verification suites for every closed-form claim the library
implements: bound chains, exact-minimum identities, degeneracy of the flat
region, scaling and reparametrization invariances, the metric equivalence of
classification, and truncation behaviour.

Every suite reads one Pipeline record of the dataset, so the given data's
stats, pack, closed form and fits are built once however many suites run;
derived datasets build their own, invariance's GL(Q) images only their closed
form. A suite returns checks.Check records with the measured slack and its
tolerance and passes iff every check does; those of the bound chain and of the
exact minimum's two routes are the records the fits and the closed form made
at run time. The CLI `verify` command is a thin renderer over run_suite.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from .checks import Check, check, rel
from .classify import AGREEMENT_RTOL, metric as metric_distance, score_batch
from .constructive import (
    ConstructiveConfig,
    Pipeline,
    in_region_perturbation,
    pipeline,
    sanity_forward_means,
    tied_output_layer,
    w2_tilde,
)
from .cost import cost_weighted, exact_minimum, lstsq_min_weighted, projector_action, weighted_norm
from .dataset import ClassifiedDataset, class_means, deviations
from .errors import WrongRegime
from .linalg import op_norm
from .network import ShallowParams, forward
from .truncation import ORACLE_RTOL, sweep_fixed_point_region

SUITES = ("bounds", "exact-min", "degeneracy", "invariance", "metric", "truncation")

# Suites whose claims hold only in the M = Q regime; they raise WrongRegime
# elsewhere, and `all` leaves them out there.
SQUARE_ONLY_SUITES = ("exact-min", "degeneracy", "truncation")

# Halvings of the deviations over which quadratic_trend_checks fits its slopes.
OCTAVES = 4

# The largest t^2 lambda_max(D2) of the first trend octave: the t-law's slopes
# tend to 2 only as t^2 lambda_max(D2) -> 0.
TREND_REGIME = 0.01


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
    signal = params.w1 @ (pack.p @ ds.x0)
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


def trend_start(lam_max: float) -> int:
    """k0: the smallest k >= 0 with 4^-k lam_max <= TREND_REGIME, so the trend
    octaves t = 2^-k0 .. 2^-(k0 + OCTAVES) lie where t^2 lambda_max(D2) << 1."""
    k0 = 0
    while np.ldexp(lam_max, -2 * k0) > TREND_REGIME:
        k0 += 1
    return k0


def t_law(pl: Pipeline, t: float) -> tuple[float, float, np.ndarray, float, float]:
    """(delta_p, value, W2*, |W2* - W2~|_op, deficit) of X0(t) = means + t dev,
    read off pl.minimum with no data pass (M = Q).

    The class means stay and D2(t) = t^2 D2, so with (l, V) the
    eigendecomposition of D2, s = t^2 l and w_i = |(Y V)[:, i]|^2:
    delta_p(t) = t delta_p; W2* = Y V diag(1/(1+s)) V^T pen and
    W2~ - W2* = Y V diag(s/(1+s)) V^T pen; value^2 = a = sum w s/(1+s) and
    |Y D1(t)|^2 = b = sum w s, so the deficit 1 - value/|Y D1(t)| is
    ((b - a)/b) / (1 + sqrt(a/b)), with b - a = sum w s^2/(1+s) summed as
    such: nothing cancels at small t."""
    exact, pen = pl.minimum, pl.pack.pen
    s = t * t * exact.lam
    yv = pl.ds.y @ exact.vec
    w = np.sum(yv * yv, axis=0)
    a, b, b_less_a = w @ (s / (1.0 + s)), w @ s, w @ (s * s / (1.0 + s))
    w2 = (yv / (1.0 + s)) @ exact.vec.T @ pen
    gap = op_norm((yv * (s / (1.0 + s))) @ exact.vec.T @ pen)
    deficit = b_less_a / b / (1.0 + np.sqrt(a / b))
    return t * pl.stats.delta_p, float(np.sqrt(a)), w2, gap, float(deficit)


def quadratic_trend_checks(pl: Pipeline) -> list[Check]:
    """Log-log slopes of |W2* - W2~|_op and of the minimum's deficit against
    delta_p over OCTAVES halvings t of the deviations, X0(t) = means + t dev,
    from t0 = 2^-trend_start(lambda_max(D2)); both must be ~2. Every octave is
    read off the t-law (t_law). The last one is also rebuilt as data, with each
    class mean added to its block (as synthesize builds X0), and its record's
    value, delta_p and W2* must match the law's (exact.t-law-route)."""
    ds, means = pl.ds, pl.stats.means
    lam_max = float(pl.minimum.lam.max())
    k0 = trend_start(lam_max)
    ts = np.ldexp(1.0, -np.arange(k0, k0 + OCTAVES + 1))
    laws = [t_law(pl, t) for t in ts]
    delta_ps, _, _, gaps, deficits = zip(*laws)
    log_dp = np.log(delta_ps)
    slope_gap = float(np.polyfit(log_dp, np.log(gaps), 1)[0])
    slope_def = float(np.polyfit(log_dp, np.log(deficits), 1)[0])
    window = f"over {OCTAVES} octaves from t0=2^-{k0}, lambda_max(D2)={lam_max:.3e}"

    delta_p, value, w2, _, _ = laws[-1]
    x0_t = deviations(ds, means)
    x0_t *= ts[-1]
    for sl, mean in zip(ds.class_slices(), means.T):
        x0_t[:, sl] += mean[:, None]
    pl_t = pipeline(replace(ds, x0=x0_t))
    route = (rel(pl_t.minimum.value, value), rel(pl_t.stats.delta_p, delta_p),
             op_norm(pl_t.minimum.w2 - w2) / (1.0 + op_norm(w2)))
    return [
        check("exact.w2-gap-slope", abs(slope_gap - 2.0), 0.15,
              detail=f"slope={slope_gap:.4f} {window}"),
        check("exact.deficit-slope", abs(slope_def - 2.0), 0.2,
              detail=f"slope={slope_def:.4f} {window}"),
        check("exact.t-law-route", max(route), 1e-9,
              detail=f"t=2^-{k0 + OCTAVES}: value {route[0]:.1e}, "
              f"delta_p {route[1]:.1e}, W2* {route[2]:.1e}"),
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
    dataset's minimum checked; each K X0 is solved from its data and class
    means alone. The probes come from their own generator; the sequence of K
    depends on the seed alone."""
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
        ds_k = replace(ds, x0=k @ ds.x0)
        exact_k = exact_minimum(ds_k, class_means(ds_k))
        worst_p = max(worst_p, float(np.max(np.abs(projector_action(ds_k, exact_k.gram, z) - pz)))
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
    scores = score_batch(params, ds.y, x)
    # The metric reference |w2t P (Px - mean_j)| of every point and class.
    px = pack.p @ x
    metric_scores = np.stack(
        [np.linalg.norm(w2t @ (pack.p @ (px - stats.means[:, j:j + 1])), axis=0)
         for j in range(ds.q)], axis=1)
    gap = np.abs(scores - metric_scores)
    all_agree = bool(np.all(gap <= AGREEMENT_RTOL * (1.0 + scores)))
    worst_agree = float(np.max(gap / (1.0 + scores)))
    shifted = score_batch(params, ds.y, x + np.stack(vs, axis=1))
    worst_perp = float(np.max(np.abs(shifted - scores)))
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
    and the reapplication identity everywhere.

    Each point is folded into scalars as the sweep yields it, so one point's
    M x N arrays are alive at a time, whatever the grid length."""
    ds, em = pl.ds, pl.minimum.value
    grid = default_truncation_grid(pl, seed=seed)

    # The sweep compared each rank-preserving point's closed form with its
    # least-squares oracle already and kept the oracle value; errored points
    # are counted in the detail. Each point carries its pass's reapplication
    # leak unless the pass itself raised. The last point, the full truncation,
    # should read as such: both rank flags false and no minimum.
    worst_oracle = 0.0
    n_preserving = 0
    region_vals = []
    errored = []
    worst_reapply = None
    for pt in sweep_fixed_point_region(ds, grid):
        if pt.leak is None or (pt.error is not None and pt.index == len(grid) - 1):
            raise pt.error
        res = pt.result
        if res is None:
            errored.append(pt.index)
        elif res.min_cost_weighted is not None:
            n_preserving += 1
            worst_oracle = max(worst_oracle, rel(res.min_cost_weighted, res.lstsq_oracle))
            if res.in_fixed_point_region:
                region_vals.append(res.min_cost_weighted)
        worst_reapply = pt.leak if worst_reapply is None else max(worst_reapply, pt.leak)
        last_flagged = res is not None and res.min_cost_weighted is None \
            and not (res.rank_x0_preserved or res.rank_means_preserved)
        del pt, res  # the next point is evaluated with this one's arrays freed

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
        check("truncation.reapplication-identity", worst_reapply, 1e-10),
    ]
    # At Q = 1 the full truncation leaves rank 1 = Q, so there is nothing to flag.
    if ds.q > 1:
        checks.append(check("truncation.full-truncation-flagged", 0.0 if last_flagged else 1.0,
                            0.5, detail="flags false and minimum absent"))
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
