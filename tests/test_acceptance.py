"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

from dataclasses import replace
from itertools import product

import numpy as np

from shallowmin import (
    ClassifiedDataset,
    ConstructiveConfig,
    GdConfig,
    ShallowParams,
    bound_general,
    classify,
    cost_l2,
    cost_weighted,
    data_projector,
    dataset_stats,
    exact_min_weighted,
    pipeline,
    relative_deviations,
    synthesize,
    train_exact_meq,
    train_general,
    train_gd,
    w2_tilde,
    y_ext,
)
from shallowmin.constructive import in_region_perturbation, tied_output_layer
from shallowmin.cost import exact_minimum, weighted_norm
from shallowmin.errors import ShallowminError
from shallowmin.gd import gd_in_fixed_point_region
from shallowmin.linalg import projector_pack
from shallowmin.network import relu
from shallowmin.truncation import min_over_output_layer
from shallowmin.verify import quadratic_trend_checks, random_ball, random_gl
from tests.conftest import weighted_lstsq_oracle


def report(criterion: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {description}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures[:5])


def square_dataset(seed: int = 2, noise: float = 0.08) -> ClassifiedDataset:
    return synthesize(3, 3, [8, 8, 8], noise=noise, seed=seed)


def worked_instance() -> ClassifiedDataset:
    x0 = np.array([[1.1, 0.9, 0.0, 0.0],
                   [0.0, 0.0, 1.1, 0.9]])
    return ClassifiedDataset(m=2, q=2, class_sizes=(2, 2), x0=x0, y=np.eye(2))


def test_criterion_1_bound_chain():
    failures = []
    combos = list(product((2, 3, 5), range(6), (0.0, 0.01, 0.1), (0, 1)))
    count = 0
    for q, m_off, noise, seed in combos:
        if count >= 100:
            break
        count += 1
        m = q + m_off
        ds = synthesize(m, q, [6] * q, noise=noise, seed=seed)
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        c = cost_l2(params, ds)
        b_l2, b_dp = bound_general(ds, stats)
        tag = f"(q={q}, m={m}, noise={noise}, seed={seed})"
        if c > b_l2 + 1e-10 * (1.0 + b_l2):
            failures.append(f"cost {c} > bound {b_l2} {tag}")
        if b_l2 > b_dp + 1e-10 * (1.0 + b_dp):
            failures.append(f"bound {b_l2} > op bound {b_dp} {tag}")
        if noise == 0.0 and c > 1e-10:
            failures.append(f"zero-noise cost {c} > 1e-10 {tag}")
    assert count == 100
    report(1, "cost bound chain on 100 seeded datasets", failures)


def test_criterion_2_exact_minimum():
    failures = []

    ds = worked_instance()
    stats, _ = dataset_stats(ds)
    params = train_exact_meq(ds, stats)
    cw = cost_weighted(params, ds)
    if abs(cw - 0.1407195) > 1e-6:
        failures.append(f"worked instance {cw} != 0.1407195 +- 1e-6")

    for seed in (0, 1, 2, 3):
        dsq = square_dataset(seed=seed)
        stats_q, _ = dataset_stats(dsq)
        params_q = train_exact_meq(dsq, stats_q)
        cwq = cost_weighted(params_q, dsq)
        closed = exact_min_weighted(dsq, stats_q)  # internally cross-checked
        p_perp = np.eye(dsq.n) - data_projector(dsq)
        via_projector = weighted_norm(y_ext(dsq) @ p_perp, dsq.class_sizes)
        hidden = relu(params_q.w1 @ dsq.x0 + params_q.b1[:, None])
        _, _, oracle = weighted_lstsq_oracle(hidden, y_ext(dsq), dsq.class_sizes,
                                             params_q.b1)
        if abs(cwq - closed) > 1e-9 * (1.0 + closed):
            failures.append(f"seed {seed}: cost {cwq} != closed form {closed}")
        if abs(cwq - via_projector) > 1e-9 * (1.0 + via_projector):
            failures.append(f"seed {seed}: cost {cwq} != projector route {via_projector}")
        if abs(cwq - oracle) > 1e-8 * (1.0 + oracle):
            failures.append(f"seed {seed}: cost {cwq} != lstsq oracle {oracle}")
    report(2, "exact weighted minimum matches both closed forms and least squares",
           failures)


def test_criterion_3_degeneracy():
    failures = []
    ds = square_dataset()
    stats, _ = dataset_stats(ds)
    params = train_exact_meq(ds, stats)
    em = exact_min_weighted(ds, stats)
    v = exact_minimum(ds, stats.means).w2
    beta1 = ConstructiveConfig().beta1(stats.rho)
    rng = np.random.default_rng(33)
    for i in range(50):
        w1p, b1p = in_region_perturbation(params, stats, beta1, rng)
        w2p, b2p = tied_output_layer(w1p, b1p, ds, v)
        cw = cost_weighted(ShallowParams(w1=w1p, b1=b1p, w2=w2p, b2=b2p), ds)
        if abs(cw - em) > 1e-8 * (1.0 + em):
            failures.append(f"perturbation {i}: {cw} != {em}")
    report(3, "50 in-region perturbations re-solve to the same weighted cost",
           failures)


def test_criterion_4_invariances():
    failures = []
    ds = square_dataset(seed=5, noise=0.1)
    stats, _ = dataset_stats(ds)
    b_l2, _ = bound_general(ds, stats)
    for lam in (0.1, 10.0):
        ds_l = replace(ds, x0=lam * ds.x0)
        stats_l, _ = dataset_stats(ds_l)
        b_l2_l, _ = bound_general(ds_l, stats_l)
        if abs(b_l2_l - b_l2) > 1e-9 * (1.0 + b_l2):
            failures.append(f"bound_l2 changed under lambda={lam}")
        if abs(stats_l.delta_p - stats.delta_p) > 1e-9 * (1.0 + stats.delta_p):
            failures.append(f"delta_p changed under lambda={lam}")

    p_script = data_projector(ds)
    d1, _ = relative_deviations(ds, stats.means)
    em = exact_min_weighted(ds, stats)
    rng = np.random.default_rng(44)
    for i in range(20):
        k = random_gl(ds.q, rng, cond_max=50.0)
        if np.linalg.cond(k) >= 100.0:
            failures.append(f"K {i} condition number out of range")
            continue
        ds_k = replace(ds, x0=k @ ds.x0)
        stats_k, _ = dataset_stats(ds_k)
        p_k = data_projector(ds_k)
        d1_k, _ = relative_deviations(ds_k, stats_k.means)
        em_k = exact_min_weighted(ds_k, stats_k)
        scale_p = 1.0 + float(np.max(np.abs(p_script)))
        if float(np.max(np.abs(p_k - p_script))) > 1e-7 * scale_p:
            failures.append(f"K {i}: data projector moved")
        if float(np.max(np.abs(d1_k - d1))) > 1e-7 * (1.0 + float(np.max(np.abs(d1)))):
            failures.append(f"K {i}: delta1_rel moved")
        if abs(em_k - em) > 1e-7 * (1.0 + em):
            failures.append(f"K {i}: exact minimum moved")
    report(4, "scaling and GL(Q) reparametrization invariances", failures)


def test_criterion_5_quadratic_gap():
    failures = []
    for seed in (0, 2, 5):
        ds = square_dataset(seed=seed, noise=0.05)
        for check in quadratic_trend_checks(pipeline(ds)):
            if not check.passed:
                failures.append(f"seed {seed}: {check.name} deviation "
                                f"{check.measured:.3f} > {check.tolerance}")
    report(5, "W2 gap and minimum deficit scale quadratically in delta_p", failures)


def test_criterion_6_metric_equivalence():
    failures = []
    for m, q, seed in ((3, 2, 7), (5, 3, 8), (4, 4, 9)):
        ds = synthesize(m, q, [7] * q, noise=0.05, seed=seed)
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        w2t = w2_tilde(ds, pack)
        rng = np.random.default_rng(100 + seed)
        worst_agree = worst_perp = 0.0
        for _ in range(1000):
            x = random_ball(m, 2.0 * stats.rho, rng)
            out = classify(params, w2t, pack.p, ds, x)
            worst_agree = max(worst_agree, float(np.max(
                np.abs(out.scores - out.metric_scores) / (1.0 + out.scores))))
            v = pack.p_perp @ rng.standard_normal(m)
            shifted = classify(params, w2t, pack.p, ds, x + v)
            worst_perp = max(worst_perp, float(np.max(
                np.abs(shifted.scores - out.scores))))
            if shifted.winner != out.winner:
                failures.append(f"(m={m},q={q}): winner changed under perp shift")
        if worst_agree > 1e-9:
            failures.append(f"(m={m},q={q}): agreement slack {worst_agree:.2e} > 1e-9")
        if worst_perp > 1e-10:
            failures.append(f"(m={m},q={q}): perp sensitivity {worst_perp:.2e} > 1e-10")
    report(6, "network scores equal metric scores; perp components ignored", failures)


def test_criterion_7_truncation():
    failures = []
    ds = square_dataset()
    stats, _ = dataset_stats(ds)
    em = exact_min_weighted(ds, stats)
    rho = stats.rho
    q = ds.q
    rng = np.random.default_rng(55)

    grid: list[tuple[np.ndarray, np.ndarray]] = []
    for t in np.linspace(2.0 * rho, 4.0 * rho, 8):
        grid.append((np.eye(q), t * np.ones(q)))
    for _ in range(4):
        a = rng.standard_normal((q, q))
        a *= 0.01 / np.linalg.norm(a, 2)
        grid.append((np.eye(q) + a, 3.0 * rho * np.ones(q)))

    preserved = 0
    region_values = []
    fixed_points = iter(grid)
    attempts = 0
    while preserved < 30 and attempts < 400:
        attempts += 1
        nxt = next(fixed_points, None)
        if nxt is not None:
            w1, b1 = nxt
        else:
            w1 = np.eye(q)
            b1 = rng.uniform(-0.3 * rho, 1.0 * rho, size=q)
        try:
            res = min_over_output_layer(w1, b1, ds)
        except ShallowminError as exc:
            failures.append(f"point errored: {exc}")
            continue
        if res.min_cost_weighted is None:
            continue
        preserved += 1
        hidden = relu(w1 @ ds.x0 + np.asarray(b1).reshape(-1)[:, None])
        _, _, oracle = weighted_lstsq_oracle(hidden, y_ext(ds), ds.class_sizes,
                                             np.asarray(b1).reshape(-1))
        if abs(res.min_cost_weighted - oracle) > 1e-8 * (1.0 + oracle):
            failures.append(
                f"closed {res.min_cost_weighted} != lstsq {oracle} at point {preserved}")
        if res.in_fixed_point_region:
            region_values.append(res.min_cost_weighted)
    if preserved < 30:
        failures.append(f"only {preserved} rank-preserving points evaluated")
    for v in region_values:
        if abs(v - em) > 1e-8 * (1.0 + em):
            failures.append(f"in-region value {v} != exact minimum {em}")
    if len(region_values) < 2:
        failures.append("fewer than 2 in-region points")
    report(7, "30 rank-preserving truncation points: closed form = least squares; "
              "region minima all equal the exact value", failures)


def test_criterion_8_gd_baseline():
    failures = []
    zero = ClassifiedDataset(
        m=2, q=2, class_sizes=(2, 2),
        x0=np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]), y=np.eye(2))
    params, _ = train_gd(zero, GdConfig())
    c = cost_l2(params, zero)
    if c >= 1e-3:
        failures.append(f"zero-noise GD cost {c} >= 1e-3")
    stats_zero, _ = dataset_stats(zero)
    em_zero = exact_min_weighted(zero, stats_zero)
    if gd_in_fixed_point_region(params, zero):
        if cost_weighted(params, zero) < em_zero - 1e-6:
            failures.append("zero-noise GD beat the exact minimum while in-region")

    for seed in range(4):
        ds = square_dataset(seed=seed, noise=0.1)
        stats, _ = dataset_stats(ds)
        em = exact_min_weighted(ds, stats)
        gd_params, _ = train_gd(ds, GdConfig(seed=seed))
        if gd_in_fixed_point_region(gd_params, ds):
            cw = cost_weighted(gd_params, ds)
            if cw < em - 1e-6:
                failures.append(
                    f"seed {seed}: in-region GD cost {cw} beat exact minimum {em}")
    report(8, "GD reaches < 1e-3 on zero noise; never beats the exact minimum "
              "from inside the fixed-point region", failures)


def test_criterion_9_linalg_kernels():
    failures = []
    rng = np.random.default_rng(66)
    for i in range(500):
        m = int(rng.integers(2, 13))
        q = int(rng.integers(1, m + 1))
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((q, q)))
        s = rng.uniform(0.2, 4.0, size=q)
        a = u[:, :q] * s @ v.T
        pack = projector_pack(a)
        pen = pack.pen
        if np.max(np.abs(pen @ a - np.eye(q))) > 1e-9:
            failures.append(f"matrix {i}: Pen[A] A != I")
        p, p_perp = pack.p, pack.p_perp
        if np.max(np.abs(p @ p - p)) > 1e-9 or np.max(np.abs(p - p.T)) > 1e-9:
            failures.append(f"matrix {i}: projector invariants")
        if np.max(np.abs(p @ a - a)) > 1e-9:
            failures.append(f"matrix {i}: P A != A")
        r = pack.r
        target = np.diag([1.0] * q + [0.0] * (m - q))
        if np.max(np.abs(r @ p @ r.T - target)) > 1e-9:
            failures.append(f"matrix {i}: R P R^T not diagonal")
        if np.max(np.abs(r.T @ r - np.eye(m))) > 1e-9:
            failures.append(f"matrix {i}: R not orthogonal")
    report(9, "500 random kernels: pseudoinverse, projector and rotation identities",
           failures)
