import numpy as np
import pytest

from shallowmin import GdConfig, cost_l2, dataset_stats, pipeline, synthesize, train_gd
from shallowmin.errors import Diverged
from shallowmin.gd import _Workspace, compare, gd_in_fixed_point_region
from shallowmin.constructive import train_exact_meq
from shallowmin.dataset import from_samples, y_ext


def reference_gradients(w1, b1, w2, b2, x0, targets, n):
    """The allocating formulas of one gradient step, in plain numpy."""
    pre = w1 @ x0 + b1[:, None]
    mask = pre > 0.0
    hidden = np.where(mask, pre, 0.0)
    resid = w2 @ hidden + b2[:, None] - targets
    scale = 2.0 / n
    g_w2 = scale * (resid @ hidden.T)
    g_b2 = scale * resid.sum(axis=1)
    back = (w2.T @ resid) * mask
    g_w1 = scale * (back @ x0.T)
    g_b1 = scale * back.sum(axis=1)
    cost_sq = float(np.sum(resid * resid)) / n
    return g_w1, g_b1, g_w2, g_b2, cost_sq


def reference_train_gd(ds, cfg):
    """train_gd with fresh arrays at every step, without the divergence check."""
    rng = np.random.default_rng(cfg.seed)
    w1 = cfg.init_scale * rng.standard_normal((ds.m, ds.m))
    b1 = np.zeros(ds.m)
    w2 = cfg.init_scale * rng.standard_normal((ds.q, ds.m))
    b2 = np.zeros(ds.q)
    targets = y_ext(ds)
    trace = []
    for step in range(cfg.steps + 1):
        g_w1, g_b1, g_w2, g_b2, cost_sq = reference_gradients(
            w1, b1, w2, b2, ds.x0, targets, ds.n)
        if step % cfg.record_every == 0 or step == cfg.steps:
            trace.append((step, float(np.sqrt(cost_sq))))
        if step == cfg.steps:
            break
        w1 = w1 - cfg.learning_rate * g_w1
        b1 = b1 - cfg.learning_rate * g_b1
        w2 = w2 - cfg.learning_rate * g_w2
        b2 = b2 - cfg.learning_rate * g_b2
    return (w1, b1, w2, b2), trace


def ray_dataset():
    """Samples close to the ray through (1, 1, 1, 1): every hidden unit whose
    first-layer row sums below zero starts dead and stays dead."""
    rng = np.random.default_rng(0)
    t = rng.uniform(1.0, 2.0, 40)
    samples = t[:, None] * np.ones(4) + 0.01 * rng.uniform(size=(40, 4))
    return from_samples(samples, [0] * 20 + [1] * 20)


class TestTrainGd:
    def test_zero_learning_rate_keeps_params(self, zero_noise_dataset):
        cfg = GdConfig(learning_rate=0.0, steps=200, seed=1)
        params, trace = train_gd(zero_noise_dataset, cfg)
        cfg_ref = GdConfig(learning_rate=0.0, steps=0, seed=1)
        init, _ = train_gd(zero_noise_dataset, cfg_ref)
        assert np.array_equal(params.w1, init.w1)
        assert np.array_equal(params.w2, init.w2)
        costs = {c for _, c in trace}
        assert len(costs) == 1

    def test_deterministic_per_seed(self, delta01_dataset):
        cfg = GdConfig(steps=300, seed=7)
        p1, t1 = train_gd(delta01_dataset, cfg)
        p2, t2 = train_gd(delta01_dataset, cfg)
        assert np.array_equal(p1.w1, p2.w1) and np.array_equal(p1.b2, p2.b2)
        assert t1 == t2

    def test_zero_noise_converges(self, zero_noise_dataset):
        params, trace = train_gd(zero_noise_dataset, GdConfig())
        assert cost_l2(params, zero_noise_dataset) < 1e-4  # 10x under the 1e-3 gate
        assert trace[0][1] > trace[-1][1]

    def test_divergence_detected(self, delta01_dataset):
        with pytest.raises(Diverged):
            train_gd(delta01_dataset, GdConfig(learning_rate=50.0, steps=5000))

    @pytest.mark.parametrize("cfg, message", [
        (GdConfig(learning_rate=1e300, steps=5), "exceeds 1e6 x initial"),
        (GdConfig(init_scale=1e300, steps=5), "is not finite"),
    ])
    def test_overflow_is_diverged_without_warnings(self, delta01_dataset, cfg, message):
        # pyproject's filterwarnings turns every RuntimeWarning into an error,
        # so a numpy overflow warning escaping the steps would fail this test.
        with pytest.raises(Diverged, match=message):
            train_gd(delta01_dataset, cfg)

    @pytest.mark.parametrize("field", ["learning_rate", "init_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be"):
            GdConfig(**{field: value})

    def test_trace_steps(self, zero_noise_dataset):
        _, trace = train_gd(zero_noise_dataset, GdConfig(steps=250, record_every=100))
        assert [s for s, _ in trace] == [0, 100, 200, 250]

    @pytest.mark.parametrize("make, cfg, has_dead_units", [
        (lambda: synthesize(5, 3, [6, 9, 4], noise=0.2, seed=2),
         GdConfig(steps=300, seed=1, learning_rate=0.05, record_every=7), False),
        (ray_dataset, GdConfig(steps=250, seed=3, record_every=10), True),
    ], ids=["noisy", "dead-units"])
    def test_in_place_steps_match_allocating_reference_bitwise(self, make, cfg, has_dead_units):
        ds = make()
        params, trace = train_gd(ds, cfg)
        ref_weights, ref_trace = reference_train_gd(ds, cfg)
        for got, want in zip((params.w1, params.b1, params.w2, params.b2), ref_weights):
            assert np.array_equal(got, want)
        assert trace == ref_trace
        pre = params.w1 @ ds.x0 + params.b1[:, None]
        assert np.all(pre <= 0.0, axis=1).any() == has_dead_units


class TestGradients:
    def test_matches_central_finite_differences(self):
        # checked away from ReLU kinks: skip points with tiny pre-activations
        ds = synthesize(3, 2, [4, 4], noise=0.1, seed=3)
        targets = y_ext(ds)
        rng = np.random.default_rng(4)
        h = 1e-6
        checked = 0
        while checked < 10:
            w1 = rng.standard_normal((3, 3))
            b1 = rng.standard_normal(3)
            w2 = rng.standard_normal((2, 3))
            b2 = rng.standard_normal(2)
            pre = w1 @ ds.x0 + b1[:, None]
            if np.min(np.abs(pre)) < 1e-3:
                continue
            work = _Workspace(ds.x0, targets)
            work.gradients(w1, b1, w2, b2)
            g_w1, g_b1, g_w2, g_b2 = work.grads

            def cost_sq(w1=w1, b1=b1, w2=w2, b2=b2):
                hid = np.maximum(w1 @ ds.x0 + b1[:, None], 0.0)
                r = w2 @ hid + b2[:, None] - targets
                return float(np.sum(r * r)) / ds.n

            for g, arr, name in ((g_w1, w1, "w1"), (g_b1, b1, "b1"),
                                 (g_w2, w2, "w2"), (g_b2, b2, "b2")):
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                bumped_p = arr.copy(); bumped_p[idx] += h
                bumped_m = arr.copy(); bumped_m[idx] -= h
                kwargs_p = {name: bumped_p}
                kwargs_m = {name: bumped_m}
                fd = (cost_sq(**kwargs_p) - cost_sq(**kwargs_m)) / (2 * h)
                assert abs(g[idx] - fd) <= 1e-5 * (1.0 + abs(fd)), name
            checked += 1


class TestCompare:
    def test_report_fields(self, delta01_dataset):
        pl = pipeline(delta01_dataset)
        gd_params, _ = train_gd(delta01_dataset, GdConfig(steps=500))
        cons = pl.square
        doc = compare(pl, gd_params, cons)
        assert set(doc) == {"gd", "constructive", "bound_l2", "bound_deltap",
                            "exact_min_weighted"}
        assert doc["constructive"]["cost_weighted"] == pytest.approx(0.1407195, abs=1e-6)
        assert doc["exact_min_weighted"] == pytest.approx(0.1407195, abs=1e-6)

    def test_constructive_cost_below_bound(self):
        ds = synthesize(5, 3, [6, 6, 6], noise=0.1, seed=5)
        pl = pipeline(ds)
        cons = pl.general
        gd_params, _ = train_gd(ds, GdConfig(steps=200))
        doc = compare(pl, gd_params, cons)
        assert doc["constructive"]["cost_l2"] <= doc["bound_l2"] + 1e-10

    def test_zero_noise_both_near_zero(self, zero_noise_dataset):
        pl = pipeline(zero_noise_dataset)
        gd_params, _ = train_gd(zero_noise_dataset, GdConfig())
        cons = pl.square
        doc = compare(pl, gd_params, cons)
        assert doc["gd"]["cost_l2"] < 1e-3
        assert doc["constructive"]["cost_l2"] < 1e-12

    def test_region_membership_detection(self, delta01_dataset):
        from shallowmin import ShallowParams
        stats, _ = dataset_stats(delta01_dataset)
        inside = train_exact_meq(delta01_dataset, stats)
        assert gd_in_fixed_point_region(inside, delta01_dataset)
        clipped = ShallowParams(w1=np.eye(2), b1=np.array([-0.5, 0.0]),
                                w2=np.eye(2), b2=np.zeros(2))
        assert not gd_in_fixed_point_region(clipped, delta01_dataset)

    def test_region_check_propagates_non_library_errors(self, delta01_dataset, monkeypatch):
        from shallowmin import ShallowParams, gd

        def broken_region_rule(w1, b1, ds):
            raise RuntimeError("not a ShallowminError")

        monkeypatch.setattr(gd, "_region_preactivation", broken_region_rule)
        params = ShallowParams(w1=np.eye(2), b1=np.full(2, 3.0), w2=np.eye(2), b2=np.zeros(2))
        with pytest.raises(RuntimeError, match="not a ShallowminError"):
            gd_in_fixed_point_region(params, delta01_dataset)

    def test_region_check_solves_nothing(self, delta01_dataset, monkeypatch):
        from shallowmin import ShallowParams

        solves = []
        original = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a, **k: solves.append(1) or original(*a, **k))
        params = ShallowParams(w1=np.eye(2), b1=np.full(2, 3.0), w2=np.eye(2), b2=np.zeros(2))
        assert gd_in_fixed_point_region(params, delta01_dataset)
        assert solves == []

    def test_one_forward_per_parameter_set(self, delta01_dataset, forward_calls):
        """One pass for GD's costs; the constructive costs are the Fit's."""
        from shallowmin import cost_weighted
        pl = pipeline(delta01_dataset)
        gd_params, _ = train_gd(delta01_dataset, GdConfig(steps=50))
        cons = pl.square
        forward_calls.clear()
        doc = compare(pl, gd_params, cons)
        assert sum(forward_calls) == delta01_dataset.n
        for key, params in (("gd", gd_params), ("constructive", cons.params)):
            assert doc[key]["cost_l2"] == cost_l2(params, delta01_dataset)
            assert doc[key]["cost_weighted"] == cost_weighted(params, delta01_dataset)
