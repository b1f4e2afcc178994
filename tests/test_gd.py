import numpy as np
import pytest

from shallowmin import GdConfig, cost_l2, dataset_stats, synthesize, train_gd
from shallowmin.errors import Diverged
from shallowmin.gd import _gradients, compare, gd_in_fixed_point_region
from shallowmin.constructive import train_exact_meq
from shallowmin.dataset import y_ext


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

    def test_trace_steps(self, zero_noise_dataset):
        _, trace = train_gd(zero_noise_dataset, GdConfig(steps=250, record_every=100))
        assert [s for s, _ in trace] == [0, 100, 200, 250]


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
            g_w1, g_b1, g_w2, g_b2, _ = _gradients(w1, b1, w2, b2, ds.x0, targets, ds.n)

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
        stats, pack = dataset_stats(delta01_dataset)
        gd_params, _ = train_gd(delta01_dataset, GdConfig(steps=500))
        cons = train_exact_meq(delta01_dataset, stats)
        doc = compare(delta01_dataset, stats, pack, gd_params, cons)
        assert set(doc) == {"gd", "constructive", "bound_l2", "bound_deltap",
                            "exact_min_weighted"}
        assert doc["constructive"]["cost_weighted"] == pytest.approx(0.1407195, abs=1e-6)
        assert doc["exact_min_weighted"] == pytest.approx(0.1407195, abs=1e-6)

    def test_constructive_cost_below_bound(self):
        ds = synthesize(5, 3, [6, 6, 6], noise=0.1, seed=5)
        stats, pack = dataset_stats(ds)
        from shallowmin import train_general
        cons = train_general(ds, stats, pack)
        gd_params, _ = train_gd(ds, GdConfig(steps=200))
        doc = compare(ds, stats, pack, gd_params, cons)
        assert doc["constructive"]["cost_l2"] <= doc["bound_l2"] + 1e-10

    def test_zero_noise_both_near_zero(self, zero_noise_dataset):
        stats, pack = dataset_stats(zero_noise_dataset)
        gd_params, _ = train_gd(zero_noise_dataset, GdConfig())
        cons = train_exact_meq(zero_noise_dataset, stats)
        doc = compare(zero_noise_dataset, stats, pack, gd_params, cons)
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

        def broken_truncate(w1, b1, ds):
            raise RuntimeError("not a ShallowminError")

        monkeypatch.setattr(gd, "truncate", broken_truncate)
        params = ShallowParams(w1=np.eye(2), b1=np.full(2, 3.0), w2=np.eye(2), b2=np.zeros(2))
        with pytest.raises(RuntimeError, match="not a ShallowminError"):
            gd_in_fixed_point_region(params, delta01_dataset)

    def test_one_forward_per_parameter_set(self, delta01_dataset, forward_calls):
        from shallowmin import cost_weighted
        stats, pack = dataset_stats(delta01_dataset)
        gd_params, _ = train_gd(delta01_dataset, GdConfig(steps=50))
        cons = train_exact_meq(delta01_dataset, stats)
        forward_calls.clear()
        doc = compare(delta01_dataset, stats, pack, gd_params, cons)
        assert sum(forward_calls) == 2 * delta01_dataset.n
        for key, params in (("gd", gd_params), ("constructive", cons)):
            assert doc[key]["cost_l2"] == cost_l2(params, delta01_dataset)
            assert doc[key]["cost_weighted"] == cost_weighted(params, delta01_dataset)
