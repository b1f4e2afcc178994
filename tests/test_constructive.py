from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowmin import (
    ConstructiveConfig,
    ShallowParams,
    bound_general,
    cost_l2,
    cost_weighted,
    dataset_stats,
    exact_min_weighted,
    forward,
    synthesize,
    train_exact_meq,
    train_general,
    w2_tilde,
    y_ext,
)
from shallowmin.constructive import (
    exact_w2,
    in_region_perturbation,
    resolve_output_layer,
    sanity_forward_means,
)
from shallowmin import constructive
from shallowmin.errors import BetaTooSmall, ConsistencyError, SingularW1, WrongRegime
from shallowmin.linalg import op_norm
from tests.conftest import weighted_lstsq_oracle


class TestW2Tilde:
    def test_identity_means(self, zero_noise_dataset):
        stats, _ = dataset_stats(zero_noise_dataset)
        assert np.allclose(w2_tilde(zero_noise_dataset, stats), np.eye(2), atol=1e-12)

    def test_scaled_means(self):
        ds_x0 = 2.0 * np.eye(2)
        from shallowmin import ClassifiedDataset
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=ds_x0, y=np.eye(2))
        stats, _ = dataset_stats(ds)
        assert np.allclose(w2_tilde(ds, stats), 0.5 * np.eye(2), atol=1e-14)

    def test_maps_means_to_targets(self):
        ds = synthesize(6, 4, [3, 3, 3, 3], noise=0.05, seed=17)
        stats, _ = dataset_stats(ds)
        w2t = w2_tilde(ds, stats)
        assert np.max(np.abs(w2t @ stats.means - ds.y)) < 1e-10


class TestTrainGeneral:
    def test_zero_noise_exact_fit(self, zero_noise_dataset):
        stats, pack = dataset_stats(zero_noise_dataset)
        params = train_general(zero_noise_dataset, stats, pack)
        _, out = forward(params, zero_noise_dataset.x0)
        assert np.max(np.abs(out - y_ext(zero_noise_dataset))) < 1e-12
        assert cost_l2(params, zero_noise_dataset) < 1e-12

    def test_orthogonal_noise_annihilated(self, e3_noise_dataset):
        # deviations live in range(P_perp) and are deleted by the activation
        stats, pack = dataset_stats(e3_noise_dataset)
        params = train_general(e3_noise_dataset, stats, pack)
        b_l2, _ = bound_general(e3_noise_dataset, stats, pack)
        assert b_l2 < 1e-12
        assert cost_l2(params, e3_noise_dataset) <= 1e-10

    @pytest.mark.parametrize("m,q,noise,seed", [
        (3, 2, 0.0, 0), (4, 2, 0.05, 1), (5, 3, 0.1, 2), (8, 5, 0.02, 3), (6, 6, 0.1, 4),
    ])
    def test_cost_bound_chain(self, m, q, noise, seed):
        ds = synthesize(m, q, [6] * q, noise=noise, seed=seed)
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        b_l2, b_dp = bound_general(ds, stats, pack)
        c = cost_l2(params, ds)
        assert c <= b_l2 + 1e-10 * (1.0 + b_l2)
        assert b_l2 <= b_dp + 1e-12 * (1.0 + b_dp)

    def test_hidden_layer_identity(self):
        ds = synthesize(5, 3, [4, 4, 4], noise=0.1, seed=6)
        stats, pack = dataset_stats(ds)
        cfg = ConstructiveConfig()
        params = train_general(ds, stats, pack, cfg)
        hidden, _ = forward(params, ds.x0)
        expected = pack.r @ (pack.p @ ds.x0)
        expected[: ds.q, :] += cfg.beta1(stats.rho)
        assert np.max(np.abs(hidden - expected)) < 1e-12

    def test_means_map_to_targets(self):
        ds = synthesize(6, 3, [5, 5, 5], noise=0.08, seed=8)
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        assert sanity_forward_means(params, ds, stats) < 1e-9

    def test_beta_margin_does_not_change_cost(self):
        ds = synthesize(4, 3, [5, 5, 5], noise=0.1, seed=10)
        stats, pack = dataset_stats(ds)
        base = cost_l2(train_general(ds, stats, pack, ConstructiveConfig(beta1_margin=0.0)), ds)
        for margin in (0.3, 1.0, 5.0):
            c = cost_l2(train_general(ds, stats, pack, ConstructiveConfig(beta1_margin=margin)), ds)
            assert abs(c - base) <= 1e-10

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            ConstructiveConfig(beta1_margin=-0.1)

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="beta1_margin must be"):
            ConstructiveConfig(beta1_margin=margin)


class TestTrainGeneralSelfChecks:
    """Each runtime self-check of train_general fires once its premise is
    broken, and a passing run evaluates the network once."""

    @pytest.fixture
    def fitted(self):
        ds = synthesize(5, 3, [6, 6, 6], noise=0.1, seed=2)
        stats, pack = dataset_stats(ds)
        return ds, stats, pack

    def test_signal_leak_into_noise_rows(self, fitted):
        ds, stats, pack = fitted
        # p = I keeps the noise directions in r p x0, so its trailing rows
        # no longer vanish.
        with pytest.raises(ConsistencyError, match="signal block leaks"):
            train_general(ds, stats, replace(pack, p=np.eye(ds.m)))

    def test_noise_leak_above_zero(self, fitted):
        ds, stats, pack = fitted
        # A zero noise bias no longer pushes the noise block below zero.
        with pytest.raises(ConsistencyError, match="noise block leaks"):
            train_general(ds, replace(stats, delta=0.0), pack)

    def test_cost_above_bound(self, fitted, monkeypatch):
        ds, stats, pack = fitted
        true_bound = constructive.bound_general

        def halved(*args):
            b_l2, b_dp = true_bound(*args)
            return 0.5 * b_l2, b_dp

        monkeypatch.setattr(constructive, "bound_general", halved)
        with pytest.raises(ConsistencyError, match="exceeds its bound"):
            train_general(ds, stats, pack)

    def test_one_forward(self, fitted, forward_calls):
        train_general(*fitted)
        assert sum(forward_calls) == fitted[0].n

    def test_signal_positivity_guard_fires_for_tiny_beta(self, fitted):
        ds, stats, pack = fitted
        # Bypass the config floor so that beta1 = 0.05 < rho; some signal
        # coordinate of r x0 lies below -beta1 (about -2.49 here).
        cfg = ConstructiveConfig(beta1_margin=0.0)
        object.__setattr__(cfg, "beta1_margin", 0.05 - 2.0 * stats.rho)
        with pytest.raises(BetaTooSmall, match="leaves signal pre-activation"):
            train_general(ds, stats, pack, cfg)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 7), data=st.data())
    def test_trailing_row_bound_covers_the_data(self, m, data):
        # The signal-leak check bounds the trailing rows of r p x0 by
        # op_norm((r p)[q:]) rho without reading the data; that bound is
        # never below the largest entry it stands for.
        q = data.draw(st.integers(1, m - 1), label="q")
        sizes = data.draw(st.lists(st.integers(1, 8), min_size=q, max_size=q), label="sizes")
        scale = data.draw(st.floats(1e-3, 1e3), label="mean_scale")
        noise = data.draw(st.floats(0.0, 0.5), label="noise") * scale
        seed = data.draw(st.integers(0, 2**16), label="seed")
        ds = synthesize(m, q, sizes, mean_scale=scale, noise=noise, seed=seed)
        stats, pack = dataset_stats(ds)
        trailing = (pack.r @ pack.p)[q:]
        assert op_norm(trailing) * stats.rho >= np.max(np.abs(trailing @ ds.x0))


class TestTrainExactMeq:
    def test_zero_noise_identity_case(self, zero_noise_dataset):
        stats, _ = dataset_stats(zero_noise_dataset)
        params = train_exact_meq(zero_noise_dataset, stats)
        assert np.allclose(params.w2, np.eye(2), atol=1e-12)
        assert cost_weighted(params, zero_noise_dataset) < 1e-12

    def test_worked_instance(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        params = train_exact_meq(delta01_dataset, stats)
        cw = cost_weighted(params, delta01_dataset)
        assert cw == pytest.approx(0.1407195, abs=1e-6)
        # brute-force oracle on the realized hidden layer
        hidden, _ = forward(params, delta01_dataset.x0)
        _, _, oracle = weighted_lstsq_oracle(hidden, y_ext(delta01_dataset),
                                             delta01_dataset.class_sizes, params.b1)
        assert abs(cw - oracle) <= 1e-8 * (1.0 + cw)

    def test_wrong_regime(self, e3_noise_dataset):
        stats, _ = dataset_stats(e3_noise_dataset)
        with pytest.raises(WrongRegime):
            train_exact_meq(e3_noise_dataset, stats)

    def test_bias_added_to_x0_only_inside_the_cost_pass(self):
        ds = synthesize(3, 3, [20, 20, 20], noise=0.05, seed=1)
        stats, _ = dataset_stats(ds)

        class CountingX0(np.ndarray):
            adds = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.add and any(isinstance(x, CountingX0) for x in inputs):
                    CountingX0.adds += 1
                inputs = [np.asarray(x) if isinstance(x, CountingX0) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        object.__setattr__(ds, "x0", ds.x0.view(CountingX0))
        params = train_exact_meq(ds, stats)
        assert CountingX0.adds == 0
        assert cost_weighted(params, ds) == pytest.approx(exact_min_weighted(ds, stats), rel=1e-9)

    def test_w2_gap_quarters_when_noise_halves(self):
        g = []
        for noise in (0.2, 0.1):
            ds = synthesize(3, 3, [6, 6, 6], noise=noise, seed=12)
            stats, _ = dataset_stats(ds)
            gap = np.linalg.norm(exact_w2(ds, stats) - w2_tilde(ds, stats), 2)
            g.append(gap)
        assert g[0] / g[1] == pytest.approx(4.0, abs=0.5)

    def test_identity_activation_postcondition(self):
        ds = synthesize(4, 4, [5, 5, 5, 5], noise=0.15, seed=14)
        stats, _ = dataset_stats(ds)
        params = train_exact_meq(ds, stats)
        pre = params.w1 @ ds.x0 + params.b1[:, None]
        assert pre.min() >= 0.0

    def test_bias_reversion_makes_map_linear(self):
        # b2 = -w2 b1 cancels the lift exactly: forward acts as x -> w2 x
        # on the positivity ball, in both variants
        ds = synthesize(3, 3, [6, 6, 6], noise=0.1, seed=2)
        stats, pack = dataset_stats(ds)
        rng = np.random.default_rng(0)
        for params in (train_exact_meq(ds, stats), train_general(ds, stats, pack)):
            x = rng.uniform(-0.5, 0.5, size=(3, 10))
            _, out = forward(params, x)
            linear = params.w2 @ (params.w1 @ x)
            assert np.max(np.abs(out - linear)) < 1e-12

    def test_exact_variant_mean_error_is_second_order(self):
        # the exact variant's W2 differs from the mean interpolant by O(delta_p^2),
        # so forward(mean) misses targets at that order; halve noise -> quarter error
        errs = []
        for noise in (0.05, 0.025):
            ds = synthesize(3, 3, [6, 6, 6], noise=noise, seed=12)
            stats, _ = dataset_stats(ds)
            params = train_exact_meq(ds, stats)
            errs.append(sanity_forward_means(params, ds, stats))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)


class TestDegeneracy:
    def test_in_region_resolve_reproduces_value(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        params = train_exact_meq(delta01_dataset, stats)
        em = exact_min_weighted(delta01_dataset, stats)
        beta1 = ConstructiveConfig().beta1(stats.rho)
        rng = np.random.default_rng(15)
        for _ in range(50):
            w1p, b1p = in_region_perturbation(params, stats, beta1, rng)
            w2p, b2p = resolve_output_layer(w1p, b1p, delta01_dataset, stats)
            cw = cost_weighted(ShallowParams(w1=w1p, b1=b1p, w2=w2p, b2=b2p),
                               delta01_dataset)
            assert abs(cw - em) <= 1e-8 * (1.0 + em)

    def test_resolve_rejects_out_of_region(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        with pytest.raises(BetaTooSmall):
            resolve_output_layer(np.eye(2), np.array([-5.0, 0.0]), delta01_dataset, stats)

    def test_resolve_rejects_singular_w1(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        with pytest.raises(SingularW1):
            resolve_output_layer(np.zeros((2, 2)), np.full(2, 5.0), delta01_dataset, stats)

    def test_resolve_requires_square_data(self, e3_noise_dataset):
        stats, _ = dataset_stats(e3_noise_dataset)
        m = e3_noise_dataset.m
        with pytest.raises(WrongRegime):
            resolve_output_layer(np.eye(m), np.full(m, 5.0), e3_noise_dataset, stats)


def test_positivity_guard_fires_for_tiny_beta():
    # dataset with negative coordinates; bypass the config floor so that
    # beta1 = 0.05 < rho and the pre-activation goes negative
    from shallowmin import ClassifiedDataset
    x0 = np.array([[-1.1, -0.9, 0.0, 0.0], [0.0, 0.0, 1.1, 0.9]])
    ds = ClassifiedDataset(m=2, q=2, class_sizes=(2, 2), x0=x0, y=np.eye(2))
    stats, _ = dataset_stats(ds)
    cfg = ConstructiveConfig(beta1_margin=0.0)
    object.__setattr__(cfg, "beta1_margin", -2.15)  # beta1 = 2*1.1 - 2.15 = 0.05
    with pytest.raises(BetaTooSmall):
        train_exact_meq(ds, stats, cfg)
