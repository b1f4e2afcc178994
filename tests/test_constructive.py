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
    in_region_perturbation,
    sanity_forward_means,
    tied_output_layer,
)
from shallowmin import constructive, cost
from shallowmin.constructive import Pipeline, Variant, pipeline
from shallowmin.cost import exact_minimum
from shallowmin.errors import BetaTooLarge, BetaTooSmall, ConsistencyError, SingularW1, WrongRegime
from shallowmin.linalg import op_norm
from tests.conftest import weighted_lstsq_oracle


class TestW2Tilde:
    def test_identity_means(self, zero_noise_dataset):
        _, pack = dataset_stats(zero_noise_dataset)
        assert np.allclose(w2_tilde(zero_noise_dataset, pack), np.eye(2), atol=1e-12)

    def test_scaled_means(self):
        ds_x0 = 2.0 * np.eye(2)
        from shallowmin import ClassifiedDataset
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=ds_x0, y=np.eye(2))
        _, pack = dataset_stats(ds)
        assert np.allclose(w2_tilde(ds, pack), 0.5 * np.eye(2), atol=1e-14)

    def test_maps_means_to_targets(self):
        ds = synthesize(6, 4, [3, 3, 3, 3], noise=0.05, seed=17)
        stats, pack = dataset_stats(ds)
        w2t = w2_tilde(ds, pack)
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
        b_l2, _ = bound_general(e3_noise_dataset, stats)
        assert b_l2 < 1e-12
        assert cost_l2(params, e3_noise_dataset) <= 1e-10

    @pytest.mark.parametrize("m,q,noise,seed", [
        (3, 2, 0.0, 0), (4, 2, 0.05, 1), (5, 3, 0.1, 2), (8, 5, 0.02, 3), (6, 6, 0.1, 4),
    ])
    def test_cost_bound_chain(self, m, q, noise, seed):
        ds = synthesize(m, q, [6] * q, noise=noise, seed=seed)
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        b_l2, b_dp = bound_general(ds, stats)
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

    @pytest.mark.parametrize("trainer", ["general", "square"])
    def test_large_beta1_is_named_not_blamed_on_the_cost(self, trainer):
        """The lift X0 + beta1 moves an output by about eps beta1 ||w2||_op.
        Just below the beta1 at which that reaches the cost check's tolerance
        on an output, the fit passes; at every margin up to 1e22 it passes or
        raises BetaTooLarge naming beta1, never ConsistencyError."""
        q = 2 if trainer == "general" else 3
        pl = pipeline(synthesize(3, q, [8] * q, noise=0.05, seed=0))  # train --m 3 --q {q}
        fit = getattr(pl, trainer)
        tol = (1e-10 * (1.0 + fit.bound_l2) if trainer == "general"
               else 1e-9 * (1.0 + pl.minimum.value) / np.sqrt(q))
        threshold = tol / (np.finfo(float).eps * op_norm(fit.params.w2)) - 2.0 * pl.stats.rho
        outcomes = []
        for margin in [0.999 * threshold, *np.geomspace(1.0, 1e22, 45)]:
            try:
                getattr(replace(pl, cfg=ConstructiveConfig(beta1_margin=float(margin))), trainer)
                outcomes.append(True)
            except BetaTooLarge as exc:
                assert margin > threshold and str(exc).startswith("beta1=")
                outcomes.append(False)
        assert outcomes[0] and not outcomes[-1]


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
        # r = I does not rotate the span of p onto the leading rows, so the
        # trailing rows of r p x0 no longer vanish.
        with pytest.raises(ConsistencyError, match="signal block leaks"):
            train_general(ds, stats, replace(pack, r=np.eye(ds.m)))

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

    def test_one_gram_solve(self, exact_calls):
        """w2 and the target value come from one exact_minimum call: one
        relative-deviations pass, one Gram solve, one closed form."""
        ds = synthesize(4, 4, [6, 5, 7, 6], noise=0.1, seed=3)
        stats, _ = dataset_stats(ds)
        train_exact_meq(ds, stats)
        assert exact_calls == {"relative_deviations": 1, "_gram": 1, "closed_form_min": 1}

    def test_projector_route_checks_the_trained_w2(self, monkeypatch):
        ds = synthesize(3, 3, [6, 6, 6], noise=0.1, seed=2)
        stats, _ = dataset_stats(ds)
        original = cost.normal_w2
        monkeypatch.setattr(cost, "normal_w2", lambda *a: original(*a) * (1.0 + 1e-3))
        with pytest.raises(ConsistencyError, match="projector route"):
            train_exact_meq(ds, stats)

    def test_closed_form_errors_come_before_beta_too_small(self, monkeypatch):
        """Only stats that bypass dataset_stats reach BetaTooSmall; the closed
        form's own checks run first."""
        ds = synthesize(3, 3, [6, 6, 6], noise=0.1, seed=2)
        stats, _ = dataset_stats(ds)
        bypass = replace(stats, rho=1e-3 * stats.rho)
        with pytest.raises(BetaTooSmall):
            train_exact_meq(ds, bypass)
        original = cost.closed_form_min
        monkeypatch.setattr(cost, "closed_form_min", lambda y, d2: original(y, d2) + 1e-6)
        with pytest.raises(ConsistencyError, match="projector route"):
            train_exact_meq(ds, bypass)

    def test_w2_gap_quarters_when_noise_halves(self):
        g = []
        for noise in (0.2, 0.1):
            ds = synthesize(3, 3, [6, 6, 6], noise=noise, seed=12)
            stats, pack = dataset_stats(ds)
            gap = np.linalg.norm(exact_minimum(ds, stats.means).w2 - w2_tilde(ds, pack), 2)
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


class TestFit:
    """A record's fits carry what their trainer proved and its minimum is
    the closed form; each equals what a caller computing it afresh gets, bit
    for bit."""

    @pytest.mark.parametrize("m,q,variant", [(5, 3, Variant.GENERAL), (3, 3, Variant.GENERAL),
                                             (3, 3, Variant.EXACT)])
    def test_certificate_equals_the_kernels(self, m, q, variant):
        ds = synthesize(m, q, [6, 7, 5][:q], noise=0.1, seed=2)
        ds = replace(ds, x0=np.array(ds.x0))  # writable: costs run their own pass
        stats, pack = dataset_stats(ds)
        pl = Pipeline(ds, stats, pack)
        f = pl.square if variant is Variant.EXACT else pl.general
        assert (f.cost_l2, f.cost_weighted) == (cost_l2(f.params, ds), cost_weighted(f.params, ds))
        assert (f.bound_l2, f.bound_deltap) == cost.bound_general(ds, stats)
        if variant is Variant.GENERAL:
            assert "minimum" not in vars(pl)
            return
        exact = exact_minimum(ds, stats.means)
        for name in ("d1", "d2", "gram", "w2"):
            assert np.array_equal(getattr(pl.minimum, name), getattr(exact, name))
        assert (pl.minimum.value, pl.minimum.route) == (exact.value, exact.route)

    def test_trainers_return_the_fit_params(self):
        ds = synthesize(3, 3, [6, 6, 6], noise=0.1, seed=2)
        stats, pack = dataset_stats(ds)
        pl = Pipeline(ds, stats, pack)
        for params, expected in ((train_general(ds, stats, pack), pl.general.params),
                                 (train_exact_meq(ds, stats), pl.square.params)):
            for name in ("w1", "b1", "w2", "b2"):
                assert np.array_equal(getattr(params, name), getattr(expected, name))

    def test_general_fit_on_square_data_solves_no_closed_form(self, exact_calls):
        pl = pipeline(synthesize(3, 3, [6, 6, 6], noise=0.1, seed=2))
        pl.general
        assert "minimum" not in vars(pl)
        assert exact_calls == {"relative_deviations": 0, "_gram": 0, "closed_form_min": 0}


class TestPipeline:
    """pipeline(ds) makes one stats pass; every derived part is built on
    first read, at most once."""

    def test_parts_built_once_and_only_when_read(self, pipeline_calls):
        pl = pipeline(synthesize(3, 3, [6, 6, 6], noise=0.1, seed=2))
        assert pipeline_calls == {"compute_stats": 1, "class_means": 1, "exact_minimum": 0,
                                  "_fit_general": 0, "_fit_exact": 0}
        for _ in range(2):
            assert pl.square.cost_weighted == pytest.approx(pl.minimum.value, rel=1e-9)
            assert pl.general.cost_l2 <= pl.general.bound_l2 + 1e-10
            pl.scale_slack
        assert pipeline_calls == {"compute_stats": 3, "class_means": 3, "exact_minimum": 1,
                                  "_fit_general": 1, "_fit_exact": 1}

    def test_square_checks_the_regime_first(self, pipeline_calls):
        pl = pipeline(synthesize(5, 3, [6, 6, 6], noise=0.1, seed=2))
        for read in (lambda: pl.square, lambda: pl.minimum):
            with pytest.raises(WrongRegime, match=r"requires M = Q, got M=5, Q=3"):
                read()
        assert pipeline_calls["exact_minimum"] == 0

    def test_nan_closed_form_is_refused(self, monkeypatch):
        """A NaN closed form fails the projector-route check, so neither the
        minimum nor the M = Q fit is built on it."""
        monkeypatch.setattr(cost, "closed_form_min", lambda y, d2: float("nan"))
        pl = pipeline(synthesize(3, 3, [6, 6, 6], noise=0.1, seed=2))
        for read in (lambda: pl.minimum, lambda: pl.square):
            with pytest.raises(ConsistencyError, match="projector route"):
                read()

    def test_another_config_shares_stats_not_fits(self):
        pl = pipeline(synthesize(4, 2, [6, 6], noise=0.1, seed=2))
        big = replace(pl, cfg=ConstructiveConfig(beta1_margin=5.0))
        assert big.stats is pl.stats and big.pack is pl.pack
        assert big.general.params.b1[0] == 2.0 * pl.stats.rho + 5.0
        assert pl.general.params.b1[0] == 2.5 * pl.stats.rho

    def test_fit_params_are_sealed_and_shared_arrays_are_not(self):
        """A Fit's params cannot change under the costs its pass measured; the
        closed-form arrays they were copied from stay writable."""
        pl = pipeline(synthesize(3, 3, [6, 6, 6], noise=0.1, seed=2))
        for fit in (pl.general, pl.square):
            for name in ("w1", "b1", "w2", "b2"):
                with pytest.raises(ValueError):
                    getattr(fit.params, name)[0] += 1.0
        assert pl.minimum.w2.flags.writeable
        w2 = pl.minimum.w2.copy()
        pl.minimum.w2[0, 0] += 1.0
        assert np.array_equal(pl.square.params.w2, w2)


class TestDegeneracy:
    def test_in_region_resolve_reproduces_value(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        params = train_exact_meq(delta01_dataset, stats)
        em = exact_min_weighted(delta01_dataset, stats)
        v = exact_minimum(delta01_dataset, stats.means).w2
        beta1 = ConstructiveConfig().beta1(stats.rho)
        rng = np.random.default_rng(15)
        for _ in range(50):
            w1p, b1p = in_region_perturbation(params, stats, beta1, rng)
            w2p, b2p = tied_output_layer(w1p, b1p, delta01_dataset, v)
            cw = cost_weighted(ShallowParams(w1=w1p, b1=b1p, w2=w2p, b2=b2p),
                               delta01_dataset)
            assert abs(cw - em) <= 1e-8 * (1.0 + em)

    def test_resolve_rejects_out_of_region(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        v = exact_minimum(delta01_dataset, stats.means).w2
        with pytest.raises(BetaTooSmall):
            tied_output_layer(np.eye(2), np.array([-5.0, 0.0]), delta01_dataset, v)

    def test_resolve_rejects_singular_w1(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        v = exact_minimum(delta01_dataset, stats.means).w2
        with pytest.raises(SingularW1):
            tied_output_layer(np.zeros((2, 2)), np.full(2, 5.0), delta01_dataset, v)

    def test_resolve_requires_square_data(self, e3_noise_dataset):
        # No exact minimum exists for M != Q, so any Q x M v stands in for one.
        m, q = e3_noise_dataset.m, e3_noise_dataset.q
        with pytest.raises(WrongRegime):
            tied_output_layer(np.eye(m), np.full(m, 5.0), e3_noise_dataset, np.eye(q, m))


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
