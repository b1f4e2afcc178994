from dataclasses import replace

import numpy as np
import pytest

from shallowmin import (
    cost_weighted,
    dataset_stats,
    exact_min_weighted,
    min_over_output_layer,
    pipeline,
    sweep_fixed_point_region,
    synthesize,
    y_ext,
)
from shallowmin import ClassifiedDataset, ShallowParams, truncation, verify
from shallowmin.gd import gd_in_fixed_point_region
from shallowmin.checks import rel
from shallowmin.constructive import tied_output_layer
from shallowmin.errors import (
    BetaTooSmall,
    ConsistencyError,
    NotPositiveSemidefinite,
    SingularMeans,
    SingularW1,
    WrongRegime,
)
from shallowmin.network import relu
from shallowmin.cost import exact_minimum
from shallowmin.dataset import block_means
from tests.conftest import weighted_lstsq_oracle


class TestTruncate:
    """tau(X0) as min_over_output_layer reports it, tau_x0."""

    def test_identity_region(self, delta01_dataset):
        b1 = np.full(2, 2.0 * 1.1)  # 2 rho
        tau = min_over_output_layer(np.eye(2), b1, delta01_dataset).tau_x0
        # (x + beta) - beta round-trips to the last ulp, not bitwise
        assert np.max(np.abs(tau - delta01_dataset.x0)) <= 1e-12

    def test_full_truncation_to_zero(self):
        from shallowmin import ClassifiedDataset
        x0 = np.array([[-1.0, -2.0, -0.1, -0.2], [-0.5, -0.4, -2.0, -1.0]])
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(2, 2), x0=x0, y=np.eye(2))
        tau = min_over_output_layer(np.eye(2), np.zeros(2), ds).tau_x0
        assert np.array_equal(tau, np.zeros_like(x0))

    def test_partial_clip_frozen(self, delta01_dataset):
        # b1 = (-0.5, 0): class-2 first coordinates 0 -> pre-activation -0.5,
        # clipped to 0, mapped back to 0.5; everything else untouched.
        tau = min_over_output_layer(np.eye(2), np.array([-0.5, 0.0]), delta01_dataset).tau_x0
        expected = np.array([[1.1, 0.9, 0.5, 0.5],
                             [0.0, 0.0, 1.1, 0.9]])
        assert np.allclose(tau, expected, atol=1e-15)

    def test_reapplication_identity_random_points(self, delta01_dataset):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w1 = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
            if np.linalg.matrix_rank(w1) < 2:
                continue
            b1 = rng.uniform(-2.0, 2.0, size=2)
            tau = min_over_output_layer(w1, b1, delta01_dataset).tau_x0
            reapplied = w1 @ tau + b1[:, None]
            assert np.max(np.abs(relu(reapplied) - reapplied)) < 1e-10

    @pytest.mark.parametrize("entry", [-1e-12, -0.0, 0.5, -1.0, np.nan])
    def test_reapplication_leak_over_all_entries(self, delta01_dataset, monkeypatch, entry):
        # With w1 = I and b1 = 0, reapplied is tau; one planted entry of tau
        # must give the leak max|relu(r) - r| over every entry r, and a leak
        # that is NaN or over tolerance must fail.
        solve = np.linalg.solve

        def planted(a, b):
            tau = solve(a, b)
            tau[0, 0] = entry
            return tau

        monkeypatch.setattr(np.linalg, "solve", planted)
        reapplied = planted(np.eye(2), relu(delta01_dataset.x0))
        with np.errstate(invalid="ignore"):
            expected = np.max(np.abs(relu(reapplied) - reapplied))
        if expected <= 1e-10:
            leak = truncation._truncation_pass(np.eye(2), np.zeros(2), delta01_dataset)[3]
            assert leak == expected
        else:
            with pytest.raises(ConsistencyError, match="reapplication identity"):
                truncation._truncation_pass(np.eye(2), np.zeros(2), delta01_dataset)

    def test_singular_w1(self, delta01_dataset):
        with pytest.raises(SingularW1):
            min_over_output_layer(np.ones((2, 2)), np.zeros(2), delta01_dataset).tau_x0

    def test_wrong_regime(self, e3_noise_dataset):
        with pytest.raises(WrongRegime):
            min_over_output_layer(np.eye(3), np.zeros(3), e3_noise_dataset).tau_x0


class TestRankPreserving:
    @staticmethod
    def _flags(res):
        return res.rank_x0_preserved, res.rank_means_preserved

    def test_identity_case(self, delta01_dataset):
        res = min_over_output_layer(np.eye(2), np.full(2, 3.0), delta01_dataset)
        assert self._flags(res) == (True, True)

    def test_full_truncation_loses_rank(self):
        from shallowmin import ClassifiedDataset
        x0 = np.array([[-1.0, -2.0, -0.1, -0.2], [-0.5, -0.4, -2.0, -1.0]])
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(2, 2), x0=x0, y=np.eye(2))
        res = min_over_output_layer(np.eye(2), np.zeros(2), ds)
        assert self._flags(res) == (False, False)

    def test_partial_clip_flags_match_rank_oracle(self, delta01_dataset):
        res = min_over_output_layer(np.eye(2), np.array([-0.5, 0.0]), delta01_dataset)
        # SVD oracle: truncated matrix and truncated means both keep rank 2
        assert np.linalg.matrix_rank(res.tau_x0) == 2
        assert self._flags(res) == (True, True)


class TestMinOverOutputLayer:
    def test_in_region_equals_exact_min(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        em = exact_min_weighted(delta01_dataset, stats)
        res = min_over_output_layer(np.eye(2), np.full(2, 3.0), delta01_dataset)
        assert res.in_fixed_point_region
        assert res.min_cost_weighted == pytest.approx(em, rel=1e-10)
        assert res.delta_p_tr == pytest.approx(stats.delta_p, rel=1e-10)

    def test_full_truncation_absent_min(self):
        from shallowmin import ClassifiedDataset
        x0 = np.array([[-1.0, -2.0, -0.1, -0.2], [-0.5, -0.4, -2.0, -1.0]])
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(2, 2), x0=x0, y=np.eye(2))
        res = min_over_output_layer(np.eye(2), np.zeros(2), ds)
        assert not res.rank_x0_preserved and not res.rank_means_preserved
        assert res.min_cost_weighted is None

    def test_partial_clip_matches_brute_force(self, delta01_dataset):
        w1, b1 = np.eye(2), np.array([-0.5, 0.0])
        res = min_over_output_layer(w1, b1, delta01_dataset)
        assert not res.in_fixed_point_region
        hidden = relu(w1 @ delta01_dataset.x0 + b1[:, None])
        _, _, oracle = weighted_lstsq_oracle(hidden, y_ext(delta01_dataset),
                                             delta01_dataset.class_sizes, b1)
        assert res.min_cost_weighted == pytest.approx(oracle, rel=1e-8)

    def test_projector_route_matches_closed_form(self, delta01_dataset):
        w1, b1 = np.eye(2), np.array([-0.5, 0.0])
        res = min_over_output_layer(w1, b1, delta01_dataset)
        tau = res.tau_x0
        assert res.min_cost_weighted == pytest.approx(
            exact_minimum(replace(delta01_dataset, x0=tau),
                          block_means(tau, delta01_dataset.class_sizes)).route,
            rel=1e-9)


class TestSweep:
    def test_in_region_bias_sweep_identical_minima(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        rho = stats.rho
        grid = [(np.eye(2), t * np.ones(2)) for t in np.linspace(2 * rho, 4 * rho, 7)]
        points = list(sweep_fixed_point_region(delta01_dataset, grid))
        assert all(p.result.in_fixed_point_region for p in points)
        vals = [p.result.min_cost_weighted for p in points]
        assert rel(max(vals), min(vals)) < 1e-8
        em = exact_min_weighted(delta01_dataset, stats)
        for p in points:
            assert p.result.min_cost_weighted == pytest.approx(em, rel=1e-8)

    def test_region_flag_flips_below_threshold(self, delta01_dataset):
        # t below -min entry of class-2 first coordinate clips: 0 + t < 0 for t < 0
        grid = [(np.eye(2), t * np.ones(2)) for t in (-0.5, 0.05, 2.5)]
        points = list(sweep_fixed_point_region(delta01_dataset, grid))
        flags = [p.result.in_fixed_point_region for p in points]
        assert flags == [False, True, True]
        # outside the region the minima differ from the in-region value
        vals = [p.result.min_cost_weighted for p in points if p.result.min_cost_weighted]
        assert abs(vals[0] - vals[-1]) > 1e-6

    def test_per_point_errors_recorded(self, delta01_dataset):
        grid = [
            (np.eye(2), np.full(2, 3.0)),
            (np.ones((2, 2)), np.zeros(2)),  # singular w1
            (np.eye(2), np.full(2, 4.0)),
        ]
        points = list(sweep_fixed_point_region(delta01_dataset, grid))
        assert points[0].error is None and points[2].error is None
        assert isinstance(points[1].error, SingularW1) and points[1].error.__traceback__ is None
        assert points[1].to_dict()["error"] == "SingularW1: w1 must be invertible"
        assert points[1].leak is None  # the pass itself raised
        assert points[0].leak is not None and points[2].leak is not None
        assert [p.index for p in points] == [0, 1, 2]

    def test_rank_reducing_point_excluded_from_minima(self):
        from shallowmin import ClassifiedDataset
        x0 = np.array([[-1.0, -2.0, -0.1, -0.2], [-0.5, -0.4, -2.0, -1.0]])
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(2, 2), x0=x0, y=np.eye(2))
        grid = [(np.eye(2), np.full(2, 5.0)), (np.eye(2), np.zeros(2))]
        points = list(sweep_fixed_point_region(ds, grid))
        assert points[0].result.min_cost_weighted is not None
        assert points[1].result.min_cost_weighted is None
        vals = [p.result.min_cost_weighted for p in points
                if p.result.in_fixed_point_region and p.result.min_cost_weighted is not None]
        assert rel(max(vals), min(vals)) == 0.0


class TestDataRanksOnce:
    """rank(X0), an SVD of the M x N data, is taken once per sweep, not once per
    grid point."""

    @pytest.fixture
    def x0_rank_calls(self, monkeypatch):
        calls = []
        original = truncation.numerical_rank

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(truncation, "numerical_rank", counting)
        return calls

    def test_sweep(self, delta01_dataset, x0_rank_calls):
        grid = [(np.eye(2), t * np.ones(2)) for t in (-0.5, 0.05, 2.5, 3.0)]
        points = sweep_fixed_point_region(delta01_dataset, grid)
        assert all(p.error is None for p in points)
        assert sum(a is delta01_dataset.x0 for a in x0_rank_calls) == 1

    def test_suite_truncation(self, x0_rank_calls):
        ds = synthesize(3, 3, [20, 20, 20], noise=0.05, seed=1)
        checks = verify.suite_truncation(pipeline(ds))
        assert all(c.passed for c in checks)
        assert sum(a is ds.x0 for a in x0_rank_calls) == 1


class TestSuiteReusesSweep:
    """suite_truncation reads each point's reapplication leak and error from
    the sweep and never truncates a point again."""

    @pytest.fixture
    def truncate_calls(self, monkeypatch):
        calls = []
        original = truncation._truncation_pass

        def counting(w1, b1, ds):
            calls.append(b1)
            return original(w1, b1, ds)

        monkeypatch.setattr(truncation, "_truncation_pass", counting)
        return calls

    def test_one_truncation_per_grid_point(self, truncate_calls):
        ds = synthesize(3, 3, [20, 20, 20], noise=0.05, seed=1)
        checks = verify.suite_truncation(pipeline(ds))
        assert all(c.passed for c in checks)
        assert len(truncate_calls) == len(verify.default_truncation_grid(pipeline(ds)))

    def test_error_after_the_pass_keeps_one_pass_per_point(self, monkeypatch, truncate_calls):
        ds = synthesize(3, 3, [20, 20, 20], noise=0.05, seed=1)
        clean = {c.name: c.measured for c in verify.suite_truncation(pipeline(ds))}
        original = truncation._min_over_output_layer
        calls = []

        def first_point_failed(passed, b1, ds, data_ranks):
            calls.append(1)
            if len(calls) == 1:
                raise NotPositiveSemidefinite("injected")
            return original(passed, b1, ds, data_ranks)

        monkeypatch.setattr(truncation, "_min_over_output_layer", first_point_failed)
        truncate_calls.clear()
        checks = {c.name: c.measured for c in verify.suite_truncation(pipeline(ds))}
        assert len(truncate_calls) == len(verify.default_truncation_grid(pipeline(ds)))
        assert checks["truncation.reapplication-identity"] \
            == clean["truncation.reapplication-identity"]

    @pytest.mark.parametrize("where", ["pass", "last point"])
    def test_error_raised_with_its_own_type_and_message(self, monkeypatch, where):
        """A point whose truncation pass raised, or an errored full truncation
        (the last point), raises that error from the suite."""
        ds = synthesize(3, 3, [20, 20, 20], noise=0.05, seed=1)
        n = len(verify.default_truncation_grid(pipeline(ds)))
        target = "_truncation_pass" if where == "pass" else "_min_over_output_layer"
        original = getattr(truncation, target)
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == (3 if where == "pass" else n):
                raise SingularW1("injected at one point")
            return original(*args)

        monkeypatch.setattr(truncation, target, failing)
        with pytest.raises(SingularW1, match="^injected at one point$"):
            verify.suite_truncation(pipeline(ds))

    def test_oracle_read_from_the_sweep(self, monkeypatch):
        # The closed-vs-lstsq check reads the oracle value the sweep already
        # compared: one least-squares solve per rank-preserving point.
        ds = synthesize(3, 3, [20, 20, 20], noise=0.05, seed=1)
        calls = []
        original = truncation.lstsq_min_weighted

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(truncation, "lstsq_min_weighted", counting)
        monkeypatch.setattr(verify, "lstsq_min_weighted", counting)
        points = list(verify.sweep_fixed_point_region(
            ds, verify.default_truncation_grid(pipeline(ds))))
        n_preserving = sum(p.result is not None and p.result.min_cost_weighted is not None
                           for p in points)
        assert n_preserving > 0 and len(calls) == n_preserving
        assert all("lstsq_oracle" not in p.to_dict(include_matrices=True) for p in points)
        calls.clear()
        checks = {c.name: c for c in verify.suite_truncation(pipeline(ds))}
        assert len(calls) == n_preserving
        assert checks["truncation.closed-vs-lstsq"].passed

    def test_errored_points_counted_in_the_detail(self, monkeypatch):
        """A point whose minimum raised is counted, with the first such index,
        in closed-vs-lstsq's detail instead of dropping out of it; the
        verdicts do not change, and without errors the detail keeps its text."""
        ds = synthesize(3, 3, [20, 20, 20], noise=0.05, seed=1)
        clean = {c.name: c for c in verify.suite_truncation(pipeline(ds))}
        n_clean = int(clean["truncation.closed-vs-lstsq"].detail.split()[0])
        assert clean["truncation.closed-vs-lstsq"].detail == f"{n_clean} rank-preserving points"
        original = truncation._min_over_output_layer
        calls = []

        def failing_rotations(w1, b1, ds, data_ranks):
            calls.append(1)
            if len(calls) in (8, 9):  # grid points 7 and 8: in-region rotations
                raise NotPositiveSemidefinite("injected")
            return original(w1, b1, ds, data_ranks)

        monkeypatch.setattr(truncation, "_min_over_output_layer", failing_rotations)
        checks = {c.name: c for c in verify.suite_truncation(pipeline(ds))}
        assert checks["truncation.closed-vs-lstsq"].detail \
            == f"{n_clean - 2} rank-preserving points, 2 errored, first at index 7"
        assert {k: c.passed for k, c in checks.items()} == {k: c.passed for k, c in clean.items()}


def test_closed_form_vs_lstsq_over_random_clippings():
    ds = synthesize(3, 3, [6, 6, 6], noise=0.1, seed=20)
    stats, _ = dataset_stats(ds)
    rng = np.random.default_rng(21)
    n_checked = 0
    while n_checked < 10:
        b1 = rng.uniform(-0.3 * stats.rho, 1.0 * stats.rho, size=3)
        res = min_over_output_layer(np.eye(3), b1, ds)
        if res.min_cost_weighted is None:
            continue
        hidden = relu(ds.x0 + b1[:, None])
        _, _, oracle = weighted_lstsq_oracle(hidden, y_ext(ds), ds.class_sizes, b1)
        assert abs(res.min_cost_weighted - oracle) <= 1e-8 * (1.0 + oracle)
        n_checked += 1


class TestDependentMeans:
    """Third class mean = first + second; the samples still span R^3."""

    @pytest.fixture
    def dependent_ds(self):
        x0 = np.array([[1.0, 1.0, 0.0, 0.0, 1.0, 1.0],
                       [0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                       [0.1, -0.1, 0.1, -0.1, 0.1, -0.1]])
        return ClassifiedDataset(m=3, q=3, class_sizes=(2, 2, 2), x0=x0, y=np.eye(3))

    def test_rank_preserving_point_raises_singular_means(self, dependent_ds):
        with pytest.raises(SingularMeans):
            min_over_output_layer(np.eye(3), np.full(3, 5.0), dependent_ds)

    def test_sweep_records_error_and_continues(self, dependent_ds):
        grid = [(np.eye(3), np.full(3, 5.0)), (np.eye(3), np.full(3, -10.0))]
        points = list(sweep_fixed_point_region(dependent_ds, grid))
        assert isinstance(points[0].error, SingularMeans)
        assert points[0].to_dict() == {
            "index": 0, "error": "SingularMeans: truncated class means have rank 2 < Q=3"}
        assert points[0].leak is not None  # raised after the pass
        assert points[1].error is None
        assert points[1].result.min_cost_weighted is None


class TestSignRule:
    """A first layer is in the fixed-point region iff no pre-activation
    w1 X0 + b1 is negative; the flag of min_over_output_layer and
    gd_in_fixed_point_region both read that sign, with no tolerance."""

    @staticmethod
    def _scaled(s):
        return synthesize(4, 4, [30] * 4, mean_scale=s, noise=0.05 * s, seed=1)

    @pytest.mark.parametrize("s", [1e4, 2.0 ** 20, 1e8])
    def test_region_found_at_large_scale(self, s):
        ds = self._scaled(s)
        points = sweep_fixed_point_region(ds, verify.default_truncation_grid(pipeline(ds)))
        assert sum(p.result is not None and p.result.in_fixed_point_region for p in points) >= 1
        checks = {c.name: c for c in verify.suite_truncation(pipeline(ds))}
        assert checks["truncation.region-matches-exact"].passed

    def test_shifted_identity_in_region_at_scale_1e4(self):
        ds = self._scaled(1e4)
        stats, _ = dataset_stats(ds)
        b1 = 3.0 * stats.rho * np.ones(4)
        assert min_over_output_layer(np.eye(4), b1, ds).in_fixed_point_region
        params = ShallowParams(w1=np.eye(4), b1=b1, w2=np.eye(4), b2=np.zeros(4))
        assert gd_in_fixed_point_region(params, ds)

    @pytest.mark.parametrize("b1_first,inside", [
        (-0.9, True),                           # the smallest pre-activation is exactly 0
        (np.nextafter(-0.9, -1.0), False),      # one pre-activation is -1.1e-16
    ])
    def test_one_slightly_negative_pre_activation(self, delta01_dataset, b1_first, inside):
        # Row 0 of w1 X0 is (1.1, 0.9, 2.2, 1.8): its minimum 0.9 is attained once.
        w1, b1 = np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([b1_first, 3.0])
        pre = w1 @ delta01_dataset.x0 + b1[:, None]
        assert np.sum(pre < 0) == (0 if inside else 1)
        assert min_over_output_layer(w1, b1, delta01_dataset).in_fixed_point_region == inside
        params = ShallowParams(w1=w1, b1=b1, w2=np.eye(2), b2=np.zeros(2))
        assert gd_in_fixed_point_region(params, delta01_dataset) == inside

    @pytest.mark.parametrize("b1_first,inside", [
        (-0.9, True),                           # the smallest pre-activation is exactly 0
        (np.nextafter(-0.9, -1.0), False),      # one pre-activation is -1.1e-16
    ])
    def test_resolve_output_layer_reads_the_same_sign(self, delta01_dataset, b1_first, inside):
        w1, b1 = np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([b1_first, 3.0])
        stats, _ = dataset_stats(delta01_dataset)
        v = exact_minimum(delta01_dataset, stats.means).w2
        if not inside:
            with pytest.raises(BetaTooSmall):
                tied_output_layer(w1, b1, delta01_dataset, v)
            return
        w2, b2 = tied_output_layer(w1, b1, delta01_dataset, v)
        cw = cost_weighted(ShallowParams(w1=w1, b1=b1, w2=w2, b2=b2), delta01_dataset)
        em = exact_min_weighted(delta01_dataset, stats)
        assert abs(cw - em) <= 1e-8 * (1.0 + em)

    def test_one_first_layer_product_per_point(self, monkeypatch):
        ds = synthesize(3, 3, [20, 20, 20], noise=0.05, seed=1)
        grid = verify.default_truncation_grid(pipeline(ds))
        data_ranks = truncation._data_ranks(ds)

        class CountingX0(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and any(x is counted for x in inputs):
                    CountingX0.products += 1
                inputs = [np.asarray(x) if isinstance(x, CountingX0) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        counted = ds.x0.view(CountingX0)
        object.__setattr__(ds, "x0", counted)
        passes, oracle_hidden = [], []
        original_pass, original_lstsq = truncation._truncation_pass, truncation.lstsq_min_weighted

        def recording_pass(w1, b1, ds):
            out = original_pass(w1, b1, ds)
            passes.append(out[1])
            return out

        def recording_lstsq(hidden, *args, **kwargs):
            oracle_hidden.append(hidden)
            return original_lstsq(hidden, *args, **kwargs)

        monkeypatch.setattr(truncation, "_truncation_pass", recording_pass)
        monkeypatch.setattr(truncation, "lstsq_min_weighted", recording_lstsq)
        for w1, b1 in grid:
            before = CountingX0.products
            res = truncation._min_over_output_layer(
                truncation._truncation_pass(w1, b1, ds), b1, ds, data_ranks)
            assert CountingX0.products - before == 1
            if res.min_cost_weighted is not None:
                assert oracle_hidden[-1] is passes[-1]
        assert len(passes) == len(grid) and len(oracle_hidden) > 0

    def test_region_checks_fail_without_in_region_points(self, monkeypatch):
        ds = synthesize(3, 3, [20, 20, 20], noise=0.05, seed=1)
        original = verify.sweep_fixed_point_region

        def no_region(ds, grid):
            points = list(original(ds, grid))
            for p in points:
                if p.result is not None:
                    p.result.in_fixed_point_region = False
            return points

        monkeypatch.setattr(verify, "sweep_fixed_point_region", no_region)
        checks = {c.name: c for c in verify.suite_truncation(pipeline(ds))}
        for name in ("truncation.region-flat", "truncation.region-matches-exact"):
            assert not checks[name].passed
            assert checks[name].detail == "0 in-region points"
