import gc
import json
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from shallowmin import (
    ClassifiedDataset,
    ShallowParams,
    bound_general,
    cost_l2,
    cost_weighted,
    data_projector,
    dataset_stats,
    evaluate,
    exact_min_weighted,
    forward,
    relative_deviations,
    synthesize,
    train_exact_meq,
    train_general,
    y_ext,
)
from shallowmin import cost
from shallowmin import dataset as dataset_mod
from shallowmin.cost import (
    MAX_PROJECTOR_N,
    _gram,
    closed_form_min,
    exact_minimum,
    lstsq_min_weighted,
    normal_w2,
    projector_action,
    weighted_norm,
)
from shallowmin.errors import ConsistencyError, SingularGram, WrongRegime
from shallowmin.network import params_from_dict, params_to_dict
from shallowmin.verify import random_gl
from tests.conftest import weighted_lstsq_oracle


def gram(ds):
    """The checked Gram X0 N^-1 X0^T of ds, as exact_minimum keeps it."""
    return _gram(ds.x0, ds.inv_size_weights())


def linear_params(w2_eff, beta=5.0):
    """Params acting as x -> w2_eff @ x on inputs with |x| < beta: identity
    first layer lifted by beta, second bias reverting the lift."""
    q, m = np.shape(w2_eff)
    w2_eff = np.asarray(w2_eff, dtype=float)
    return ShallowParams(w1=np.eye(m), b1=np.full(m, beta),
                         w2=w2_eff, b2=-(w2_eff @ np.full(m, beta)))


class TestCostL2:
    def test_perfect_fit(self, zero_noise_dataset):
        p = linear_params(np.eye(2))
        assert cost_l2(p, zero_noise_dataset) == 0.0

    def test_single_residual_column_frobenius(self):
        # sizes (1,1): residual columns (3,4)^T and 0 -> Frobenius 5, cost 5/sqrt(2)
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=np.eye(2), y=np.eye(2))
        w2 = np.eye(2) + np.array([[3.0, 0.0], [4.0, 0.0]])
        p = linear_params(w2)
        assert cost_l2(p, ds) == pytest.approx(5.0 / np.sqrt(2.0), rel=1e-15)

    def test_zero_noise_bound_forces_zero(self, zero_noise_dataset):
        stats, _ = dataset_stats(zero_noise_dataset)
        b_l2, b_dp = bound_general(zero_noise_dataset, stats)
        assert b_l2 == 0.0 and b_dp == 0.0


class TestCostWeighted:
    def test_perfect_fit(self, zero_noise_dataset):
        assert cost_weighted(linear_params(np.eye(2)), zero_noise_dataset) == 0.0

    def test_unit_residuals_direct_sum(self):
        # sizes (1,1), X0 = I, W2 = 2I: residual columns e1 and e2 -> sqrt(2)
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=np.eye(2), y=np.eye(2))
        p = linear_params(2.0 * np.eye(2))
        assert cost_weighted(p, ds) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert cost_l2(p, ds) == pytest.approx(1.0, rel=1e-15)

    def test_sqrt_q_identity_uniform_sizes(self):
        rng = np.random.default_rng(7)
        ds = synthesize(4, 3, [5, 5, 5], noise=0.2, seed=3)
        p = ShallowParams(w1=rng.standard_normal((4, 4)), b1=rng.standard_normal(4),
                          w2=rng.standard_normal((3, 4)), b2=rng.standard_normal(3))
        cw = cost_weighted(p, ds)
        cl = cost_l2(p, ds)
        assert abs(cw - np.sqrt(3) * cl) <= 1e-12 * cw


class TestOneForward:
    """evaluate and costs take both costs from one forward pass, equal to the
    standalone cost_l2 and cost_weighted."""

    @pytest.mark.parametrize("m,q", [(5, 3), (3, 3)])
    def test_evaluate_runs_forward_once(self, m, q, forward_calls):
        ds = synthesize(m, q, [5, 7, 9], noise=0.1, seed=4)
        stats, pack = dataset_stats(ds)
        rng = np.random.default_rng(1)
        p = ShallowParams(w1=rng.standard_normal((m, m)), b1=rng.standard_normal(m),
                          w2=rng.standard_normal((q, m)), b2=rng.standard_normal(q))
        report = evaluate(p, ds, stats, pack)
        assert sum(forward_calls) == ds.n
        assert report.cost_l2 == cost_l2(p, ds)
        assert report.cost_weighted == cost_weighted(p, ds)
        assert cost.costs(p, ds) == (cost_l2(p, ds), cost_weighted(p, ds))



class TestResidualRecord:
    """A full residual pass whose params arrays, x0 and y are all sealed
    leaves its costs in cost._last_pass; a cost query on the same params and
    the same dataset object reads them, and a pass that checks hidden layers
    (a trainer's) never does."""

    @pytest.fixture
    def general(self):
        ds = synthesize(6, 3, [40, 25, 31], noise=0.1, seed=6)
        stats, pack = dataset_stats(ds)
        return ds, stats, pack

    @staticmethod
    def read_only_copy(a):
        a = np.array(a)
        a.flags.writeable = False
        return a

    def test_evaluate_after_training_runs_no_pass(self, general, forward_calls):
        ds, stats, pack = general
        params = train_general(ds, stats, pack)
        report = evaluate(params, ds, stats, pack)
        assert sum(forward_calls) == ds.n
        fresh = params_from_dict(params_to_dict(params))
        assert report.to_dict() == evaluate(fresh, ds, stats, pack).to_dict()
        assert sum(forward_calls) == 2 * ds.n

    def test_other_dataset_objects_run_their_own_pass(self, general, forward_calls):
        ds, stats, pack = general
        params = train_general(ds, stats, pack)
        own = evaluate(params, ds, stats, pack).to_dict()
        twin = replace(ds, x0=self.read_only_copy(ds.x0))
        scaled = replace(ds, x0=self.read_only_copy(3.0 * ds.x0))
        for other in (twin, scaled, ds):
            stats_o, pack_o = dataset_stats(other)
            forward_calls.clear()
            report = evaluate(params, other, stats_o, pack_o).to_dict()
            assert sum(forward_calls) == other.n
            fresh = params_from_dict(params_to_dict(params))
            assert report == evaluate(fresh, other, stats_o, pack_o).to_dict()
            assert (report == own) == (other is not scaled)

    def test_trainers_never_read_a_record(self, general, forward_calls):
        ds, stats, pack = general
        params = train_general(ds, stats, pack)
        train_general(ds, stats, pack)
        assert sum(forward_calls) == 2 * ds.n
        hidden_columns = []
        cost.costs(params, ds, lambda h: hidden_columns.append(h.shape[1]))
        assert sum(forward_calls) == 3 * ds.n and sum(hidden_columns) == ds.n
        square = synthesize(3, 3, [7, 9, 8], noise=0.1, seed=21)
        stats_sq, _ = dataset_stats(square)
        forward_calls.clear()
        train_exact_meq(square, stats_sq)
        train_exact_meq(square, stats_sq)
        assert sum(forward_calls) == 2 * square.n

    def test_writes_to_the_callers_params_arrays_are_seen(self, general, forward_calls):
        ds, _, _ = general
        w1, b1, w2, b2 = np.eye(6), np.full(6, 0.5), np.eye(3, 6), np.zeros(3)
        p = ShallowParams(w1=w1, b1=b1, w2=w2, b2=b2)
        before = cost_l2(p, ds)
        for a in (w1, b1, w2, b2):
            a += 0.25
            fresh = ShallowParams(w1=w1.copy(), b1=b1.copy(), w2=w2.copy(), b2=b2.copy())
            assert cost_l2(p, ds) == cost_l2(fresh, ds) != before
            before = cost_l2(p, ds)
        assert sum(forward_calls) == 13 * ds.n

    def test_writes_to_the_callers_dataset_arrays_are_seen(self, general, forward_calls):
        ds, _, _ = general
        p = ShallowParams(w1=np.eye(6), b1=np.full(6, 0.5), w2=np.eye(3, 6), b2=np.zeros(3))
        x0 = np.array(ds.x0)
        own = ClassifiedDataset(m=6, q=3, class_sizes=ds.class_sizes, x0=x0, y=ds.y)
        before = cost_l2(p, own)
        x0 *= 3.0
        scaled = replace(ds, x0=self.read_only_copy(3.0 * ds.x0))
        assert cost_l2(p, own) == cost_l2(p, scaled) != before
        y = np.array(ds.y)
        targets = replace(ds, y=y)
        before = cost_l2(p, targets)
        y *= 2.0
        assert cost_l2(p, targets) == cost_l2(p, replace(ds, y=2.0 * ds.y)) != before
        assert sum(forward_calls) == 6 * ds.n
        y = np.array(ds.y)
        targets = replace(ds, y=y)
        stats, pack = dataset_stats(targets)
        trained = train_general(targets, stats, pack)
        y *= 2.0
        fresh = params_from_dict(params_to_dict(trained))
        assert evaluate(trained, targets, stats, pack).to_dict() == (
            evaluate(fresh, targets, stats, pack).to_dict())
        assert sum(forward_calls) == 9 * ds.n

    def test_library_built_datasets_are_read_only(self, general, tmp_path):
        ds, _, _ = general
        path = tmp_path / "ds.json"
        dataset_mod.save_json(ds, path)
        labels = np.repeat(np.arange(ds.q), ds.class_sizes)
        built = (ds, dataset_mod.load_json(path), dataset_mod.from_samples(ds.x0.T, labels),
                 dataset_mod.holdout_split(ds, 0.25, seed=1)[0])
        for other in built:
            assert dataset_mod.is_sealed(other.x0) and dataset_mod.is_sealed(other.y)
            with pytest.raises(ValueError):
                other.x0[0, 0] = 1.0
            with pytest.raises(ValueError):
                other.y[0, 0] = 1.0
        samples = np.array(ds.x0.T)
        dataset_mod.from_samples(samples, labels)
        assert samples.flags.writeable

        # Each builder's x0 equals a reference built column by column and is
        # row-major: BLAS results, and so the CLI's output bytes, can depend on
        # the memory order.
        def check(x0, columns, order):
            assert np.array_equal(x0, np.stack(list(columns), axis=1))
            assert x0.dtype == np.float64
            assert x0.flags.c_contiguous == (order == "C") != x0.flags.f_contiguous

        rng = np.random.default_rng(6)
        means, unit = rng.standard_normal((6, 3)), rng.uniform(-1.0, 1.0, size=(6, ds.n))
        check(ds.x0, (means[:, j] + 0.1 * unit[:, i] for i, j in enumerate(labels)), "C")
        loaded = built[1]
        doc = json.loads(path.read_text())
        check(loaded.x0, (np.array(v) for group in doc["classes"] for v in group), "C")
        assert dataset_mod.is_sealed(loaded.x0.T)
        order = np.random.default_rng(3).permutation(ds.n)
        csv_path = tmp_path / "shuffled.csv"
        csv_path.write_text("".join(",".join(map(repr, ds.x0[:, i].tolist())) + f",{labels[i]}\n"
                                    for i in order))
        grouped = [ds.x0[:, i] for j in range(ds.q) for i in order if labels[i] == j]
        for shuffled in (dataset_mod.from_samples(ds.x0.T[order], labels[order]),
                         dataset_mod.load_csv(csv_path)):
            assert shuffled.class_sizes == ds.class_sizes and dataset_mod.is_sealed(shuffled.x0)
            assert dataset_mod.is_sealed(shuffled.y)
            check(shuffled.x0, grouped, "C")
        for source in (ds, loaded):
            train, held_x, held_labels = dataset_mod.holdout_split(source, 0.25, seed=1)
            ref_rng = np.random.default_rng(1)
            kept, held, ref_labels = [], [], []
            for j, sl in enumerate(source.class_slices()):
                nj = sl.stop - sl.start
                n_hold = min(int(round(0.25 * nj)), nj - 1)
                idx = ref_rng.permutation(nj)
                kept += [source.x0[:, sl.start + i] for i in sorted(idx[n_hold:])]
                held += [source.x0[:, sl.start + i] for i in sorted(idx[:n_hold])]
                ref_labels += [j] * n_hold
            assert dataset_mod.is_sealed(train.x0) and held_labels == ref_labels
            assert dataset_mod.is_sealed(train.y)
            check(train.x0, kept, "C")
            check(held_x, held, "C")

    def test_identity_and_serialization_unchanged(self):
        p = ShallowParams(w1=[[1.0, 0.5], [0.0, 2.0]], b1=[2.0, 3.0], w2=[[3.0, -1.0]], b2=[4.0])
        ds = synthesize(2, 1, [5], noise=0.1, seed=1)
        cost_l2(p, ds)
        assert repr(p) == ("ShallowParams(w1=array([[1. , 0.5],\n       [0. , 2. ]]), "
                           "b1=array([2., 3.]), w2=array([[ 3., -1.]]), b2=array([4.]))")
        assert json.dumps(params_to_dict(p)) == (
            '{"w1": [[1.0, 0.5], [0.0, 2.0]], "b1": [2.0, 3.0], "w2": [[3.0, -1.0]], "b2": [4.0]}')
        assert [f.name for f in fields(p)] == ["w1", "b1", "w2", "b2"]
        assert p == p

    def test_a_record_lives_as_long_as_its_params(self, forward_calls):
        # The slot keeps neither the params nor the dataset alive.
        ds = synthesize(6, 3, [40, 25, 31], noise=0.1, seed=6)
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        copy = pickle.loads(pickle.dumps(params))
        assert cost.costs(params, ds) == cost.costs(copy, ds)
        assert sum(forward_calls) == 2 * ds.n
        refs = cost._last_pass[:2]
        assert (refs[0]() is params or refs[0]() is copy) and refs[1]() is ds
        del params, copy, ds, stats, pack
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


WIDE = dataset_mod._CHUNK_COLUMNS + 37  # one class spans two column chunks


class TestBlockedResidual:
    """The blocked residual kernel against the materialized Q x N residual
    forward(p, x0)[1] - y_ext(ds) and its plain and weighted norms."""

    @pytest.mark.parametrize("m,q,sizes", [
        pytest.param(4, 3, [2, 5, 3], id="uneven"),
        pytest.param(5, 2, [WIDE, 3], id="wide-class"),
        pytest.param(3, 3, [1, 4, 2], id="one-sample-class"),
        pytest.param(3, 1, [6], id="q1"),
        pytest.param(2, 1, [1], id="q1-one-sample"),
    ])
    def test_costs_match_materialized_residual(self, m, q, sizes):
        ds = synthesize(m, q, sizes, noise=0.2, seed=9)
        rng = np.random.default_rng(2)
        p = ShallowParams(w1=rng.standard_normal((m, m)), b1=rng.standard_normal(m),
                          w2=rng.standard_normal((q, m)), b2=rng.standard_normal(q))
        resid = forward(p, ds.x0)[1] - y_ext(ds)
        ref_l2 = np.linalg.norm(resid) / np.sqrt(ds.n)
        ref_w = np.sqrt(np.sum(resid * resid * ds.inv_size_weights()[None, :]))
        c_l2, c_w = cost.costs(p, ds)
        assert c_l2 == pytest.approx(ref_l2, rel=1e-13)
        assert c_w == pytest.approx(ref_w, rel=1e-13)
        assert (cost_l2(p, ds), cost_weighted(p, ds)) == (c_l2, c_w)
        assert weighted_norm(resid, ds.class_sizes) == pytest.approx(ref_w, rel=1e-13)

    def test_wide_class_is_forwarded_in_chunks(self, forward_calls):
        ds = synthesize(5, 2, [WIDE, 3], noise=0.2, seed=9)
        cost.costs(linear_params(np.eye(2, 5)), ds)
        assert forward_calls == [dataset_mod._CHUNK_COLUMNS, 37, 3]


def test_bound_general_matches_materialized_product():
    base = synthesize(7, 3, [40, 25, 31], noise=0.1, seed=6)
    y = np.array([[2.0, 0.5, -1.0], [0.3, 1.0, 0.0], [-0.7, 0.2, 3.0]])
    assert not np.allclose(y.T @ y, np.diag(np.diag(y.T @ y)))  # not orthogonal
    ds = replace(base, y=y)
    stats, pack = dataset_stats(ds)
    b_l2, b_dp = bound_general(ds, stats)
    ref = np.linalg.norm((y @ pack.pen) @ dataset_mod.deviations(ds, stats.means)) / np.sqrt(ds.n)
    assert b_l2 == pytest.approx(ref, rel=1e-13)
    assert b_dp == np.linalg.svd(y, compute_uv=False)[0] * stats.delta_p


def probes(n):
    return np.random.default_rng(0).standard_normal((n, 4))


class TestDataProjector:
    """data_projector is the N x N reference; projector_action on a probe
    block must reproduce its product with the block."""

    def test_square_invertible_inputs(self):
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=np.eye(2), y=np.eye(2))
        p = data_projector(ds)
        assert np.allclose(p, np.eye(2), atol=1e-12)
        z = probes(ds.n)
        assert np.max(np.abs(projector_action(ds, gram(ds), z) - p @ z)) <= 1e-12

    def test_delta01_projector_invariants(self, delta01_dataset):
        p = data_projector(delta01_dataset)
        n_mat = np.diag(np.repeat([2.0, 2.0], [2, 2]))
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p.T @ n_mat - n_mat @ p)) < 1e-8
        assert np.linalg.matrix_rank(p) == 2
        # direct arithmetic oracle
        inv_n = np.linalg.inv(n_mat)
        x0 = delta01_dataset.x0
        expected = inv_n @ x0.T @ np.linalg.inv(x0 @ inv_n @ x0.T) @ x0
        assert np.allclose(p, expected, atol=1e-12)
        z = probes(delta01_dataset.n)
        assert np.max(np.abs(projector_action(delta01_dataset, gram(delta01_dataset), z) - p @ z)) <= 1e-12

    def test_gl_invariance(self, delta01_dataset):
        p = data_projector(delta01_dataset)
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = random_gl(2, rng)
            ds_k = replace(delta01_dataset, x0=k @ delta01_dataset.x0)
            p_k = data_projector(ds_k)
            assert np.max(np.abs(p_k - p)) < 1e-8
            z = probes(ds_k.n)
            assert np.max(np.abs(projector_action(ds_k, gram(ds_k), z) - p_k @ z)) <= 1e-12

    def test_probe_measure_detects_row_space_change(self):
        # A generic perturbation of X0 moves its row space, so the projector's
        # action on the probes moves too: the probe measure of
        # invariance.gl-data-projector is not vacuous.
        ds = synthesize(3, 3, [5, 7, 6], noise=0.12, seed=1)
        rng = np.random.default_rng(3)
        ds_e = replace(ds, x0=ds.x0 + 1e-3 * rng.standard_normal(ds.x0.shape))
        z = probes(ds.n)
        pz = projector_action(ds, gram(ds), z)
        moved = np.max(np.abs(projector_action(ds_e, gram(ds_e), z) - pz))
        assert moved / (1.0 + np.max(np.abs(pz))) > 1e-7
        p = data_projector(ds)
        assert np.max(np.abs(pz - p @ z)) <= 1e-12

    def test_wrong_regime(self, e3_noise_dataset):
        with pytest.raises(WrongRegime):
            data_projector(e3_noise_dataset)

    def test_singular_gram(self):
        # means pass the rank gate but the Gram of the squared scales does not
        x0 = np.array([[1.0, 1.0 + 1e-9], [0.0, 1e-9]])
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=x0, y=np.eye(2))
        with pytest.raises(SingularGram):
            data_projector(ds)

    def test_refuses_large_n(self):
        half = (MAX_PROJECTOR_N + 1) // 2
        ds = synthesize(2, 2, [half, MAX_PROJECTOR_N + 1 - half], noise=0.1, seed=0)
        assert ds.n == MAX_PROJECTOR_N + 1
        with pytest.raises(WrongRegime, match="refusing to materialize"):
            data_projector(ds)


class TestProjectorRoute:
    """The matrix-free route against the materialized N x N projector."""

    @pytest.fixture(params=["delta01", "zero_noise", "synthetic"])
    def square(self, request, delta01_dataset, zero_noise_dataset):
        return {
            "delta01": delta01_dataset,
            "zero_noise": zero_noise_dataset,
            "synthetic": synthesize(3, 3, [5, 7, 6], noise=0.12, seed=1),
        }[request.param]

    def test_matches_materialized_projector(self, square):
        stats, _ = dataset_stats(square)
        p_perp = np.eye(square.n) - data_projector(square)
        oracle = weighted_norm(y_ext(square) @ p_perp, square.class_sizes)
        value = exact_minimum(square, stats.means).route
        assert abs(value - oracle) <= 1e-12 * (1.0 + max(value, oracle))

    def test_normal_w2_reproduces_projected_targets(self, square):
        stats, _ = dataset_stats(square)
        p_script = data_projector(square)
        w2 = normal_w2(square, gram(square), stats.means)
        assert np.max(np.abs(w2 @ square.x0 - y_ext(square) @ p_script)) <= 1e-12

    def test_singular_gram(self):
        x0 = np.array([[1.0, 1.0 + 1e-9], [0.0, 1e-9]])
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=x0, y=np.eye(2))
        stats, _ = dataset_stats(ds)
        with pytest.raises(SingularGram):
            exact_minimum(ds, stats.means)

    def test_cross_check_runs_above_projector_limit(self, monkeypatch):
        ds = synthesize(3, 3, [2000, 2000, 2000], noise=0.05, seed=0)
        assert ds.n > MAX_PROJECTOR_N
        stats, _ = dataset_stats(ds)
        exact_min_weighted(ds, stats)
        original = cost.closed_form_min
        monkeypatch.setattr(cost, "closed_form_min", lambda y, d2: original(y, d2) + 1e-6)
        with pytest.raises(ConsistencyError, match="projector route"):
            exact_min_weighted(ds, stats)


class TestRelativeDeviations:
    def test_delta01_frozen(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        d1, d2 = relative_deviations(delta01_dataset, stats.means)
        assert np.allclose(d2, 0.01 * np.eye(2), atol=1e-15)
        dev = dataset_mod.deviations(delta01_dataset, stats.means)
        assert np.allclose(d1, dev, atol=1e-15)  # means = I here

    def test_zero_noise(self, zero_noise_dataset):
        stats, _ = dataset_stats(zero_noise_dataset)
        d1, d2 = relative_deviations(zero_noise_dataset, stats.means)
        assert np.all(d1 == 0.0) and np.all(d2 == 0.0)

    def test_gl_invariance_of_d1(self):
        ds = synthesize(3, 3, [6, 6, 6], noise=0.1, seed=5)
        stats, _ = dataset_stats(ds)
        d1, _ = relative_deviations(ds, stats.means)
        rng = np.random.default_rng(6)
        for _ in range(5):
            k = random_gl(3, rng)
            ds_k = replace(ds, x0=k @ ds.x0)
            stats_k, _ = dataset_stats(ds_k)
            d1_k, _ = relative_deviations(ds_k, stats_k.means)
            assert np.max(np.abs(d1_k - d1)) < 1e-7 * (1.0 + np.max(np.abs(d1)))

    def test_d2_symmetric_psd(self):
        ds = synthesize(4, 4, [7, 5, 6, 8], noise=0.15, seed=9)
        stats, _ = dataset_stats(ds)
        _, d2 = relative_deviations(ds, stats.means)
        assert np.array_equal(d2, d2.T)
        assert np.linalg.eigvalsh(d2).min() > -1e-10


class TestExactMinWeighted:
    def test_zero_noise_is_zero(self, zero_noise_dataset):
        stats, _ = dataset_stats(zero_noise_dataset)
        assert exact_min_weighted(zero_noise_dataset, stats) == 0.0

    def test_delta01_closed_form(self, delta01_dataset):
        # Delta2 = 0.01 I so the value is sqrt(2 * 0.01 / 1.01)
        stats, _ = dataset_stats(delta01_dataset)
        value = exact_min_weighted(delta01_dataset, stats)
        assert value == pytest.approx(np.sqrt(2.0) * 0.1 / np.sqrt(1.01), abs=1e-12)
        assert value == pytest.approx(0.1407195, abs=1e-6)

    def test_brute_force_oracle(self):
        for seed in range(4):
            ds = synthesize(3, 3, [4, 6, 5], noise=0.12, seed=seed)
            stats, _ = dataset_stats(ds)
            value = exact_min_weighted(ds, stats)
            beta = 2.5 * stats.rho
            hidden = ds.x0 + beta
            _, _, oracle = weighted_lstsq_oracle(hidden, y_ext(ds), ds.class_sizes,
                                                 np.full(3, beta))
            assert abs(value - oracle) <= 1e-8 * (1.0 + max(value, oracle))

    def test_never_exceeds_upper_line(self):
        for seed in range(6):
            ds = synthesize(3, 3, [5, 5, 5], noise=0.2, seed=seed)
            stats, _ = dataset_stats(ds)
            value = exact_min_weighted(ds, stats)
            upper = weighted_norm(ds.y @ exact_minimum(ds, stats.means).d1, ds.class_sizes)
            assert value <= upper + 1e-12

    def test_library_lstsq_matches_test_oracle(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        beta = 2.5 * stats.rho
        b1 = np.full(2, beta)
        hidden = delta01_dataset.x0 + beta
        targets = y_ext(delta01_dataset)
        lib = lstsq_min_weighted(hidden, b1, delta01_dataset)
        _, _, ora = weighted_lstsq_oracle(hidden, targets, delta01_dataset.class_sizes, b1)
        assert lib == pytest.approx(ora, rel=1e-12)


class TestBoundGeneral:
    def test_zero_noise(self, zero_noise_dataset):
        stats, _ = dataset_stats(zero_noise_dataset)
        assert bound_general(zero_noise_dataset, stats) == (0.0, 0.0)

    def test_delta01_frozen(self, delta01_dataset):
        stats, _ = dataset_stats(delta01_dataset)
        b_l2, b_dp = bound_general(delta01_dataset, stats)
        assert b_l2 == pytest.approx(0.1, abs=1e-12)
        assert b_dp == pytest.approx(0.1, abs=1e-12)

    def test_scaling_invariance(self):
        ds = synthesize(5, 3, [4, 4, 4], noise=0.1, seed=2)
        stats, _ = dataset_stats(ds)
        b_l2, b_dp = bound_general(ds, stats)
        for lam in (0.1, 7.0, 10.0):
            ds_l = replace(ds, x0=lam * ds.x0)
            stats_l, _ = dataset_stats(ds_l)
            b_l2_l, b_dp_l = bound_general(ds_l, stats_l)
            assert abs(b_l2_l - b_l2) < 1e-9 * b_l2
            assert abs(b_dp_l - b_dp) < 1e-9 * b_dp

    def test_ordering(self):
        for seed in range(5):
            ds = synthesize(6, 3, [5, 7, 4], noise=0.2, seed=seed)
            stats, _ = dataset_stats(ds)
            b_l2, b_dp = bound_general(ds, stats)
            assert b_l2 <= b_dp + 1e-12 * (1.0 + b_dp)


def test_weighted_norm_block_formula():
    a = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 1.0]])
    # blocks of sizes (1, 2): 1/1 * 1 + 1/2 * (4 + 4 + 1) = 5.5
    assert weighted_norm(a, (1, 2)) == pytest.approx(np.sqrt(5.5), rel=1e-15)


class TestSharedKernel:
    """The exact minimum, the truncated minimum and the report all go through
    relative_gram / closed_form_min, so their values agree bit for bit."""

    def test_exact_min_is_closed_form_of_relative_gram(self):
        ds = synthesize(3, 3, [7, 9, 8], noise=0.1, seed=21)
        stats, _ = dataset_stats(ds)
        _, d2 = relative_deviations(ds, stats.means)
        assert exact_min_weighted(ds, stats) == closed_form_min(ds.y, d2)

    def test_truncated_min_is_closed_form_of_truncated_gram(self, delta01_dataset):
        from shallowmin import min_over_output_layer
        res = min_over_output_layer(np.eye(2), np.array([-0.5, 0.0]), delta01_dataset)
        assert res.rank_x0_preserved and res.rank_means_preserved
        assert res.min_cost_weighted == closed_form_min(delta01_dataset.y, res.delta2_rel_tr)

    @pytest.mark.parametrize("loaded", [False, True], ids=["c-ordered", "json-loaded"])
    def test_exact_minimum_fields_are_the_kernels(self, tmp_path, loaded):
        """Each field equals the kernel it comes from bit for bit, on a
        synthesized X0 and on the row-major X0 of a dataset loaded from JSON."""
        ds = synthesize(4, 4, [7, 9, 8, 6], noise=0.1, seed=21)
        if loaded:
            dataset_mod.save_json(ds, tmp_path / "ds.json")
            ds = dataset_mod.load_json(tmp_path / "ds.json")
            assert ds.x0.flags.c_contiguous and not ds.x0.flags.f_contiguous
        stats, _ = dataset_stats(ds)
        exact = exact_minimum(ds, stats.means)
        d1, d2 = relative_deviations(ds, stats.means)
        assert np.array_equal(exact.d1, d1) and np.array_equal(exact.d2, d2)
        assert np.array_equal(exact.gram, gram(ds))
        assert np.array_equal(exact.w2, normal_w2(ds, gram(ds), stats.means))
        assert exact.value == closed_form_min(ds.y, d2) == exact_min_weighted(ds, stats)

    def test_evaluate_solves_once(self, exact_calls):
        ds = synthesize(3, 3, [7, 9, 8], noise=0.1, seed=21)
        stats, pack = dataset_stats(ds)
        evaluate(linear_params(np.eye(3)), ds, stats, pack, include_matrices=True)
        assert exact_calls == {"relative_deviations": 1, "_gram": 1, "closed_form_min": 1}

    def test_evaluate_matrices_are_relative_deviations(self):
        ds = synthesize(3, 3, [7, 9, 8], noise=0.1, seed=21)
        stats, pack = dataset_stats(ds)
        d1, d2 = relative_deviations(ds, stats.means)
        report = evaluate(linear_params(np.eye(3)), ds, stats, pack, include_matrices=True)
        assert np.array_equal(report.delta1_rel, d1)
        assert np.array_equal(report.delta2_rel, d2)


def test_evaluate_report(delta01_dataset):
    stats, pack = dataset_stats(delta01_dataset)
    p = linear_params(np.eye(2))
    report = evaluate(p, delta01_dataset, stats, pack, include_matrices=True)
    assert report.bound_l2 == pytest.approx(0.1, abs=1e-12)
    assert report.exact_min_weighted == pytest.approx(0.1407195, abs=1e-6)
    assert report.delta2_rel.shape == (2, 2)
    doc = report.to_dict(include_matrices=True)
    assert "delta1_rel" in doc and doc["delta_p"] == pytest.approx(0.1)
    import json
    json.dumps(doc)  # everything JSON-serializable
