import numpy as np
import pytest

from shallowmin import (
    ShallowParams,
    classify,
    classify_batch,
    dataset_stats,
    metric,
    synthesize,
    train_general,
    w2_tilde,
)
from shallowmin.classify import score_batch
from shallowmin.errors import DimensionError
from shallowmin.verify import random_ball


@pytest.fixture
def trained(e3_noise_dataset):
    stats, pack = dataset_stats(e3_noise_dataset)
    params = train_general(e3_noise_dataset, stats, pack)
    return e3_noise_dataset, stats, pack, params


class TestScore:
    def test_class_mean_scores_zero_on_its_class(self, trained):
        ds, stats, pack, params = trained
        for j in range(ds.q):
            s = score_batch(params, ds.y, stats.means[:, j][:, None])[0]
            assert s[j] < 1e-9
            assert s[1 - j] > 0.1

    def test_perp_component_ignored(self, trained):
        ds, stats, pack, params = trained
        x = stats.means[:, 0]
        v = pack.p_perp @ np.array([0.3, -0.2, 0.7])
        assert np.allclose(score_batch(params, ds.y, (x + v)[:, None])[0],
                           score_batch(params, ds.y, x[:, None])[0], atol=1e-10)

    def test_fixed_output_arithmetic(self):
        # network forced to output (0.9, 0.1): scores are sqrt(0.02), sqrt(1.62)
        from shallowmin import ClassifiedDataset
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=np.eye(2), y=np.eye(2))
        p = ShallowParams(w1=np.zeros((2, 2)), b1=np.array([0.9, 0.1]),
                          w2=np.eye(2), b2=np.zeros(2))
        s = score_batch(p, ds.y, np.array([5.0, -3.0])[:, None])[0]
        assert s[0] == pytest.approx(np.sqrt(0.02), rel=1e-12)
        assert s[1] == pytest.approx(np.sqrt(1.62), rel=1e-12)

    def test_dimension_error(self, trained):
        ds, _, _, params = trained
        with pytest.raises(DimensionError):
            score_batch(params, ds.y, np.zeros(5)[:, None])


class TestMetric:
    def test_identity_and_symmetry(self, trained):
        ds, stats, pack, _ = trained
        w2t = w2_tilde(ds, pack)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal((2, ds.m))
            assert metric(w2t, pack.p, x, x) == 0.0
            d_xy = metric(w2t, pack.p, x, y)
            assert d_xy == pytest.approx(metric(w2t, pack.p, y, x), abs=1e-12)
            assert d_xy >= 0.0

    def test_triangle_inequality(self, trained):
        ds, stats, pack, _ = trained
        w2t = w2_tilde(ds, pack)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x, y, z = rng.standard_normal((3, ds.m))
            assert metric(w2t, pack.p, x, z) <= (
                metric(w2t, pack.p, x, y) + metric(w2t, pack.p, y, z) + 1e-12)

    def test_zero_iff_projections_equal(self, trained):
        ds, stats, pack, _ = trained
        w2t = w2_tilde(ds, pack)
        x = np.array([0.4, -0.2, 0.9])
        v = pack.p_perp @ np.array([1.0, 2.0, 3.0])
        assert metric(w2t, pack.p, x, x + v) < 1e-12
        # full rank of w2_tilde on range(P): distinct projections separate
        y = x + pack.p @ np.array([0.1, 0.0, 0.0])
        assert metric(w2t, pack.p, x, y) > 1e-3


class TestClassify:
    def test_training_samples_recover_their_class(self, zero_noise_dataset):
        ds = zero_noise_dataset
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        w2t = w2_tilde(ds, pack)
        labels = [j for j, s in enumerate(ds.class_sizes) for _ in range(s)]
        for i in range(ds.n):
            out = classify(params, w2t, pack.p, ds, ds.x0[:, i])
            assert out.winner == labels[i]
            assert out.agreement

    def test_tie_breaks_to_lower_index(self, zero_noise_dataset):
        ds = zero_noise_dataset
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        w2t = w2_tilde(ds, pack)
        x = np.array([0.5, 0.5])  # equidistant from both means by symmetry
        out = classify(params, w2t, pack.p, ds, x)
        assert out.scores[0] == out.scores[1]
        assert out.winner == 0

    def test_agreement_on_random_points(self):
        ds = synthesize(3, 2, [5, 5], noise=0.05, seed=2)
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        w2t = w2_tilde(ds, pack)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = random_ball(3, 2.0 * stats.rho, rng)
            out = classify(params, w2t, pack.p, ds, x)
            assert out.agreement
            assert np.max(np.abs(out.scores - out.metric_scores)
                          / (1.0 + out.scores)) < 1e-9

    def test_perp_shift_keeps_outcome(self):
        ds = synthesize(4, 2, [4, 4], noise=0.05, seed=4)
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        w2t = w2_tilde(ds, pack)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = random_ball(4, 2.0 * stats.rho, rng)
            v = pack.p_perp @ rng.standard_normal(4)
            a = classify(params, w2t, pack.p, ds, x)
            b = classify(params, w2t, pack.p, ds, x + v)
            assert a.winner == b.winner
            assert np.allclose(a.scores, b.scores, atol=1e-10)


class TestClassifyBatch:
    @pytest.fixture
    def general(self):
        ds = synthesize(5, 3, [6, 6, 6], noise=0.05, seed=6)
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        return ds, stats, pack, params, w2_tilde(ds, pack)

    def test_matches_per_point_loop(self, general):
        ds, stats, pack, params, w2t = general
        rng = np.random.default_rng(7)
        x = np.stack([random_ball(ds.m, 2.0 * stats.rho, rng) for _ in range(100)], axis=1)
        batch = classify_batch(params, w2t, pack.p, stats.means, ds.y, x)
        loop = [classify(params, w2t, pack.p, ds, x[:, k]) for k in range(x.shape[1])]
        assert batch.winners.tolist() == [o.winner for o in loop]
        assert batch.agreement.tolist() == [o.agreement for o in loop]
        np.testing.assert_allclose(batch.scores, [o.scores for o in loop], rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch.metric_scores, [o.metric_scores for o in loop],
                                   rtol=1e-12, atol=0)

    def test_tie_breaks_to_lower_index_per_column(self, zero_noise_dataset):
        ds = zero_noise_dataset
        stats, pack = dataset_stats(ds)
        params = train_general(ds, stats, pack)
        w2t = w2_tilde(ds, pack)
        x = np.array([[0.5, 0.0, 0.5],
                      [0.5, 1.0, 0.5]])  # symmetric point, mean of class 1, symmetric point
        out = classify_batch(params, w2t, pack.p, stats.means, ds.y, x)
        assert out.scores[0, 0] == out.scores[0, 1]
        assert out.winners.tolist() == [0, 1, 0]

    def test_empty_block(self, general):
        ds, stats, pack, params, w2t = general
        out = classify_batch(params, w2t, pack.p, stats.means, ds.y, np.zeros((ds.m, 0)))
        assert out.scores.shape == out.metric_scores.shape == (0, ds.q)
        assert out.winners.shape == out.agreement.shape == (0,)

    def test_single_column_equals_classify(self, general):
        ds, stats, pack, params, w2t = general
        x = stats.means[:, 1] + 0.01
        out = classify_batch(params, w2t, pack.p, stats.means, ds.y, x[:, None])
        ref = classify(params, w2t, pack.p, ds, x)
        assert out.winners.tolist() == [ref.winner]
        assert out.agreement.tolist() == [ref.agreement]
        assert out.scores[0].tolist() == ref.scores.tolist()
        assert out.metric_scores[0].tolist() == ref.metric_scores.tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_columns(self, general, bad):
        ds, stats, pack, params, w2t = general
        x = np.tile(stats.means[:, :1], (1, 4))
        x[2, 3] = bad
        with pytest.raises(DimensionError, match="column 3"):
            classify_batch(params, w2t, pack.p, stats.means, ds.y, x)

    def test_rejects_wrong_height(self, general):
        ds, stats, pack, params, w2t = general
        with pytest.raises(DimensionError):
            classify_batch(params, w2t, pack.p, stats.means, ds.y, np.zeros((ds.m + 1, 2)))
