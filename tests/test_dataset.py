import json

import numpy as np
import pytest

from shallowmin import ClassifiedDataset, class_means, dataset_stats, synthesize, y_ext
from shallowmin.dataset import (
    from_samples,
    load_csv,
    load_dataset,
    load_json,
    save_json,
)
from shallowmin.errors import DegenerateMeans, DimensionError, RankDeficient


class TestStats:
    def test_zero_noise(self, zero_noise_dataset):
        stats, _ = dataset_stats(zero_noise_dataset)
        assert np.allclose(stats.means, np.eye(2))
        assert np.all(stats.dev == 0.0)
        assert stats.delta == 0.0
        assert stats.delta_p == 0.0

    def test_delta01_frozen_values(self, delta01_dataset):
        # Pen[I] = I and P = I, so delta_p = delta = max column norm = 0.1
        stats, _ = dataset_stats(delta01_dataset)
        assert np.allclose(stats.means, np.eye(2), atol=1e-15)
        assert stats.delta == pytest.approx(0.1, abs=1e-15)
        assert stats.delta_p == pytest.approx(0.1, abs=1e-12)
        assert stats.rho == pytest.approx(1.1, abs=1e-15)

    def test_single_sample_classes(self):
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1),
                               x0=np.array([[2.0, 0.0], [0.0, 3.0]]), y=np.eye(2))
        stats, _ = dataset_stats(ds)
        assert np.all(stats.dev == 0.0)
        assert stats.delta_p == 0.0

    def test_per_class_deviation_sums_vanish(self):
        ds = synthesize(4, 3, [5, 9, 3], noise=0.2, seed=11)
        stats, _ = dataset_stats(ds)
        start = 0
        for nj in ds.class_sizes:
            block_sum = stats.dev[:, start:start + nj].sum(axis=1)
            assert np.linalg.norm(block_sum) <= 1e-9 * nj * stats.rho
            start += nj

    def test_reconstruction_bitwise(self):
        ds = synthesize(3, 2, [4, 4], noise=0.3, seed=5)
        stats, _ = dataset_stats(ds)
        assert np.array_equal(ds.x0, stats.mean_ext + stats.dev)

    def test_delta_p_scaling_invariance(self):
        from dataclasses import replace
        ds = synthesize(4, 3, [6, 6, 6], noise=0.1, seed=3)
        stats, _ = dataset_stats(ds)
        for lam in (0.1, 10.0):
            stats_l, _ = dataset_stats(replace(ds, x0=lam * ds.x0))
            assert abs(stats_l.delta_p - stats.delta_p) < 1e-9 * stats.delta_p

    def test_degenerate_means(self):
        x0 = np.array([[1.0, 1.0], [0.0, 0.0]])  # both class means on e1
        ds = ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=x0, y=np.eye(2))
        with pytest.raises(DegenerateMeans):
            dataset_stats(ds)


class TestSynthesize:
    def test_zero_noise_gives_zero_delta(self):
        stats, _ = dataset_stats(synthesize(3, 2, [4, 5], noise=0.0, seed=9))
        assert stats.delta == 0.0

    def test_deterministic_per_seed(self):
        a = synthesize(4, 3, [5, 5, 5], noise=0.07, seed=42)
        b = synthesize(4, 3, [5, 5, 5], noise=0.07, seed=42)
        assert np.array_equal(a.x0, b.x0)
        c = synthesize(4, 3, [5, 5, 5], noise=0.07, seed=43)
        assert not np.array_equal(a.x0, c.x0)

    def test_delta_bound_for_pairs(self):
        # With two samples per class the deviation is (u1 - u2)/2 per component,
        # bounded by the noise amplitude, so |dev column| <= noise * sqrt(m).
        noise = 0.05
        ds = synthesize(3, 2, [2, 2], noise=noise, seed=13)
        stats, _ = dataset_stats(ds)
        assert stats.delta <= noise * np.sqrt(3) + 1e-15
        # brute-force column-norm oracle
        expected = max(
            np.linalg.norm(ds.x0[:, i] - ds.x0[:, sl].mean(axis=1))
            for sl in ds.class_slices() for i in range(ds.n) if sl.start <= i < sl.stop
        )
        assert stats.delta == pytest.approx(expected, rel=1e-15)

    def test_delta_safe_bound_general_sizes(self):
        # empirical re-centering can exceed noise*sqrt(m) for N_j >= 3 but
        # never 2*noise*sqrt(m)
        noise = 0.05
        for seed in range(5):
            stats, _ = dataset_stats(synthesize(3, 2, [7, 9], noise=noise, seed=seed))
            assert stats.delta <= 2 * noise * np.sqrt(3)

    def test_noise_scales_deviations_exactly(self):
        a = synthesize(3, 2, [4, 4], noise=0.08, seed=21)
        b = synthesize(3, 2, [4, 4], noise=0.04, seed=21)
        sa, _ = dataset_stats(a)
        sb, _ = dataset_stats(b)
        assert np.allclose(sa.dev, 2.0 * sb.dev, rtol=0, atol=1e-15)

    def test_q_greater_than_m_rejected(self):
        with pytest.raises(DimensionError):
            synthesize(2, 3, [1, 1, 1])


class TestYExt:
    @pytest.mark.parametrize("y,sizes,expected", [
        (np.eye(2), (1, 1), [[1, 0], [0, 1]]),
        (np.eye(2), (2, 1), [[1, 1, 0], [0, 0, 1]]),
        ([[1, 2], [3, 4]], (1, 2), [[1, 2, 2], [3, 4, 4]]),
    ])
    def test_examples(self, y, sizes, expected):
        m = 2
        x0 = np.column_stack([np.eye(2)[:, j] for j, s in enumerate(sizes) for _ in range(s)])
        ds = ClassifiedDataset(m=m, q=2, class_sizes=sizes, x0=x0, y=np.array(y, dtype=float))
        assert np.array_equal(y_ext(ds), np.array(expected, dtype=float))

    def test_full_rank(self):
        ds = synthesize(5, 3, [2, 3, 4], noise=0.1, seed=0)
        from shallowmin import numerical_rank
        assert numerical_rank(y_ext(ds)) == 3


class TestValidation:
    def test_dependent_targets_rejected(self):
        with pytest.raises(RankDeficient):
            ClassifiedDataset(m=2, q=2, class_sizes=(1, 1),
                              x0=np.eye(2), y=np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_q_le_m_enforced(self):
        with pytest.raises(DimensionError):
            ClassifiedDataset(m=1, q=2, class_sizes=(1, 1),
                              x0=np.ones((1, 2)), y=np.eye(2))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            ClassifiedDataset(m=2, q=2, class_sizes=(2, 2), x0=np.eye(2), y=np.eye(2))

    def test_nonfinite_rejected(self):
        x0 = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(DimensionError):
            ClassifiedDataset(m=2, q=2, class_sizes=(1, 1), x0=x0, y=np.eye(2))


class TestIO:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5,0.0,0\n0.5,0.0,0\n0.0,2.0,1\n")
        ds = load_csv(path)
        assert ds.m == 2 and ds.q == 2 and ds.class_sizes == (2, 1)
        assert np.allclose(ds.x0, [[1.5, 0.5, 0.0], [0.0, 0.0, 2.0]])

    def test_csv_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n1.0,0.0,0\n0.0,1.0,1\n")
        ds = load_csv(path, has_header=True)
        assert ds.n == 2

    def test_csv_groups_interleaved_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,0.0,1\n0.0,1.0,0\n2.0,0.0,1\n")
        ds = load_csv(path)
        assert ds.class_sizes == (1, 2)
        assert np.allclose(ds.x0[:, 0], [0.0, 1.0])

    def test_json_roundtrip(self, tmp_path, delta01_dataset):
        path = tmp_path / "data.json"
        save_json(delta01_dataset, path)
        ds = load_json(path)
        assert np.array_equal(ds.x0, delta01_dataset.x0)
        assert ds.class_sizes == delta01_dataset.class_sizes
        assert np.array_equal(ds.y, delta01_dataset.y)

    def test_json_default_identity_targets(self, tmp_path):
        path = tmp_path / "data.json"
        doc = {"m": 2, "q": 2, "classes": [[[1.0, 0.0]], [[0.0, 1.0]]]}
        path.write_text(json.dumps(doc))
        ds = load_json(path)
        assert np.array_equal(ds.y, np.eye(2))

    def test_dispatch_by_suffix(self, tmp_path, delta01_dataset):
        path = tmp_path / "d.json"
        save_json(delta01_dataset, path)
        assert load_dataset(path).n == 4
        with pytest.raises(DimensionError):
            load_dataset(tmp_path / "d.parquet")

    @pytest.mark.parametrize("text", [
        "1.0,0.0,0\n0.0,abc,1\n",  # non-numeric feature
        "1.0,0.0,0\n0.0,1.0,x\n",  # non-numeric label
        "1.0,0.0,0\n0.0,1.0,1.5\n",  # non-integer label
    ], ids=["feature", "label", "fractional-label"])
    def test_csv_non_numeric_cell_names_row(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n" + text)
        with pytest.raises(DimensionError, match=r"row 1 \(line 3\)"):
            load_csv(path, has_header=True)

    def test_from_samples_requires_contiguous_labels(self):
        with pytest.raises(DimensionError):
            from_samples(np.eye(3), [0, 2, 2])


def test_class_means_shape():
    ds = synthesize(5, 2, [3, 7], noise=0.1, seed=1)
    assert class_means(ds).shape == (5, 2)


class TestHoldout:
    def test_split_sizes_and_labels(self):
        from shallowmin.dataset import holdout_split
        ds = synthesize(3, 2, [8, 12], noise=0.1, seed=1)
        train, held_x, held_labels = holdout_split(ds, 0.25, seed=4)
        assert train.class_sizes == (6, 9)
        assert held_x.shape == (3, 5)
        assert held_labels == [0, 0, 1, 1, 1]
        # union of columns equals the original set per class
        for j, sl in enumerate(ds.class_slices()):
            original = {tuple(ds.x0[:, i]) for i in range(sl.start, sl.stop)}
            kept = {tuple(c) for c in train.x0[:, train.class_slices()[j]].T}
            held = {tuple(held_x[:, i]) for i, l in enumerate(held_labels) if l == j}
            assert kept | held == original and not kept & held

    def test_every_class_keeps_a_sample(self):
        from shallowmin.dataset import holdout_split
        ds = synthesize(2, 2, [2, 2], noise=0.1, seed=0)
        train, _, _ = holdout_split(ds, 0.9, seed=0)
        assert min(train.class_sizes) >= 1

    def test_deterministic(self):
        from shallowmin.dataset import holdout_split
        ds = synthesize(3, 2, [6, 6], noise=0.1, seed=2)
        a = holdout_split(ds, 0.3, seed=9)
        b = holdout_split(ds, 0.3, seed=9)
        assert np.array_equal(a[1], b[1]) and a[2] == b[2]

    def test_bad_fraction(self):
        from shallowmin.dataset import holdout_split
        ds = synthesize(2, 2, [3, 3], noise=0.0, seed=0)
        with pytest.raises(ValueError):
            holdout_split(ds, 1.5)
