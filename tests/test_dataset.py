import hashlib
import io
import json

import numpy as np
import pytest

from shallowmin import ClassifiedDataset, class_means, dataset_stats, synthesize, y_ext
from shallowmin import dataset
from shallowmin.dataset import (
    deviations,
    file_sha256,
    from_json_dict,
    from_samples,
    load_csv,
    load_dataset,
    load_json,
    reads_as_json,
    save_json,
)
from shallowmin.errors import DegenerateMeans, DimensionError, RankDeficient
from shallowmin.linalg import numerical_rank


class TestStats:
    def test_zero_noise(self, zero_noise_dataset):
        stats, _ = dataset_stats(zero_noise_dataset)
        assert np.allclose(stats.means, np.eye(2))
        assert np.all(deviations(zero_noise_dataset, stats.means) == 0.0)
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
        assert np.all(deviations(ds, stats.means) == 0.0)
        assert stats.delta_p == 0.0

    def test_per_class_deviation_sums_vanish(self):
        ds = synthesize(4, 3, [5, 9, 3], noise=0.2, seed=11)
        stats, _ = dataset_stats(ds)
        dev = deviations(ds, stats.means)
        start = 0
        for nj in ds.class_sizes:
            block_sum = dev[:, start:start + nj].sum(axis=1)
            assert np.linalg.norm(block_sum) <= 1e-9 * nj * stats.rho
            start += nj

    def test_reconstruction_bitwise(self):
        ds = synthesize(3, 2, [4, 4], noise=0.3, seed=5)
        stats, _ = dataset_stats(ds)
        assert np.array_equal(ds.x0, stats.mean_ext + deviations(ds, stats.means))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_stats_match_full_array_bitwise(self, order):
        # dev, delta and rho are built class block by class block; they equal
        # the full-array formulas bit for bit in either memory layout. M > 8
        # puts the F-layout column sums on numpy's pairwise path.
        base = synthesize(20, 3, [4, 9, 6], noise=0.3, seed=8)
        ds = ClassifiedDataset(m=20, q=3, class_sizes=base.class_sizes,
                               x0=np.asarray(base.x0, order=order), y=base.y)
        stats, _ = dataset_stats(ds)
        dev = ds.x0 - np.repeat(stats.means, ds.class_sizes, axis=1)
        assert np.array_equal(deviations(ds, stats.means), dev)
        assert stats.delta == float(np.max(np.linalg.norm(dev, axis=0)))
        assert stats.rho == float(np.max(np.linalg.norm(ds.x0, axis=0)))

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
        assert np.allclose(deviations(a, sa.means), 2.0 * deviations(b, sb.means),
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"noise": np.nan}, {"noise": np.inf}, {"noise": -np.inf},
        {"mean_scale": np.nan}, {"mean_scale": np.inf}, {"mean_scale": -np.inf},
    ])
    def test_non_finite_amplitudes_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            synthesize(3, 3, [4, 4, 4], **kwargs)

    def test_q_greater_than_m_rejected(self):
        with pytest.raises(DimensionError):
            synthesize(2, 3, [1, 1, 1])

    @pytest.mark.parametrize("m, q, sizes, mean_scale, noise, seed", [
        (3, 2, [4, 4], 1.0, 0.05, 0),
        (5, 3, [7, 1, 9], 1.0, 0.0, 2),
        (8, 8, [30] * 8, 1.0, 0.05, 1),
        (4, 2, [10, 10], 1e8, 0.3, 3),
        (4, 2, [10, 10], 1e-9, 0.3, 4),
        (6, 3, [3, 5, 2], 1.0, 2.5, 7),
    ])
    def test_equals_repeated_means_plus_scaled_noise_bitwise(self, m, q, sizes, mean_scale,
                                                             noise, seed):
        # the reference draws from the same generator and forms the sum of
        # full M x N arrays; the in-place build must give the same bits
        rng = np.random.default_rng(seed)
        while True:
            means = mean_scale * rng.standard_normal((m, q))
            if numerical_rank(means) == q:
                break
        unit = rng.uniform(-1.0, 1.0, size=(m, sum(sizes)))
        expected = np.repeat(means, sizes, axis=1) + noise * unit
        ds = synthesize(m, q, sizes, mean_scale=mean_scale, noise=noise, seed=seed)
        assert np.array_equal(ds.x0, expected)
        assert not ds.x0.flags.writeable


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

    @pytest.mark.parametrize("sizes", [[3, 2], [2500, 1, 4200]])
    def test_json_text_equals_one_dumps_of_the_document(self, tmp_path, sizes):
        # the writer streams column chunks; the text is still that of one
        # json.dumps of the whole document, at one chunk and at several
        ds = synthesize(3, len(sizes), sizes, noise=0.1, seed=6)
        doc = {"m": ds.m, "q": ds.q,
               "classes": [ds.x0[:, sl].T.tolist() for sl in ds.class_slices()],
               "y": ds.y.tolist()}
        path = tmp_path / "data.json"
        save_json(ds, path)
        assert path.read_text() == json.dumps(doc) + "\n"
        stream = io.StringIO()
        save_json(ds, stream)
        assert stream.getvalue() == path.read_text()

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

    @pytest.mark.parametrize("raw", [
        b'{"m": 2, "q": 2, "classes": [[[1.0, 0.0]], [[0.0, 1.0]]]}',
        b'{"m": 2,\r\n "q": 2,\r "classes": [[[1.0, 0.0]], [[0.0, 1.0]]]}\r\n',
        b'{"m": 2,\r\n "q": 2, "classes": [[[1.0, 0.0]], [[0.0, 1e999]]]}',
        b'\xef\xbb\xbf{"m": 2, "q": 2, "classes": [[[1.0, 0.0]], [[0.0, 1.0]]]}',
        b'{"m": 2,\r\n\r\n "q": 2, "classes": [[[1.0, 0.0]],, [[0.0, 1.0]]]}',
        b'{"m": 2, "q": 2, "classes": [[[1.0, 0.0]], [[0.0, 1.0]]], "y": "\xff"}',
    ], ids=["lf", "crlf", "crlf-inf", "bom", "crlf-syntax-error", "invalid-utf8"])
    def test_json_reads_like_text_mode_and_hashes_the_bytes(self, tmp_path, raw):
        # the reader parses the bytes it hashes, decoded as open(path) decodes
        # them: same datasets, same errors and messages
        path = tmp_path / "data.json"
        path.write_bytes(raw)

        def outcome(read):
            try:
                ds = read()
            except Exception as exc:  # compared by type and message
                return type(exc), str(exc)
            return ds.x0.tolist(), ds.y.tolist()

        sha256 = hashlib.sha256()
        got = outcome(lambda: load_json(path, sha256))
        with open(path) as fh:
            assert got == outcome(lambda: from_json_dict(json.load(fh)))
        assert sha256.hexdigest() == hashlib.sha256(raw).hexdigest()

    @pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_file_sha256_over_chunks(self, tmp_path, monkeypatch, size):
        monkeypatch.setattr(dataset, "_HASH_CHUNK_BYTES", 4096)
        path = tmp_path / "blob.json"
        raw = np.random.default_rng(size).bytes(size)
        path.write_bytes(raw)
        assert file_sha256(path) == hashlib.sha256(raw).hexdigest()

    def test_reads_as_json_follows_the_dispatch(self, tmp_path):
        assert reads_as_json(tmp_path / "d.json") and reads_as_json(tmp_path / "d.JSON")
        assert not reads_as_json(tmp_path / "d.csv")
        assert not reads_as_json(tmp_path / "d.json.csv")
        assert not reads_as_json(tmp_path / "json")

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
        with pytest.raises(DimensionError, match="needs at least one sample"):
            from_samples(np.eye(3), [0, 1, 10**12])


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
