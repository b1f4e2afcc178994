import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
from shallowmin.linalg import numerical_rank, sum_squares


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
        mean_ext = np.repeat(stats.means, ds.class_sizes, axis=1)
        assert np.array_equal(ds.x0, mean_ext + deviations(ds, stats.means))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_stats_match_full_array_bitwise(self, order):
        # dev, delta and rho are built class block by class block; they equal
        # the full-array formulas bit for bit in either memory layout. M > 8
        # puts the F-layout column sums on numpy's pairwise path. delta_p and
        # ||Y pen dev||^2 are pinned against one GEMM per class block: a
        # full-array pen @ dev can differ from those in the last bit.
        base = synthesize(20, 3, [4, 9, 6], noise=0.3, seed=8)
        y_other = np.array([[2.0, 0.5, 0.0], [-1.0, 1.0, 0.25], [0.0, 3.0, 1.0]])
        for y in (base.y, y_other):
            ds = ClassifiedDataset(m=20, q=3, class_sizes=base.class_sizes,
                                   x0=np.asarray(base.x0, order=order), y=y)
            stats, pack = dataset_stats(ds)
            dev = ds.x0 - np.repeat(stats.means, ds.class_sizes, axis=1)
            assert np.array_equal(deviations(ds, stats.means), dev)
            assert stats.delta == float(np.max(np.linalg.norm(dev, axis=0)))
            assert stats.rho == float(np.max(np.linalg.norm(ds.x0, axis=0)))
            pen_devs = [pack.pen @ dev[:, sl] for sl in ds.class_slices()]
            assert stats.delta_p == max(float(np.max(np.linalg.norm(b, axis=0)))
                                        for b in pen_devs)
            assert stats.y_pen_dev_sq == sum(sum_squares(y @ b) for b in pen_devs)

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

    @pytest.mark.parametrize("mean_scale", [0.0, -0.0])
    def test_zero_mean_scale_rejected(self, mean_scale):
        # Zero means never reach rank Q, so resampling them would never end.
        with pytest.raises(ValueError, match="mean_scale must be nonzero"):
            synthesize(2, 2, [3, 3], mean_scale=mean_scale)

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
        (3, 2, [4, 4], -2.0, 0.1, 5),  # a negative scale stays valid
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

    @pytest.mark.parametrize("build", [
        lambda: ClassifiedDataset(m=0, q=0, class_sizes=(), x0=np.zeros((0, 0)),
                                  y=np.zeros((0, 0))),
        lambda: ClassifiedDataset(m=3, q=0, class_sizes=(), x0=np.zeros((3, 0)),
                                  y=np.zeros((0, 0))),
        lambda: synthesize(0, 0, []),
        lambda: synthesize(3, 0, []),
    ], ids=["m0", "m3", "synthesize-m0", "synthesize-m3"])
    def test_zero_classes_rejected(self, build):
        with pytest.raises(DimensionError, match=r"need at least one class, got Q=0"):
            build()

    def test_q_le_m_message_kept(self):
        with pytest.raises(DimensionError, match=r"^need Q <= M, got Q=2, M=1$"):
            ClassifiedDataset(m=1, q=2, class_sizes=(1, 1), x0=np.ones((1, 2)), y=np.eye(2))

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

    _TWO_CLASSES = b'[[[1.0, 0.0], [0.9, 0.1]], [[0.0, 1.0], [0.1, 0.9]]]'

    @pytest.mark.parametrize("raw", [
        b'{"m": 2, "q": 2, "classes": [[[1.0, 0.0]], [[0.0, 1.0]]]}',
        b'{"m": 2,\r\n "q": 2,\r "classes": [[[1.0, 0.0]], [[0.0, 1.0]]]}\r\n',
        b'{"m": 2,\r\n "q": 2, "classes": [[[1.0, 0.0]], [[0.0, 1e999]]]}',
        b'\xef\xbb\xbf{"m": 2, "q": 2, "classes": [[[1.0, 0.0]], [[0.0, 1.0]]]}',
        b'{"m": 2,\r\n\r\n "q": 2, "classes": [[[1.0, 0.0]],, [[0.0, 1.0]]]}',
        b'{"m": 2, "q": 2, "classes": [[[1.0, 0.0]], [[0.0, 1.0]]], "y": "\xff"}',
        b'{"classes": ' + _TWO_CLASSES + b', "y": [[2.0, 0.0], [0.0, 1.0]], "q": 2, "m": 2}',
        b'{"m": 2, "q": 2, "classes": [[[5.0]]], "extra": {"a": [1, "b"]}, "classes": '
        + _TWO_CLASSES + b'}',
        b'{"q": 2, "m": 2e0, "classes": ' + _TWO_CLASSES + b'}',  # 16 bytes end at "e"
        b'{"m": 2.0, "q": 2, "classes": ' + _TWO_CLASSES + b'}',
        b'{"m": 2, "q": 2, "classes": [[["1.0", "0"], [0.9, 0.1]], [[0.0, "1e0"], [0.1, 0.9]]]}',
        b'{"m": 2, "q": 2, "classes": [[[NaN, 0.0]], [[0.0, Infinity], [-Infinity, 1.0]]]}',
        b'{"m": 2, "q": 2, "classes": [[], [[0.0, 1.0], [0.1, 0.9]]]}',
        b'{"m": 2, "q": 2, "classes": [[[1.0, 0.0], [0.9]], [[0.0, 1.0], [0.1, 0.9]]]}',
        b'{"m": 2, "q": 2, "classes": {"a": [[1.0, 0.0]], "b": [[0.0, 1.0]]}}',
        b'[{"m": 2, "q": 2, "classes": ' + _TWO_CLASSES + b'}]',
        b'{"m": 2, "q": 2, "classes": ' + _TWO_CLASSES + b'} {}',
        b'{"m": 2, "q": 2, "classes": ' + _TWO_CLASSES[:-9],
        b'{"m": 2, "q": 2, "classes": [[[1.0, 0.0], [0.9, 0.1]], [[0.0, 1.0], [0.1, \xff0.9]]]}',
    ], ids=["lf", "crlf", "crlf-inf", "bom", "crlf-syntax-error", "invalid-utf8", "classes-first",
            "duplicate-classes", "number-across-chunks", "float-m", "string-samples",
            "nan-infinity", "empty-class", "ragged-class", "classes-not-a-list",
            "top-level-list", "trailing-data", "truncated", "invalid-utf8-late"])
    def test_json_reads_like_text_mode_and_hashes_the_bytes(self, tmp_path, monkeypatch, raw):
        # the reader parses the bytes it hashes, decoded as open(path) decodes
        # them: same datasets (values, layout, sizes), same errors and messages,
        # also when each read of 16 bytes splits the classes
        monkeypatch.setattr(dataset, "_HASH_CHUNK_BYTES", 16)
        path = tmp_path / "data.json"
        path.write_bytes(raw)

        def outcome(read):
            try:
                ds = read()
            except Exception as exc:  # compared by type and message
                return type(exc), str(exc)
            return ds.x0.tolist(), ds.x0.strides, ds.class_sizes, ds.y.tolist()

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


# Quotes, line ends of every kind, blanks, "_", a non-ASCII digit, the
# letters of nan/inf, and characters that numpy's reader drops from a cell's
# end and csv's keeps: \x0b \x0c \x1c \x1f \x85 \u2028. float() accepts some
# of them there and rejects others (\x1c, \x1f).
_CSV_ALPHABET = '0123456789+-.eE, \t\r\n"_\u0661nNaAiIfFtTyY\x0b\x0c\x1c\x1f\x85\u2028'
_csv_cells = st.one_of(
    st.sampled_from(["1", "-0.5", "2e3", "1E-3", ".5", "+7.", "nan", "-inf", "Infinity",
                     "0", "", " 4 ", '"3"', "1_0", "\u0661"]),
    st.text(_CSV_ALPHABET, max_size=4))
_csv_lines = st.tuples(st.lists(_csv_cells, max_size=4).map(",".join),
                       st.sampled_from(["\n", "\r\n", "\r", "", " ", "\x0b", "\x0c",
                                        "\x1c", "\x85", "\u2028"]))
_csv_texts = st.lists(_csv_lines, max_size=6).map(lambda ls: "".join(c + e for c, e in ls))


class TestCsvRows:
    @staticmethod
    def _outcome(read):
        """Shape and bits of read()'s array, or its DimensionError message."""
        try:
            rows, labels = read()
        except DimensionError as exc:
            return str(exc)
        assert rows.dtype == np.float64 and labels == []
        return rows.shape, rows.tobytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_csv_texts, header=st.booleans(), m=st.sampled_from([1, 2, 3]))
    @example(text="1\x0c2\n", header=False, m=1)  # one cell to csv; numpy's reader raises
    @example(text="1\x1f\n", header=False, m=1)  # 1.0 to numpy's reader, float() rejects it
    @example(text="1,2\x1f\n3,4\n", header=False, m=2)
    @example(text="h\n1,2\u2028\n3,4\n", header=True, m=2)
    @example(text='"1",2\r3,4\r', header=False, m=2)
    @example(text="1,2\n3\n", header=False, m=2)  # ragged
    @example(text=" \n\r\n", header=False, m=1)
    @example(text='"\n1\n', header=True, m=1)  # a header record over two lines
    def test_same_result_as_the_row_walk(self, tmp_path, text, header, m):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())

        def name(k, line):
            return f"row {k} (line {line})"

        def walk():
            with open(path, newline="") as fh:
                return dataset._csv_walk(fh, header, name, m, False)

        assert self._outcome(lambda: dataset.csv_rows(path, header, name, m)) \
            == self._outcome(walk)

    @pytest.mark.parametrize("text", [
        "1,2\n\x853,4\n",  # NEL
        "1,2\n\u06613,4\n",  # a non-ASCII digit
        "1,2\n3,4\x0b\n",  # an ASCII vertical tab
    ], ids=["nel", "arabic-digit", "vtab"])
    def test_text_outside_the_class_takes_the_walk(self, tmp_path, monkeypatch, text):
        path = tmp_path / "in.csv"
        path.write_bytes(("h\n" + text).encode())
        calls = []
        walk = dataset._csv_walk
        monkeypatch.setattr(dataset, "_csv_walk", lambda *a: calls.append(1) or walk(*a))
        got = self._outcome(lambda: dataset.csv_rows(path, True, lambda k, line: "", 2))
        assert calls == [1]
        with open(path, newline="") as fh:
            assert got == self._outcome(lambda: walk(fh, True, lambda k, line: "", 2, False))

    def test_plain_text_skips_the_walk(self, tmp_path, monkeypatch):
        path = tmp_path / "in.csv"
        path.write_text("h\n1,2\r\n-3e1,nan\n")
        monkeypatch.setattr(dataset, "_csv_walk", None)
        rows, _ = dataset.csv_rows(path, True, lambda k, line: "", 2)
        assert np.array_equal(rows, [[1.0, 2.0], [-30.0, np.nan]], equal_nan=True)

    @pytest.mark.parametrize("text, message", [
        ('1,"2\n"\n4,x\n', "input row 1 (line 3): could not convert string to float: 'x'"),
        ('1,"2\n"\n4\n', "input row 1 (line 3) has 1 values, expected M=2"),
        ("1,2\n4,x\n", "input row 1 (line 2): could not convert string to float: 'x'"),
    ], ids=["value", "width", "single-line"])
    def test_errors_name_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(DimensionError) as exc:
            dataset.csv_rows(path, False, lambda k, line: f"input row {k} (line {line})", 2)
        assert str(exc.value) == message

    def test_load_csv_names_the_file_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('1.0,"0.5\n",0\n0.0,abc,1\n')
        with pytest.raises(DimensionError,
                           match=r"^dataset row 1 \(line 3\) of .*data\.csv: could not convert"):
            load_csv(path)

    @pytest.mark.parametrize("text, header", [
        ("", False), ("\n\r\n\r", False), ("a,b\n", True), ("a,b", True), ("x\r\n\n", True),
    ])
    @pytest.mark.parametrize("m", [1, 3])
    def test_no_data_rows_give_an_empty_block_without_warnings(self, tmp_path, recwarn,
                                                               text, header, m):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        rows, _ = dataset.csv_rows(path, header, lambda k, line: "", m)
        assert rows.shape == (0, m)
        assert len(recwarn) == 0


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
