import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowmin import ShallowParams, forward, relu
from shallowmin.errors import DimensionError
from shallowmin.network import load_params, params_from_dict, params_to_dict


def test_relu_definition():
    assert np.array_equal(relu(np.array([[-1.0, 2.0], [0.0, -3.0]])),
                          np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_relu_identity_on_nonnegative():
    a = np.abs(np.random.default_rng(0).standard_normal((4, 5)))
    assert np.array_equal(relu(a), a)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relu_idempotent(seed):
    a = np.random.default_rng(seed).standard_normal((3, 4))
    assert np.array_equal(relu(relu(a)), relu(a))


class TestForward:
    def test_large_bias_acts_as_identity(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(3, 6))
        b1 = np.full(3, 10.0)  # >= 2 rho
        p = ShallowParams(w1=np.eye(3), b1=b1, w2=np.zeros((2, 3)), b2=np.zeros(2))
        x1, _ = forward(p, x)
        assert np.array_equal(x1, x + b1[:, None])

    def test_nonpositive_inputs_truncate_to_zero(self):
        x = -np.abs(np.random.default_rng(2).standard_normal((3, 4)))
        p = ShallowParams(w1=np.eye(3), b1=np.zeros(3), w2=np.zeros((2, 3)), b2=np.zeros(2))
        x1, _ = forward(p, x)
        assert np.array_equal(x1, np.zeros_like(x))

    def test_zero_noise_construction_hits_targets(self, zero_noise_dataset):
        # hand-built M=Q=2 construction: means = I so P = I, R = I,
        # W2 = Y Pen[I] P R^T = I, b2 = -W2 b1
        beta = 3.0
        p = ShallowParams(w1=np.eye(2), b1=np.full(2, beta),
                          w2=np.eye(2), b2=np.full(2, -beta))
        _, x2 = forward(p, zero_noise_dataset.x0)
        from shallowmin import y_ext
        assert np.allclose(x2, y_ext(zero_noise_dataset), atol=1e-12)

    def test_hidden_nonnegative(self):
        rng = np.random.default_rng(3)
        p = ShallowParams(w1=rng.standard_normal((4, 4)), b1=rng.standard_normal(4),
                          w2=rng.standard_normal((2, 4)), b2=rng.standard_normal(2))
        x1, _ = forward(p, rng.standard_normal((4, 20)))
        assert x1.min() >= 0.0

    def test_dimension_mismatch(self):
        p = ShallowParams(w1=np.eye(3), b1=np.zeros(3), w2=np.zeros((2, 3)), b2=np.zeros(2))
        with pytest.raises(DimensionError):
            forward(p, np.zeros((4, 1)))

    def test_column_blocks_bit_identical(self):
        # no reductions happen across columns, so block evaluation must agree
        # bitwise with the full pass
        rng = np.random.default_rng(6)
        p = ShallowParams(w1=rng.standard_normal((4, 4)), b1=rng.standard_normal(4),
                          w2=rng.standard_normal((3, 4)), b2=rng.standard_normal(3))
        x = rng.standard_normal((4, 12))
        _, full = forward(p, x)
        pieces = [forward(p, x[:, sl])[1] for sl in (slice(0, 5), slice(5, 9), slice(9, 12))]
        assert np.array_equal(full, np.concatenate(pieces, axis=1))

    def test_positive_homogeneity_first_layer(self):
        rng = np.random.default_rng(4)
        w1 = rng.standard_normal((3, 3))
        b1 = rng.uniform(2.0, 3.0, size=3)
        x = rng.uniform(-0.1, 0.1, size=(3, 5))  # pre-activation strictly positive
        lam = 2.0
        p1 = ShallowParams(w1=w1, b1=b1, w2=np.zeros((2, 3)), b2=np.zeros(2))
        p2 = ShallowParams(w1=lam * w1, b1=lam * b1, w2=np.zeros((2, 3)), b2=np.zeros(2))
        x1a, _ = forward(p1, x)
        x1b, _ = forward(p2, x)
        assert np.allclose(x1b, lam * x1a, rtol=1e-14)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relu_splits_along_diagonal_projector_pair(seed):
    # relu(v) = relu(Pr v) + relu(Pr_perp v) for complementary diagonal projectors
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    mask = rng.integers(0, 2, size=m).astype(float)
    pr = np.diag(mask)
    pr_perp = np.eye(m) - pr
    v = rng.standard_normal((m, 3))
    assert np.array_equal(relu(v), relu(pr @ v) + relu(pr_perp @ v))


class TestSerialization:
    def test_dict_roundtrip_exact(self):
        rng = np.random.default_rng(5)
        p = ShallowParams(w1=rng.standard_normal((3, 3)), b1=rng.standard_normal(3),
                          w2=rng.standard_normal((2, 3)), b2=rng.standard_normal(2))
        q = params_from_dict(params_to_dict(p))
        assert np.array_equal(p.w1, q.w1) and np.array_equal(p.b1, q.b1)
        assert np.array_equal(p.w2, q.w2) and np.array_equal(p.b2, q.b2)

    def test_file_roundtrip_with_provenance(self, tmp_path):
        p = ShallowParams(w1=np.eye(2), b1=np.array([0.1, 0.2]),
                          w2=np.eye(2), b2=np.zeros(2))
        path = tmp_path / "params.json"
        doc = {**params_to_dict(p), "provenance": {"variant": "exact", "beta1": 2.5}}
        path.write_text(json.dumps(doc) + "\n")
        q, prov = load_params(path)
        assert np.array_equal(p.b1, q.b1)
        assert prov["variant"] == "exact"
        doc = json.loads(path.read_text())
        assert set(doc) == {"w1", "b1", "w2", "b2", "provenance"}

    @pytest.mark.parametrize("prov", [None, "absent"])
    def test_missing_provenance_is_none(self, tmp_path, prov):
        doc = params_to_dict(ShallowParams(w1=np.eye(2), b1=np.zeros(2),
                                           w2=np.eye(2), b2=np.zeros(2)))
        if prov is None:
            doc["provenance"] = None
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        assert load_params(path)[1] is None

    @pytest.mark.parametrize("prov", [5, "x", [1, 2], True])
    def test_non_object_provenance_rejected(self, tmp_path, prov):
        doc = params_to_dict(ShallowParams(w1=np.eye(2), b1=np.zeros(2),
                                           w2=np.eye(2), b2=np.zeros(2)))
        path = tmp_path / "params.json"
        path.write_text(json.dumps({**doc, "provenance": prov}))
        with pytest.raises(DimensionError, match="'provenance' must be a JSON object or null"):
            load_params(path)

    def test_bad_shapes_rejected(self):
        with pytest.raises(DimensionError):
            ShallowParams(w1=np.eye(3), b1=np.zeros(2),
                          w2=np.zeros((2, 3)), b2=np.zeros(2))
        with pytest.raises(DimensionError):
            ShallowParams(w1=np.eye(3), b1=np.zeros(3),
                          w2=np.zeros((2, 4)), b2=np.zeros(2))
