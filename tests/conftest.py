import sys

import numpy as np
import pytest

from shallowmin import ClassifiedDataset, dataset_stats


@pytest.fixture
def delta01_dataset():
    """M=Q=2, sizes (2,2), class means = I, every deviation of norm 0.1.

    Hand-derived facts used across tests: delta = delta_p = 0.1, rho = 1.1,
    Delta2_rel = 0.01 I, exact weighted minimum sqrt(2*0.01/1.01) = 0.1407195,
    bound_l2 = bound_deltap = 0.1.
    """
    x0 = np.array([[1.1, 0.9, 0.0, 0.0],
                   [0.0, 0.0, 1.1, 0.9]])
    return ClassifiedDataset(m=2, q=2, class_sizes=(2, 2), x0=x0, y=np.eye(2))


@pytest.fixture
def zero_noise_dataset():
    """M=Q=2, two identical samples per class, means = I, zero deviations."""
    x0 = np.array([[1.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 1.0]])
    return ClassifiedDataset(m=2, q=2, class_sizes=(2, 2), x0=x0, y=np.eye(2))


@pytest.fixture
def e3_noise_dataset():
    """M=3, Q=2, means e1/e2, deviations only along e3 (summing to zero per
    class), so the mean-span projector annihilates all noise."""
    x0 = np.array([[1.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 1.0],
                   [0.3, -0.3, 0.2, -0.2]])
    return ClassifiedDataset(m=3, q=2, class_sizes=(2, 2), x0=x0, y=np.eye(2))


@pytest.fixture
def stats_and_pack():
    def build(ds):
        return dataset_stats(ds)
    return build


def weighted_lstsq_oracle(hidden, targets_ext, class_sizes, b1):
    """Test-side brute force for the tied output-layer minimum: no-intercept
    weighted least squares of W2 (hidden - b1 1^T) ~ targets, b2 = -W2 b1.
    Kept independent of the library's closed forms."""
    hidden = np.asarray(hidden, dtype=float)
    b1 = np.asarray(b1, dtype=float).reshape(-1)
    design = hidden - b1[:, None]
    sqrt_w = np.sqrt(np.repeat([1.0 / s for s in class_sizes], class_sizes))
    theta_t, *_ = np.linalg.lstsq((design * sqrt_w).T, (targets_ext * sqrt_w).T, rcond=None)
    w2 = theta_t.T
    b2 = -w2 @ b1
    resid = w2 @ hidden + b2[:, None] - targets_ext
    return w2, b2, float(np.sqrt(np.sum(resid * resid * (sqrt_w**2)[None, :])))


@pytest.fixture
def forward_calls(monkeypatch):
    """Records the column count of each network.forward call, whichever
    shallowmin module makes it (each module holds its own reference to the
    function). A blocked pass calls forward once per column chunk, so one
    pass over the data shows as entries summing to N."""
    from shallowmin import network

    calls = []
    original = network.forward

    def counting(p, x):
        x = np.asarray(x)
        calls.append(x.shape[1] if x.ndim == 2 else 1)
        return original(p, x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "shallowmin" and getattr(module, "forward", None) is original:
            monkeypatch.setattr(module, "forward", counting)
    return calls


def _count_calls(monkeypatch, *targets) -> dict:
    """Call counts of the functions of each (module, fnames) target, made from
    whichever shallowmin module holds them (each holds its own reference)."""
    counts = {}
    for module, fnames in targets:
        for fname in fnames:
            counts[fname] = 0
            original = getattr(module, fname)

            def counting(*args, _name=fname, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "shallowmin" and getattr(mod, fname, None) is original:
                    monkeypatch.setattr(mod, fname, counting)
    return counts


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the calls of the M = Q closed form's pieces: relative-deviation
    passes (relative_deviations), Gram solves (_gram, in exact_minimum and
    data_projector) and closed-form values (closed_form_min)."""
    from shallowmin import cost

    return _count_calls(monkeypatch, (cost, ("relative_deviations", "_gram", "closed_form_min")))


@pytest.fixture
def pipeline_calls(monkeypatch):
    """Counts the stages of a pipeline record: statistics passes
    (compute_stats), class means (class_means), closed-form solves
    (exact_minimum) and the two trainers (_fit_general, _fit_exact)."""
    from shallowmin import constructive, cost, dataset

    return _count_calls(monkeypatch, (dataset, ("compute_stats", "class_means")),
                        (cost, ("exact_minimum",)), (constructive, ("_fit_general", "_fit_exact")))


@pytest.fixture
def rotation_calls(monkeypatch):
    """Counts the general fits (constructive._fit_general), each of which reads
    its rotation off the pack, and the eigendecompositions (np.linalg.eigh)
    made while one runs."""
    from shallowmin import constructive

    counts = {"_fit_general": 0, "eigh": 0}
    fit, eigh = constructive._fit_general, np.linalg.eigh
    fitting = []

    def counting_fit(pl):
        counts["_fit_general"] += 1
        fitting.append(pl)
        try:
            return fit(pl)
        finally:
            fitting.pop()

    def counting_eigh(*args, **kwargs):
        counts["eigh"] += bool(fitting)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(constructive, "_fit_general", counting_fit)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return counts


@pytest.fixture
def means_svd_calls(monkeypatch):
    """Counts the SVDs of class means (linalg._full_rank_svd, the one
    SVD projector_pack takes), whichever shallowmin module makes them."""
    from shallowmin import linalg

    calls = []
    original = linalg._full_rank_svd

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "shallowmin" and getattr(module, "_full_rank_svd", None) is original:
            monkeypatch.setattr(module, "_full_rank_svd", counting)
    return calls
