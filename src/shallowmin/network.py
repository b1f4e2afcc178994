"""The shallow (M, M, Q) ReLU network: parameters, forward map, serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import json_field
from .errors import DimensionError
from .linalg import as_matrix


@dataclass(frozen=True)
class ShallowParams:
    """The four trainable objects. Biases are kept as vectors; the rank-1
    broadcasts b1 u^T and b2 u^T are applied on the fly, never materialized."""

    w1: np.ndarray  # M x M
    b1: np.ndarray  # (M,)
    w2: np.ndarray  # Q x M
    b2: np.ndarray  # (Q,)

    def __post_init__(self):
        w1 = as_matrix(self.w1, "w1")
        w2 = as_matrix(self.w2, "w2")
        b1 = np.asarray(self.b1, dtype=float).reshape(-1)
        b2 = np.asarray(self.b2, dtype=float).reshape(-1)
        m = w1.shape[0]
        q = w2.shape[0]
        if w1.shape != (m, m):
            raise DimensionError(f"w1 must be square, got {w1.shape}")
        if w2.shape != (q, m):
            raise DimensionError(f"w2 shape {w2.shape} incompatible with w1 {w1.shape}")
        if b1.shape != (m,) or b2.shape != (q,):
            raise DimensionError(f"bias shapes {b1.shape}, {b2.shape} != ({m},), ({q},)")
        if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))):
            raise DimensionError("biases contain non-finite entries")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def m(self) -> int:
        return self.w1.shape[0]

    @property
    def q(self) -> int:
        return self.w2.shape[0]


def relu(a: np.ndarray) -> np.ndarray:
    """Component-wise ramp max(0, .); idempotent."""
    return np.maximum(np.asarray(a, dtype=float), 0.0)


def forward(p: ShallowParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the network on M x N inputs; returns (hidden, output).

    hidden = relu(w1 @ x + b1 1^T) is entrywise non-negative;
    output = w2 @ hidden + b2 1^T. The biases and the ramp are applied in
    place on the two fresh products.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != p.m:
        raise DimensionError(f"input rows {x.shape[0]} != M={p.m}")
    x1 = p.w1 @ x
    x1 += p.b1[:, None]
    np.maximum(x1, 0.0, out=x1)
    x2 = p.w2 @ x1
    x2 += p.b2[:, None]
    return x1, x2


def params_to_dict(p: ShallowParams) -> dict:
    return {
        "w1": p.w1.tolist(),
        "b1": p.b1.tolist(),
        "w2": p.w2.tolist(),
        "b2": p.b2.tolist(),
    }


def params_from_dict(d: dict) -> ShallowParams:
    """Parameters from their JSON document; a bad entry raises DimensionError."""
    return ShallowParams(**{k: json_field(d, k, "params document")
                            for k in ("w1", "b1", "w2", "b2")})


def provenance_of(doc: dict, where: str) -> dict | None:
    """The "provenance" object of a decoded JSON document, or None when it is
    absent or null; any other value raises DimensionError naming where."""
    prov = doc.get("provenance")
    if prov is not None and not isinstance(prov, dict):
        raise DimensionError(f"{where} field 'provenance' must be a JSON object or null, "
                             f"got {type(prov).__name__}")
    return prov


def load_params(path) -> tuple[ShallowParams, dict | None]:
    """Parameters and provenance (None if absent or null) from a params file."""
    with open(path) as fh:
        doc = json.load(fh)
    return params_from_dict(doc), provenance_of(doc, "params document")
