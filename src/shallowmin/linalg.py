"""Dense linear-algebra kernels: the projector pack of the class means and
numerical rank.

projector_pack is the one kernel for the geometry of the means: from one SVD
it builds their pseudoinverse, the orthoprojector onto their span, its
complement and the rotation that diagonalizes it. Every caller reads these
from the pack dataset_stats returns; none takes a second decomposition.

All functions are pure and operate on float64 ndarrays; matrices are dense and
sized for desk scale (M, Q <~ 100). The pseudoinverse and projectors come from
the SVD for conditioning, never from forming (A^T A)^-1 explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficient

# Relative singular-value cutoff shared by every rank decision in the library.
SV_TOLERANCE = 1e-10

_DOT_LEN = 10_000  # most entries per BLAS dot: OpenBLAS threads, so rounds, longer ones


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising DimensionError otherwise."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    # NaN propagates through min and max, and +-inf is one of them: no M x N bool temporary.
    if not (a.size == 0 or (np.isfinite(a.min()) and np.isfinite(a.max()))):
        raise DimensionError(f"{name} contains non-finite entries")
    return a


def op_norm(a) -> float:
    """Largest singular value."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def sum_squares(a: np.ndarray) -> float:
    """Sum of the squared entries of a 2-D array, forming no temporary: BLAS dots
    of _DOT_LEN at most, summed in order, if a is C-contiguous, else an einsum."""
    if a.flags.c_contiguous:
        flat = a.reshape(-1)
        return float(sum(flat[i:i + _DOT_LEN] @ flat[i:i + _DOT_LEN]
                         for i in range(0, flat.size, _DOT_LEN)))
    return float(np.einsum("ij,ij->", a, a))


def numerical_rank(a) -> int:
    """Count of singular values above SV_TOLERANCE x the largest; 0 for the zero matrix."""
    return rank_with_margin(a)[0]


def rank_with_margin(a) -> tuple[int, bool]:
    """Numerical rank plus a flag set when any singular value sits within a
    factor of 2 of the cutoff, i.e. when the rank decision is marginal."""
    a = as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, False
    thresh = SV_TOLERANCE * s[0]
    rank = int(np.count_nonzero(s > thresh))
    marginal = bool(np.any((s > thresh / 2.0) & (s < thresh * 2.0)))
    return rank, marginal


def _full_rank_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD (u, s, vt) of an M x Q matrix (M >= Q) with the full M x M u,
    checked for full column rank."""
    a = as_matrix(a)
    m, q = a.shape
    if m < q:
        raise DimensionError(f"need rows >= cols for full column rank, got {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    if s[0] == 0.0 or s[-1] <= SV_TOLERANCE * s[0]:
        raise RankDeficient(
            f"column rank < {q}: smallest/largest singular value "
            f"{s[-1]:.3e}/{s[0]:.3e} under tolerance {SV_TOLERANCE:g}"
        )
    return u, s, vt


@dataclass(frozen=True)
class ProjectorPack:
    """Pseudoinverse / projector bundle for one M x Q full-rank matrix.

    pen:    Q x M left pseudoinverse
    p:      M x M orthoprojector onto the column span
    p_perp: M x M complement projector
    r:      M x M rotation with r p r^T = diag(I_Q, 0): its first Q rows span
            the columns, the rest their complement
    """

    pen: np.ndarray
    p: np.ndarray
    p_perp: np.ndarray
    r: np.ndarray


def projector_pack(a) -> ProjectorPack:
    """Build the ProjectorPack of a full-column-rank M x Q matrix from one SVD.

    r is u^T, each row signed so that its largest-magnitude entry is positive.
    It comes from a, not from an eigenbasis of p: p's eigenvalue 1 is Q-fold
    degenerate, so the last bits of p would pick that basis. p is a gemm of
    two buffers, as numpy sends u @ u.T to syrk, which OpenBLAS rounds by the
    thread count.
    """
    u, s, vt = _full_rank_svd(a)
    m, q = u.shape[0], s.size
    ut = np.ascontiguousarray(u[:, :q].T)
    p = u[:, :q] @ ut
    p = 0.5 * (p + p.T)  # symmetric only up to round-off
    r = u.T.copy()
    r[r[np.arange(m), np.argmax(np.abs(r), axis=1)] < 0] *= -1.0
    return ProjectorPack(pen=(vt.T / s) @ ut, p=p, p_perp=np.eye(m) - p, r=r)
