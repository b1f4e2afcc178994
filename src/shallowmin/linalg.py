"""Dense linear-algebra kernels: the projector pack of the class means,
diagonalizing rotations and numerical rank.

projector_pack is the one kernel for the geometry of the means: from one thin
SVD it builds their pseudoinverse, the orthoprojector onto their span and its
complement. Every caller reads these from the pack dataset_stats returns; none
takes a second SVD. The rotation that diagonalizes that projector is built by
its one reader, the general trainer, with diagonalizing_rotation.

All functions are pure and operate on float64 ndarrays; matrices are dense and
sized for desk scale (M, Q <~ 100). The pseudoinverse and projectors come from
the SVD for conditioning, never from forming (A^T A)^-1 explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotAProjector, RankDeficient

# Relative singular-value cutoff shared by every rank decision in the library.
SV_TOLERANCE = 1e-10

# Tolerance for validating that an input matrix is an orthogonal projector.
PROJECTOR_TOLERANCE = 1e-8

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
    """Thin SVD (u, s, vt) of an M x Q matrix (M >= Q), checked for full column rank."""
    a = as_matrix(a)
    m, q = a.shape
    if m < q:
        raise DimensionError(f"need rows >= cols for full column rank, got {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= SV_TOLERANCE * s[0]:
        raise RankDeficient(
            f"column rank < {q}: smallest/largest singular value "
            f"{s[-1]:.3e}/{s[0]:.3e} under tolerance {SV_TOLERANCE:g}"
        )
    return u, s, vt


def diagonalizing_rotation(p, rank: int) -> np.ndarray:
    """Orthogonal R whose rows diagonalize a symmetric projector.

    R p R^T is diagonal with `rank` ones followed by zeros. The rotation is not
    unique; this implementation fixes one deterministically: rows are the
    eigenvectors of p sorted by descending eigenvalue, each signed so that its
    largest-magnitude entry is positive.
    """
    p = as_matrix(p, "projector")
    m = p.shape[0]
    if p.shape[1] != m:
        raise DimensionError(f"projector must be square, got {p.shape}")
    if not 0 < rank <= m:
        raise DimensionError(f"rank must be in (0, {m}], got {rank}")
    sym_err = np.max(np.abs(p - p.T))
    idem_err = np.max(np.abs(p @ p - p))
    if sym_err > PROJECTOR_TOLERANCE or idem_err > PROJECTOR_TOLERANCE:
        raise NotAProjector(
            f"symmetry error {sym_err:.3e}, idempotence error {idem_err:.3e} "
            f"exceed tolerance {PROJECTOR_TOLERANCE:g}"
        )
    w, v = np.linalg.eigh(p)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    if np.max(np.abs(w[:rank] - 1.0)) > PROJECTOR_TOLERANCE or (
        rank < m and np.max(np.abs(w[rank:])) > PROJECTOR_TOLERANCE
    ):
        raise NotAProjector(
            f"eigenvalues {w} are not {rank} ones followed by zeros"
        )
    for j in range(m):
        col = v[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            v[:, j] = -col
    return v.T.copy()


@dataclass(frozen=True)
class ProjectorPack:
    """Pseudoinverse / projector bundle for one M x Q full-rank matrix.

    pen:    Q x M left pseudoinverse
    p:      M x M orthoprojector onto the column span
    p_perp: M x M complement projector
    """

    pen: np.ndarray
    p: np.ndarray
    p_perp: np.ndarray


def projector_pack(a) -> ProjectorPack:
    """Build the ProjectorPack of a full-column-rank M x Q matrix from one thin SVD."""
    u, s, vt = _full_rank_svd(a)
    p = u @ u.T
    p = 0.5 * (p + p.T)  # u u^T is symmetric only up to round-off
    return ProjectorPack(pen=(vt.T / s) @ u.T, p=p, p_perp=np.eye(u.shape[0]) - p)
