"""An exact rational reference for the M = Q closed form.

Every float64 is a dyadic rational, so value^2 = tr(Y D2 (I + D2)^-1 Y^T) and
W2 = Y (I + D2)^-1 means^-1 have exact values at the float D2, means and Y
the kernel reads. They are computed here with fractions.Fraction and
Gauss-Jordan elimination, and the float kernel cost.closed_form_min must lie
within a forward-error budget of 64 eps (1 + lambda_max(D2)) relative of them.
The budget bounds error; it is not a library tolerance.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from shallowmin import dataset_stats, min_over_output_layer, synthesize
from shallowmin.constructive import pipeline
from shallowmin.cost import closed_form_min, relative_deviations
from shallowmin.dataset import block_means
from shallowmin.verify import default_truncation_grid

EPS = np.finfo(float).eps


def exact(a) -> list[list[Fraction]]:
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(a)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def solve(a, b):
    """a^-1 b, exactly: Gauss-Jordan elimination on the rows of [a | b]."""
    n = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f != 0:
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def exact_closed_form(y, d2, means) -> tuple[Fraction, list[list[Fraction]]]:
    """(value^2, W2) of the float y, d2 and means, in exact arithmetic."""
    y, d2, means = exact(y), exact(d2), exact(means)
    i_plus_d2 = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(d2)]
    x = solve(i_plus_d2, transpose(y))  # (I + D2)^-1 Y^T
    value_sq = sum(a * b for row_a, row_b in zip(matmul(y, d2), transpose(x))
                   for a, b in zip(row_a, row_b))
    return value_sq, transpose(solve(transpose(means), x))


def _square(m, sizes, noise, seed):
    ds = synthesize(m, m, sizes, noise=noise, seed=seed)
    stats, _ = dataset_stats(ds)
    return ds.y, relative_deviations(ds, stats.means)[1], stats.means


def _grid_point_19():
    """The truncated D2 and means of point 19 of verify truncation's grid
    (seed 1183364968) on M=Q=8, 300 per class, seed 1183364968."""
    ds = synthesize(8, 8, [300] * 8, noise=0.05, seed=1183364968)
    w1, b1 = default_truncation_grid(pipeline(ds), seed=1183364968)[19]
    res = min_over_output_layer(w1, b1, ds)
    return ds.y, res.delta2_rel_tr, block_means(res.tau_x0, ds.class_sizes)


CASES = {
    "sq": lambda: _square(4, [12, 9, 11, 10], 0.05, 1),
    "8x8-noise0.5-seed1": lambda: _square(8, [300] * 8, 0.5, 1),
    "8x8-seed2": lambda: _square(8, [300] * 8, 0.05, 2),
    "3x3-noise1e-10": lambda: _square(3, [8] * 3, 1e-10, 1),
    "grid-point-19": _grid_point_19,
}


@pytest.mark.parametrize("case", CASES)
def test_closed_form_within_its_budget_of_the_exact_value(case):
    y, d2, means = CASES[case]()
    value, _, w2 = closed_form_min(y, d2, means)
    value_sq, w2_exact = exact_closed_form(y, d2, means)
    budget = 64 * EPS * (1.0 + np.linalg.eigvalsh(d2)[-1])
    assert abs(math.sqrt(Fraction(value) ** 2 / value_sq) - 1.0) <= budget
    scale = max(abs(v) for row in w2_exact for v in row)
    w2_err = max(abs(Fraction(float(a)) - b) for ra, rb in zip(w2, w2_exact)
                 for a, b in zip(ra, rb))
    assert w2_err / scale <= budget
