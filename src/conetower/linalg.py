"""Exact linear algebra over Q(i).

Rows are scaled to Gaussian-integer pairs ``(a, b)`` meaning ``a + b*i`` and
eliminated fraction-free, so ranks and kernels are exact.  Used by the
section-space computations of :mod:`conetower.bundles` and the real-point
solver of :mod:`conetower.quadric`.
"""

from __future__ import annotations

import math

from .gaussian import ZERO, GaussianRational, _gdiv_exact, _gmul, _gsub


def _scale_row(row):
    """Clear denominators of one row of GaussianRationals to Z[i] pairs."""
    lcm = math.lcm(*(d for v in row for d in (v.re.denominator, v.im.denominator)))
    return [(int(v.re * lcm), int(v.im * lcm)) for v in row]


def row_echelon_gaussian(rows):
    """Fraction-free row echelon form; returns (pivot_cols, echelon_rows).

    ``rows`` is a list of lists of GaussianRational.  The returned rows are
    Z[i]-pair rows spanning the same row space.
    """
    if not rows:
        return [], []
    work = [_scale_row(r) for r in rows if any(v for v in r)]
    ncols = len(rows[0])
    pivots = []
    echelon = []
    prev = (1, 0)
    col = 0
    while work and col < ncols:
        pivot_idx = next((i for i, r in enumerate(work) if r[col] != (0, 0)), None)
        if pivot_idx is None:
            col += 1
            continue
        pivot_row = work.pop(pivot_idx)
        pivots.append(col)
        echelon.append(pivot_row)
        p = pivot_row[col]
        new_work = []
        for r in work:
            # Bareiss one-step: every remaining row is renormalized, including
            # rows whose pivot-column entry is zero; skipping them breaks the
            # exact-division invariant of later steps.
            f = r[col]
            reduced = [(0, 0)] * ncols
            for j in range(col + 1, ncols):
                num = _gsub(_gmul(p, r[j]), _gmul(f, pivot_row[j]))
                reduced[j] = _gdiv_exact(num, prev)
            if any(v != (0, 0) for v in reduced):
                new_work.append(reduced)
        work = new_work
        prev = p
        col += 1
    return pivots, echelon


def nullspace(rows, ncols):
    """Exact kernel of the matrix; returns (rank, basis of GaussianRational rows)."""
    pivots, echelon = row_echelon_gaussian(rows)
    rank = len(pivots)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [ZERO] * ncols
        vec[free] = GaussianRational(1)
        # back-substitute pivot variables from the bottom up
        for row_idx in range(rank - 1, -1, -1):
            pcol = pivots[row_idx]
            row = echelon[row_idx]
            acc = ZERO
            for c in range(pcol + 1, ncols):
                if row[c] != (0, 0) and vec[c]:
                    acc = acc + GaussianRational(row[c][0], row[c][1]) * vec[c]
            pivot_val = GaussianRational(row[pcol][0], row[pcol][1])
            vec[pcol] = -acc / pivot_val
        basis.append(vec)
    return rank, basis


def matrix_rank(rows):
    pivots, _ = row_echelon_gaussian(rows)
    return len(pivots)

