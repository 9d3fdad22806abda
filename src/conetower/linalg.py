"""Exact linear algebra over Q(i).

Rows are scaled to Gaussian-integer pairs ``(a, b)`` meaning ``a + b*i`` and
eliminated fraction-free (Bareiss), so ranks are exact.  Kernels come back in
Z[i] too: back-substitution scales the vector by each pivot instead of
dividing by it.  Used by the section-space computations of
:mod:`conetower.bundles` and the line and real-point checks of
:mod:`conetower.quadric`.
"""

from __future__ import annotations

from .gaussian import _denominator, _gdiv_exact, _gmul, _gsub, _scale_row


def _echelon(work, ncols):
    """Bareiss row echelon form of nonzero Z[i]-pair rows; returns (pivot_cols, rows)."""
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


def row_echelon_gaussian(rows):
    """Fraction-free row echelon form; returns (pivot_cols, echelon_rows).

    ``rows`` is a list of lists of GaussianRational.  The returned rows are
    Z[i]-pair rows spanning the same row space.
    """
    if not rows:
        return [], []
    return _echelon([_scale_row(r, _denominator(r)) for r in rows if any(v for v in r)], len(rows[0]))


def nullspace(rows, ncols):
    """Exact kernel of a matrix of Z[i]-pair rows; returns (rank, basis).

    Each basis vector is a list of ``ncols`` Z[i] pairs.
    """
    pivots, echelon = _echelon([r for r in rows if any(v != (0, 0) for v in r)], ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [(0, 0)] * ncols
        vec[free] = (1, 0)
        # back-substitute pivot variables from the bottom up: the pivot row
        # reads p*x + (rest) = 0, so scale the vector by p and set x = -(rest)
        for pcol, row in zip(reversed(pivots), reversed(echelon)):
            minus_rest = (0, 0)
            for c in range(pcol + 1, ncols):
                if row[c] != (0, 0) and vec[c] != (0, 0):
                    minus_rest = _gsub(minus_rest, _gmul(row[c], vec[c]))
            if minus_rest != (0, 0):
                p = row[pcol]
                vec = [_gmul(p, v) for v in vec]
                vec[pcol] = minus_rest
        basis.append(vec)
    return len(pivots), basis


def matrix_rank(rows):
    pivots, _ = row_echelon_gaussian(rows)
    return len(pivots)
