"""Exact linear algebra over Q(i).

Every entry point takes rows of Gaussian-integer pairs ``(a, b)`` meaning
``a + b*i``; a caller clears the denominators of a row over Q(i) once, which
changes neither its rank nor its kernel.  Rows are eliminated fraction-free
(Bareiss), so ranks are exact.  Kernels come back in Z[i] too:
back-substitution scales the vector by each pivot instead of dividing by it.
Used by the section-space computations of :mod:`conetower.bundles` and the
line and real-point checks of :mod:`conetower.quadric`.
"""

from __future__ import annotations

from .errors import InternalInconsistencyError


def _echelon(rows, ncols):
    """Bareiss row echelon form of Z[i]-pair rows; returns (pivot_cols, rows).

    Step ``col`` replaces every remaining row r by
    ``(p*r - r[col]*pivot_row) / prev`` from column col + 1 on, with p the
    pivot and prev the previous step's pivot (1 at the first step).  By
    Sylvester's identity that division is exact in Z[i]; it is checked
    anyway.  Every remaining row is renormalized, including rows whose
    pivot-column entry is zero: skipping them breaks the exact-division
    invariant of later steps.  Rows that become zero are dropped.
    """
    work = [r for r in rows if any(v != (0, 0) for v in r)]
    pivots = []
    echelon = []
    qr, qi, norm = 1, 0, 1
    col = 0
    while work and col < ncols:
        pivot_idx = next((i for i, r in enumerate(work) if r[col] != (0, 0)), None)
        if pivot_idx is None:
            col += 1
            continue
        pivot_row = work.pop(pivot_idx)
        pivots.append(col)
        echelon.append(pivot_row)
        pr, pi = pivot_row[col]
        rest = range(col + 1, ncols)
        new_work = []
        for r in work:
            fr, fi = r[col]
            reduced = [(0, 0)] * ncols
            kept = False
            for j in rest:
                ar, ai = r[j]
                br, bi = pivot_row[j]
                # p*a - f*b, then the exact quotient by prev via its conjugate
                re = pr * ar - pi * ai - fr * br + fi * bi
                im = pr * ai + pi * ar - fr * bi - fi * br
                if re or im:
                    x, r1 = divmod(re * qr + im * qi, norm)
                    y, r2 = divmod(im * qr - re * qi, norm)
                    if r1 or r2:
                        raise InternalInconsistencyError("inexact division in fraction-free elimination")
                    reduced[j] = (x, y)
                    kept = True
            if kept:
                new_work.append(reduced)
        work = new_work
        qr, qi, norm = pr, pi, pr * pr + pi * pi
        col += 1
    return pivots, echelon


def nullspace(rows, ncols):
    """Exact kernel of a matrix of Z[i]-pair rows; returns (rank, basis).

    Each basis vector is a list of ``ncols`` Z[i] pairs.
    """
    pivots, echelon = _echelon(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [(0, 0)] * ncols
        vec[free] = (1, 0)
        # back-substitute pivot variables from the bottom up: the pivot row
        # reads p*x + (rest) = 0, so scale the vector by p and set x = -(rest);
        # the Z[i] products are inlined, as in _echelon
        for pcol, row in zip(reversed(pivots), reversed(echelon)):
            mr = mi = 0
            for c in range(pcol + 1, ncols):
                ar, ai = row[c]
                xr, xi = vec[c]
                if (ar or ai) and (xr or xi):
                    mr -= ar * xr - ai * xi
                    mi -= ar * xi + ai * xr
            if mr or mi:
                pr, pi = row[pcol]
                vec = [(pr * xr - pi * xi, pr * xi + pi * xr) for xr, xi in vec]
                vec[pcol] = (mr, mi)
        basis.append(vec)
    return len(pivots), basis


def matrix_rank(rows, ncols):
    """Exact rank of a matrix of Z[i]-pair rows with ``ncols`` columns."""
    return len(_echelon(rows, ncols)[0])
