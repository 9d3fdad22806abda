"""Exact linear algebra over Q(i).

Every entry point takes rows of Gaussian-integer pairs ``(a, b)`` meaning
``a + b*i``; a caller clears the denominators of a row over Q(i) once, which
changes neither its rank nor its kernel.  Rows are eliminated fraction-free
(Bareiss), so ranks are exact.  A step that finds a zero in a row's pivot
column would only rescale that row by p_k / p_(k-1), and over a run of such
steps the factors telescope to p_(k-1) / p_s: so a row is left as it is until
it has something to eliminate or becomes the pivot row, then caught up with
one exact division, exact because the caught-up entries are minors of the
input by Sylvester's identity (E. H. Bareiss, Math. Comp. 22, 1968).
Kernels come back in Z[i] too: back-substitution scales the vector by each
pivot instead of dividing by it.
Used by :mod:`conetower.quadric` for the span of a line given by rows from
outside (a ruling line's span is written down from its split's adjugate
instead); the tests also use it for their section-count, real-system and
ruling-span oracles.
"""

from __future__ import annotations

from .errors import InternalInconsistencyError


def _echelon(rows, ncols):
    """Bareiss row echelon form of Z[i]-pair rows; returns (pivot_cols, rows).

    Step k, with pivot p_k in column col, takes every remaining row r to
    ``(p_k*r - r[col]*pivot_row) / p_(k-1)`` (p_(-1) = 1).  By Sylvester's
    identity every entry of that row is a minor of the input, so the
    division is exact in Z[i]; it is checked anyway.

    When ``r[col] = 0`` the step only multiplies r by p_k / p_(k-1), and over
    consecutive such steps the factors telescope: a row last computed at the
    step with pivot p_s (its stamp; 1 for an input row) equals, at step k,
    its stored value times p_(k-1) / p_s.  So a row is touched only when it
    becomes the pivot row, caught up as ``r*p_(k-1) / p_s``, or when its
    pivot-column entry is nonzero, eliminated as
    ``(p_k*r - r[col]*pivot_row) / p_s``.  Either quotient is the row the
    step-by-step elimination would hold, a row of minors, so its one
    division is exact.  Scaling a row by a nonzero constant keeps its zero
    entries zero, so the pivot choice, the pivots and the returned rows are
    those of the step-by-step elimination.  Rows that become zero are
    dropped.
    """
    unit = (1, 0, 1)  # a stamp or pivot as (re, im, norm)
    # each row with its stamp; a row is zero when no pair has a nonzero part
    work = [(r, unit) for r in rows if any(map(any, r))]
    pivots = []
    echelon = []
    prev = unit
    col = 0
    while work and col < ncols:
        pivot_idx = next((i for i, (r, _) in enumerate(work) if r[col] != (0, 0)), None)
        if pivot_idx is None:
            col += 1
            continue
        pivot_row, stamp = work.pop(pivot_idx)
        if stamp is not prev:
            # catch the pivot row up: times prev * conj(stamp), then the
            # exact division by stamp's norm
            qr, qi, _ = prev
            sr, si, norm = stamp
            cr, ci = qr * sr + qi * si, qi * sr - qr * si
            current = [(0, 0)] * ncols
            for j in range(col, ncols):
                ar, ai = pivot_row[j]
                if ar or ai:
                    x, r1 = divmod(cr * ar - ci * ai, norm)
                    y, r2 = divmod(cr * ai + ci * ar, norm)
                    if r1 or r2:
                        raise InternalInconsistencyError("inexact division in fraction-free elimination")
                    current[j] = (x, y)
            pivot_row = current
        pivots.append(col)
        echelon.append(pivot_row)
        pr, pi = pivot_row[col]
        rest = range(col + 1, ncols)
        step = (pr, pi, pr * pr + pi * pi)
        new_work = []
        for entry in work:
            r, stamp = entry
            fr, fi = r[col]
            if not (fr or fi):
                new_work.append(entry)
                continue
            qr, qi, norm = stamp
            reduced = [(0, 0)] * ncols
            kept = False
            for j in rest:
                ar, ai = r[j]
                br, bi = pivot_row[j]
                # p*a - f*b, then the exact quotient by the stamp via its conjugate
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
                new_work.append((reduced, step))
        work = new_work
        prev = step
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
