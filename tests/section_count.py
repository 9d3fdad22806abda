"""Section counting: the test oracle for splitting types and h0 profiles.

``h0_window`` proves a splitting type by a checked Birkhoff factorization and
reads the h0 profile off the type.  This module counts sections of E(m)
directly, by one exact rank computation per twist, which shares nothing with
that proof but T's Z[i] rows and ``det_valuation``.  Its cost grows roughly
like the cube of T's degree, so the tests run it on cocycles of moderate
degree only.
"""

from conetower.bundles import TransitionMatrix, _zi_rows, det_valuation

import linalg_reference


def section_dim(T: TransitionMatrix, m: int) -> int:
    """h0 of the bundle twisted by O(m), by exact section counting.

    A section is a polynomial 2-vector u(z) such that v = T * z^-m * u has
    only non-positive z-exponents.  Then u = z^m * adj(T) * v / (c * z^val)
    with det T = c * z^val, and the entries of adj(T) are entries of T, of
    z-degree at most hi (the top exponent of T).  So every section has
    degree at most m + hi - val, and one exact rank computation over the
    polynomials of that degree counts them all.
    """
    _, val = det_valuation(T)  # validates the cocycle
    _, hi = T.exponent_span()
    return count_sections(_zi_rows(T)[0], hi - val, m)


def count_sections(zrows, reach: int, m: int) -> int:
    """Sections of E(m) from T's Z[i] rows, of degree at most B = m + reach.

    Scaling every system row taken from one row of T by the same nonzero
    constant keeps the rank.  Unknown d of u_j sits in column 2*d + j
    (degree-major), so the terms of one row of T meet a band of columns and
    most rows skip most elimination steps; a column permutation keeps the
    rank, the only thing read.
    """
    B = m + reach
    if B < 0:
        return 0
    cols = 2 * (B + 1)
    rows = []
    for zentries in zrows:
        # the condition at z^e collects the terms of exponent e = exp - m + d,
        # 0 <= d <= B; only the e >= 1 that some term reaches carry one
        by_e = {}
        for j, zentry in enumerate(zentries):
            for exp, coeff in zentry.items():
                for d in range(max(0, m + 1 - exp), B + 1):
                    e = exp - m + d
                    if e not in by_e:
                        by_e[e] = [(0, 0)] * cols
                    by_e[e][2 * d + j] = coeff
        rows.extend(by_e[e] for e in sorted(by_e))
    return cols - linalg_reference.matrix_rank(rows, cols)
