"""Test-only reads and products of Laurent polynomials and transition
matrices, which no code of the package needs: the product of two transition
matrices, a Laurent polynomial's coefficient, and a GaussianRational
reference for the Z[i] Laurent product."""

from conetower.bundles import TransitionMatrix
from conetower.gaussian import ONE, ZERO, GaussianRational
from conetower.laurent import LaurentPoly


def matmul(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            acc = LaurentPoly.zero()
            for l in range(2):
                acc = acc + a.entries[i][l] * b.entries[l][j]
            row.append(acc)
        rows.append(row)
    return TransitionMatrix(rows)


def coefficient(f: LaurentPoly, exponent: int) -> GaussianRational:
    return f.coeffs.get(exponent, ZERO)


def gr_mul_sub(a: dict, b: dict, c: dict, d: dict) -> dict:
    """a*b - c*d on {exponent: GaussianRational} dicts, in GaussianRational
    arithmetic with no zero kept: it shares no code with the Z[i] kernel
    that LaurentPoly and the cocycle determinant multiply with."""
    out: dict = {}
    for sign, f, g in ((ONE, a, b), (-ONE, c, d)):
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                out[e1 + e2] = out.get(e1 + e2, ZERO) + sign * c1 * c2
    return {e: v for e, v in out.items() if v}
