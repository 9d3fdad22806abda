"""Test-only reads and products of Laurent polynomials and transition
matrices, which no code of the package needs: the product of two transition
matrices, and a Laurent polynomial's top exponent and coefficient."""

from conetower.bundles import TransitionMatrix
from conetower.errors import ZeroInputError
from conetower.gaussian import ZERO, GaussianRational
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


def max_exp(f: LaurentPoly) -> int:
    if not f.coeffs:
        raise ZeroInputError("the zero Laurent polynomial has no exponents")
    return max(f.coeffs)


def coefficient(f: LaurentPoly, exponent: int) -> GaussianRational:
    return f.coeffs.get(exponent, ZERO)
