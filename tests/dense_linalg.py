"""Dense exact linear algebra, used by the tests only as oracles.

Inverse, determinant and signature of small square matrices over the
rationals: lattice unimodularity and signature, Cartan determinants, and
the inverse Cartan matrix of the Fraction reference Freudenthal.
"""

from fractions import Fraction


def invert(matrix) -> list[list[Fraction]]:
    """Inverse of a square rational matrix."""
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [x / pval for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def det(matrix) -> int:
    """Determinant of an integer matrix (Bareiss, fraction free)."""
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def symmetric_signature(gram) -> tuple[int, int, int]:
    """Signature ``(positive, negative, zero)`` of a symmetric matrix.

    Computed by congruence diagonalization, which only needs rational
    arithmetic; Sylvester's law makes the count basis independent.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    zero += 1
                    continue
                # zero diagonal block: fold column j in to expose a pivot
                for c in range(n):
                    a[k][c] += a[j][c]
                for r in range(n):
                    a[r][k] += a[r][j]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / p
                for c in range(n):
                    a[i][c] -= f * a[k][c]
                for r in range(n):
                    a[r][i] -= f * a[r][k]
    return pos, neg, zero
