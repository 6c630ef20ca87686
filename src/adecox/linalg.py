"""Exact linear algebra over the rationals.

``rational_rank`` is the package's one rank kernel.  Its matrices are sparse
and tall (a relation times a monomial has at most a few nonzero entries), so
it eliminates fraction-free over the integers on ``{column: value}`` rows,
each scaled to integers and divided by the gcd of its entries.  The square
helpers below (inverse, determinant, signature) act on small dense
matrices.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(row) -> dict[int, int]:
    """Nonzero entries of one row, scaled to coprime integers."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    out = {}
    den = 0  # 0 while every entry is an int
    for col, x in items:
        if type(x) is not int:
            x = Fraction(x)
            den = lcm(den or 1, x.denominator)
        if x:
            out[col] = x
    if den:
        out = {col: int(x * den) for col, x in out.items()}
    g = gcd(*out.values())
    if g > 1:
        out = {col: x // g for col, x in out.items()}
    return out


def rational_rank(rows) -> int:
    """Rank of a matrix given as an iterable of rows.

    A row is a dense sequence or a ``{column: value}`` dict; entries are
    integers, ``Fraction`` values or anything ``Fraction`` accepts.  Each
    stored pivot row is keyed by its smallest column.  An incoming row is
    reduced against the pivot at its smallest column, ``a*row - b*pivot``
    with ``a/b`` the ratio of the two leading entries in lowest terms,
    until that column has no pivot (the row joins the basis) or the row
    vanishes (it was dependent).
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = _integer_row(row)
        while vec:
            col = min(vec)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = vec
                break
            a, b = piv[col], vec[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            new = {c: a * x for c, x in vec.items()} if a != 1 else dict(vec)
            for c, x in piv.items():
                y = new.get(c, 0) - b * x
                if y:
                    new[c] = y
                else:
                    new.pop(c, None)
            g = gcd(*new.values())
            vec = {c: x // g for c, x in new.items()} if g > 1 else new
    return len(pivots)


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
