"""Exact linear algebra over the rationals.

``rational_rank`` is the package's one rank kernel.  Its callers are
`flag`'s membership certificate and the tests' elimination oracles; `cox`
counts standard monomials instead.  Its matrices are sparse (a relation has
a few nonzero entries), so it eliminates fraction-free over the integers on
``{column: value}`` rows, each scaled to integers and divided by the gcd of
its entries.  Rows whose smallest column is fresh are already in echelon
form and are kept as they are; only the rest are reduced.  No floating
point anywhere.
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
    stored pivot row is keyed by its smallest column.  Fresh pivots come
    first: for each smallest column, the first nonzero row with it is stored
    unreduced.  Every other row is then reduced against the pivot at its
    smallest column, ``a*row - b*pivot`` with ``a/b`` the ratio of the two
    leading entries in lowest terms, until that column has no pivot (the
    row joins the basis) or the row vanishes (it was dependent).
    """
    rows = [v for v in map(_integer_row, rows) if v]
    pivots = {min(v): v for v in reversed(rows)}
    for vec in rows:
        if pivots[min(vec)] is vec:
            continue
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
