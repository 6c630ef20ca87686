"""Exact rational linear algebra helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adecox.linalg import rational_rank
from dense_linalg import det, invert, symmetric_signature


def _reference_rank(rows) -> int:
    """Dense Gaussian elimination over Fraction, the textbook way."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / mat[rank][col]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


_entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
    st.just(0),
)


@st.composite
def _matrices(draw):
    """Rows with rational entries, plus zero rows and repeated rows."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), max_size=8))
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    return draw(st.permutations(rows)) if rows else rows


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_rank_matches_dense_reference_on_dense_and_dict_rows(rows):
    want = _reference_rank(rows)
    assert rational_rank(rows) == want
    assert rational_rank([tuple(row) for row in rows]) == want
    sparse = [{col: x for col, x in enumerate(row) if x} for row in rows]
    assert rational_rank(sparse) == want
    assert rational_rank(iter(sparse)) == want
    # Rows reversed and columns renumbered in reverse: other rows share a
    # smallest column, so the fresh-pivot pass and the reduction split
    # differently.
    assert rational_rank([row[::-1] for row in rows[::-1]]) == want


def test_rank_of_identity_like_rows():
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert rational_rank(rows) == 3


def test_rank_detects_dependent_rows():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    assert rational_rank(rows) == 2


def test_rank_with_fractions():
    rows = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 2))]
    assert rational_rank(rows) == 2
    scaled = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1, 1))]
    assert rational_rank(scaled) == 1


def test_rank_of_empty_and_zero_input():
    assert rational_rank([]) == 0
    assert rational_rank([(0, 0), (0, 0)]) == 0


def test_det_small_cases():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30


def test_det_singular_is_zero():
    assert det([[1, 2], [2, 4]]) == 0


def test_invert_round_trip():
    m = [[2, 1], [1, 1]]
    inv = invert(m)
    # m @ inv should be the identity, entry by entry.
    for i in range(2):
        for j in range(2):
            entry = sum(Fraction(m[i][k]) * inv[k][j] for k in range(2))
            assert entry == (1 if i == j else 0)


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert([[1, 2], [2, 4]])


def test_signature_of_diagonal_forms():
    assert symmetric_signature([[1, 0], [0, -1]]) == (1, 1, 0)
    assert symmetric_signature([[2, 0, 0], [0, 3, 0], [0, 0, 0]]) == (2, 0, 1)
    assert symmetric_signature([[-1]]) == (0, 1, 0)


def test_signature_of_hyperbolic_plane():
    # The off-diagonal pairing x*y has eigenvalue signs (+, -).
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1, 0)
