"""Exhaustive enumeration of roots, lines and rulings.

A class ``D`` orthogonal to the marking class ``C`` is determined by a
leading coefficient (``a`` on ``h`` or ``f``; forced to zero in the ``A``
family) and exceptional coordinates ``b_i``.  Fixing the self intersection
and the canonical degree turns the search into: for each ``a``, find all
integer tuples with prescribed sum ``s`` and sum of squares ``q``.  The
Cauchy-Schwarz bound ``(s - b)^2 <= (m - 1)(q - b^2)`` prunes every branch
that cannot be completed, so the recursion is provably exhaustive while
visiting only near-feasible prefixes.  The last two coordinates are solved
in closed form, and so is a tail whose remaining sum of squares is zero: it
can only be all zeros.

Kinds and their defining equations (``.`` is the intersection pairing):

* roots:   ``D.D = -2``, ``D.K = 0``,  ``D.C = 0``
* lines:   ``D.D = -1``, ``D.K = -1``, ``D.C = 0``
* rulings: ``D.D = 0``,  ``D.K = -2``, ``D.C = 0``
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import isqrt
from operator import sub

from .lattice import CACHE_MAXSIZE, DivisorClass, IntersectionLattice, _Frozen

KINDS = {
    "roots": (-2, 0),
    "lines": (-1, -1),
    "rulings": (0, -2),
}


class ClassSet(_Frozen):
    # ``coord_set`` is a cached_property, which needs an instance __dict__.
    _fields = ("lattice", "kind", "classes")
    __slots__ = _fields + ("__dict__",)

    def __iter__(self):
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    def as_set(self) -> frozenset[DivisorClass]:
        return frozenset(self.classes)

    @cached_property
    def coord_set(self) -> frozenset[tuple[int, ...]]:
        """The coordinate tuples of the classes, built on first use."""
        return frozenset(c.coords for c in self.classes)


def _two_square_pairs(s: int, q: int) -> list[tuple[int, int]]:
    """The pairs (b, s - b) with b^2 + (s - b)^2 = q, in increasing b."""
    disc = 2 * q - s * s  # (2b - s)^2 = 2q - s^2
    if disc < 0:
        return []
    d = isqrt(disc)
    if d * d != disc or (s - d) % 2:
        return []
    b = (s - d) // 2
    return [(b, s - b), (b + d, s - b - d)] if d else [(b, s - b)]


def _sum_square_tuples(m: int, s: int, q: int):
    """All integer m-tuples with sum s and sum of squares q, pruned exactly.

    Depth first in lexicographic order, with an explicit stack of candidate
    iterators (one per open coordinate) and one shared prefix list, so the
    depth is not bounded by the recursion limit.  The last two coordinates,
    and a tail whose remaining sum of squares is zero, are solved in closed
    form.
    """
    if m <= 2 or q < 0:
        if m == 2:
            yield from _two_square_pairs(s, q)
        elif (m == 0 and s == 0 and q == 0) or (m == 1 and s * s == q):
            yield (s,) * m
        return
    prefix = [0] * (m - 2)
    top = isqrt(q)
    stack = [(iter(range(-top, top + 1)), s, q)]
    while stack:
        i = len(stack) - 1
        candidates, rest_s, rest_q = stack[i]
        after = m - 1 - i  # coordinates still open after coordinate i
        for b in candidates:
            tail_s, tail_q = rest_s - b, rest_q - b * b
            if tail_s * tail_s <= after * tail_q:
                break
        else:
            stack.pop()
            continue
        prefix[i] = b
        if tail_q == 0:
            # The pruning test above forced tail_s == 0: the tail is all zeros.
            yield tuple(prefix[: i + 1]) + (0,) * after
        elif after == 2:
            for tail in _two_square_pairs(tail_s, tail_q):
                yield tuple(prefix) + tail
        else:
            top = isqrt(tail_q)
            stack.append((iter(range(-top, top + 1)), tail_s, tail_q))


def _leading_range(a2: int, a1: int, a0: int):
    """Integers a with a2*a^2 + a1*a + a0 <= 0, assuming a2 > 0."""
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    r = isqrt(disc)
    lo = (-a1 - r) // (2 * a2) - 1
    hi = (-a1 + r) // (2 * a2) + 2
    return [a for a in range(lo, hi + 1) if a2 * a * a + a1 * a + a0 <= 0]


def _enumerate(lattice: IntersectionLattice, self_int: int, k_int: int):
    fam = lattice.family
    n = fam.n
    found = []
    if fam.kind == "E":
        # D = a*h + sum b_i l_i with b_(n+1) = 0 forced by D.C = 0.
        # sum b = -k_int - 3a, sum b^2 = a^2 - self_int over n coordinates.
        for a in _leading_range(9 - n, 6 * k_int, k_int * k_int + n * self_int):
            s = -k_int - 3 * a
            q = a * a - self_int
            for b in _sum_square_tuples(n, s, q):
                found.append(DivisorClass((a,) + b + (0,)))
    elif fam.kind == "A":
        # D.C = D.h forces a = 0; sum b = -k_int, sum b^2 = -self_int.
        for b in _sum_square_tuples(n + 1, -k_int, -self_int):
            found.append(DivisorClass((0,) + b))
    else:
        # D = a*f + sum b_i l_i with the s coordinate forced to zero.
        # sum b = -k_int - 2a, sum b^2 = -self_int.
        for a in _leading_range(4, 4 * k_int, k_int * k_int + n * self_int):
            s = -k_int - 2 * a
            q = -self_int
            for b in _sum_square_tuples(n, s, q):
                found.append(DivisorClass((a, 0) + b))
    classes = tuple(sorted(found))
    if len(set(classes)) != len(classes):
        raise AssertionError(f"{lattice.family.label} enumeration repeats a class")
    return classes


@lru_cache(maxsize=CACHE_MAXSIZE)
def _enumerate_kind(lattice: IntersectionLattice, kind: str) -> ClassSet:
    self_int, k_int = KINDS[kind]
    return ClassSet(lattice, kind, _enumerate(lattice, self_int, k_int))


def enumerate_roots(lattice: IntersectionLattice) -> ClassSet:
    return _enumerate_kind(lattice, "roots")


def enumerate_lines(lattice: IntersectionLattice) -> ClassSet:
    return _enumerate_kind(lattice, "lines")


def enumerate_rulings(lattice: IntersectionLattice) -> ClassSet:
    return _enumerate_kind(lattice, "rulings")


ENUMERATORS = {
    "roots": enumerate_roots,
    "lines": enumerate_lines,
    "rulings": enumerate_rulings,
}


def pairs_of_lines_summing_to(
    lattice: IntersectionLattice, target: DivisorClass, lines: ClassSet
) -> int:
    """Number of unordered line pairs {l, l'} with l + l' = target.

    A line counts with itself only when 2l = target.
    """
    coord_set = lines.coord_set
    doubles = halves = 0
    for line in coord_set:
        rest = tuple(map(sub, target.coords, line))
        if rest == line:
            doubles += 1
        elif rest in coord_set:
            halves += 1
    if halves % 2:
        raise AssertionError("line pairs summing to the target are not symmetric")
    return halves // 2 + doubles
