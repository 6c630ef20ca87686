"""Cox-ring presentations, graded dimensions and torus data.

The ring studied here is graded by the divisor classes orthogonal to the
marking class ``C``.  All generators sit in anticanonical degree 1, so a
graded piece is spanned by the monomials of one class and cut down by the
quadratic relations.  A presentation is accepted only when its relations'
leading monomials are pairwise coprime, so that they are a Groebner basis;
a piece's dimension is then its standard-monomial count, the monomials
that no leading monomial divides (Macaulay's basis theorem).

Families differ in what can be written down explicitly:

* ``A``: a free polynomial ring on the lines.
* ``D``: generators ``x_i`` (the lines ``l_i``) and ``y_i`` (the partner
  lines ``f - l_i``), with ``n - 2`` quadratic relations in class ``f``
  whose coefficients come from the fiber positions ``t_1, ..., t_n``.
* ``E``: the generator list is known (the lines, plus two extra degree-1
  generators of class ``-K + C`` when n = 8) and the quadratic relations
  are only counted per class (`relation_census`), not constructed.

A monomial is a nondecreasing tuple of generator indices in the order of
`cox_generators`: ``x_i`` is ``i - 1``, and on D ``y_i`` is ``n + i - 1``.
The monomials of one class are listed in closed form (`_class_monomials`)
or from one table per call (`_monomial_table`), in any order: `_piece_dim`
only counts them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .curves import KINDS, enumerate_lines, pairs_of_lines_summing_to
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    _Frozen,
    basis_class,
    pair,
)
# Not called here: bench/spans.py's Tracer.wrap_rank wraps cox.rational_rank.
from .linalg import rational_rank  # noqa: F401
from .roots import build_root_system
from .weights import WeightVector, weight_of

# Most monomial positions (monomials times degree) graded_piece_dim may list
# for one class, and most verify_hilbert may hold in its per-call table.  In
# process, graded_piece_dim takes 0.23 s at 35 MB peak RSS on D3 at 100f
# (1,030,200 positions), 1.8 s at 151 MB at 200f (8.1 M).  verify_hilbert
# also refuses a report whose classes times rank pass it, before any piece
# is counted: A40 to degree 4 fits the table (581,790 positions) but has
# 148,995 classes (6,257,790 coordinates); cold, it took 9.7 s at 771 MB and
# wrote 112 MB of JSON.  A24 (617,526) runs in 0.8 s cold.
MONOMIAL_CAP = 1_000_000
# Longest ray git_hilbert walks.  In process, verify --which git without
# points takes 0.06 s at 20 MB to 10,000 and 0.42 s at 53 MB to 100,000.
RAY_CAP = 10_000


class SurfaceConfigD(_Frozen):
    """Fiber positions ``t_1, ..., t_n`` on the base line, pairwise distinct.

    Distinctness is the lattice-level shadow of choosing the blown-up points
    in general position; every relation coefficient below is a difference of
    two of these values, so distinctness is exactly what keeps them nonzero.
    """

    __slots__ = _fields = ("points",)

    def __init__(self, points: tuple[Fraction, ...]):
        super().__init__(tuple(Fraction(p) for p in points))
        if len(set(self.points)) != len(self.points):
            raise ValueError("fiber positions must be pairwise distinct")


class Generator(_Frozen):
    __slots__ = _fields = ("name", "cls")


class Relation(_Frozen):
    """A homogeneous quadric: terms are (coefficient, generator-index tuple)."""

    __slots__ = _fields = ("terms", "cls")


def _check_relations(generators: tuple[Generator, ...], relations: tuple[Relation, ...]) -> None:
    """Refuse a relation with no terms, a monomial named twice, a zero
    coefficient, a generator index outside ``range(len(generators))``, or a
    term whose generators do not sum to its class."""
    for rel in relations:
        if not rel.terms:
            raise ValueError("relation with no terms")
        if len({tuple(sorted(mono)) for _, mono in rel.terms}) != len(rel.terms):
            raise ValueError("relation names a monomial twice")
        for coeff, mono in rel.terms:
            if coeff == 0:
                raise ValueError("relation carries a zero coefficient")
            total = rel.cls * 0
            for idx in mono:
                if not 0 <= idx < len(generators):
                    raise ValueError("relation names a generator outside the generator list")
                total = total + generators[idx].cls
            if total != rel.cls:
                raise ValueError("relation is not homogeneous")


class CoxPresentation(_Frozen):
    # The lattice and the relations are the key.  ``generators`` comes from
    # `cox_generators`, whose order numbers the generators in every
    # monomial; it and ``_leads`` take no part in equality, hash or repr.
    _fields = ("lattice", "relations")
    __slots__ = _fields + ("generators", "_leads")

    def __init__(self, lattice: IntersectionLattice, relations: tuple[Relation, ...]):
        super().__init__(lattice, relations)
        self._set(generators=tuple(Generator(name, cls) for name, cls in cox_generators(lattice)))
        _check_relations(self.generators, self.relations)
        # Each relation's leading monomial is its largest sorted
        # generator-index tuple: graded reverse lex with x_1 last.  Pairwise
        # coprime leading monomials make the relations a Groebner basis
        # (Buchberger's first criterion), which `_piece_dim` counts on.
        leads = tuple(max(tuple(sorted(mono)) for _, mono in rel.terms) for rel in self.relations)
        seen: set[int] = set()
        for lead in leads:
            if seen.intersection(lead):
                raise ValueError("leading monomials are not pairwise coprime")
            seen.update(lead)
        self._set(_leads=leads)


def anticanonical_shift(lattice: IntersectionLattice) -> DivisorClass:
    """The class ``-K + C``, the degree-1 stand-in for the anticanonical class.

    ``-K`` itself pairs nonzero with ``C``; adding ``C`` lands in the
    orthogonal sublattice without changing the class modulo ``ZC``.
    """
    return lattice.C - lattice.K


def cox_generators(lattice: IntersectionLattice) -> list[tuple[str, DivisorClass]]:
    """Named degree-1 generators of the graded section ring.

    A-family: one generator per line ``l_1 .. l_{n+1}``.  D-family: ``x_i``
    for ``l_i`` and ``y_i`` for ``f - l_i``.  E-family: one generator per
    line, plus two generators ``k1, k2`` of class ``-K + C`` when n = 8
    (that class has a two-dimensional space of sections there).
    """
    fam = lattice.family
    if fam.kind == "A":
        return [
            (f"x{i}", basis_class(lattice, f"l{i}")) for i in range(1, fam.n + 2)
        ]
    if fam.kind == "D":
        f = basis_class(lattice, "f")
        xs = [(f"x{i}", basis_class(lattice, f"l{i}")) for i in range(1, fam.n + 1)]
        ys = [(f"y{i}", f - basis_class(lattice, f"l{i}")) for i in range(1, fam.n + 1)]
        return xs + ys
    gens = [(f"x{i}", cls) for i, cls in enumerate(enumerate_lines(lattice), start=1)]
    if fam.n == 8:
        shift = anticanonical_shift(lattice)
        gens += [("k1", shift), ("k2", shift)]
    return gens


def dn_ideal(lattice: IntersectionLattice, config: SurfaceConfigD) -> CoxPresentation:
    """The quadratic ideal of the D-family section ring.

    Generator ``x_i y_i`` is the section ``u - t_i v`` of the ruling pencil
    vanishing on the fiber over ``t_i``; any three such sections are linearly
    dependent, giving for each i >= 3 the relation

        (t_2 - t_i) x_1 y_1 + (t_i - t_1) x_2 y_2 + (t_1 - t_2) x_i y_i = 0

    of class ``f``.  That is n - 2 relations; n = 2 yields a free ring.
    """
    fam = lattice.family
    if fam.kind != "D":
        raise ValueError("quadric ideal construction needs the D family")
    n = fam.n
    if len(config.points) != n:
        raise ValueError(f"need exactly {n} fiber positions, got {len(config.points)}")
    t = config.points
    f = basis_class(lattice, "f")
    relations = []
    for i in range(3, n + 1):
        terms = (
            (t[1] - t[i - 1], (0, n)),
            (t[i - 1] - t[0], (1, n + 1)),
            (t[0] - t[1], (i - 1, n + i - 1)),
        )
        relations.append(Relation(terms, f))
    return CoxPresentation(lattice, tuple(relations))


def cox_presentation(
    lattice: IntersectionLattice, config: SurfaceConfigD | None = None
) -> CoxPresentation:
    """Generators plus relations where the relations are constructible.

    The one place that decides which families carry relations.  Without
    fiber positions the A family and (D, 2) give the free ring; positions,
    required for the D family with n >= 3, go to `dn_ideal`, which refuses
    a wrong count and any other family.  The E family is refused: its
    relations are only counted (`relation_census`).
    """
    fam = lattice.family
    if fam.kind == "E":
        raise ValueError("E-family relation ideals are not constructed; use relation_census")
    if config is not None:
        return dn_ideal(lattice, config)
    if fam.kind == "D" and fam.n >= 3:
        raise ValueError("D-family presentations with n >= 3 need fiber positions")
    return CoxPresentation(lattice, ())


def section_dim(lattice: IntersectionLattice, d: DivisorClass) -> int:
    """Dimension of the space of sections of a class orthogonal to ``C``.

    A-family: classes are effective exactly when they are nonnegative sums
    of lines, each with a one-dimensional space.  D-family: for
    ``D = a f + sum c_i l_i`` the negative ``c_i`` force fiber components,
    leaving a pencil power ``a_0 = a - sum_{c_i < 0} |c_i|`` with
    ``a_0 + 1`` sections.  E-family: supported only on the closed class list
    (lines, rulings, ``-K + C`` for n in {7, 8}, ``-2K + 2C`` for n = 8),
    where the dimension equals ``1 + (D^2 - D.K) / 2``.
    """
    x = _orthogonal_coords(lattice, d)
    fam = lattice.family
    if fam.kind == "A":
        return 1 if all(c >= 0 for c in x[1:]) else 0
    if fam.kind == "D":
        a0 = x[0] + sum(c for c in x[2:] if c < 0)
        return a0 + 1 if a0 >= 0 else 0
    if not _has_known_sections(lattice, d, ("lines", "rulings")):
        raise ValueError(f"unsupported E-family class {d}")
    return 1 + (pair(lattice, d, d) - pair(lattice, d, lattice.K)) // 2


def _orthogonal_coords(lattice: IntersectionLattice, d: DivisorClass) -> tuple[int, ...]:
    """The coordinates of ``d``, checked for length and orthogonality to ``C``."""
    x = d.coords
    if len(x) != lattice.rank:
        raise ValueError("coordinate length does not match the lattice rank")
    if sum(x[k] * v for k, v in lattice.c_covector):
        raise ValueError("class must be orthogonal to C")
    return x


def _has_known_sections(
    lattice: IntersectionLattice, d: DivisorClass, kinds: tuple[str, ...]
) -> bool:
    """Whether a class orthogonal to ``C`` is of one of the curve ``kinds``
    or is ``-K + C`` on (E, 7) and (E, 8) or ``-2K + 2C`` on (E, 8).

    Enumeration is exhaustive (selftest C9 checks it against a box search),
    so a class orthogonal to ``C`` is a line or a ruling exactly when its
    ``(D.D, D.K)`` is that kind's pair in ``curves.KINDS``.
    """
    numbers = (pair(lattice, d, d), pair(lattice, d, lattice.K))
    if any(KINDS[kind] == numbers for kind in kinds):
        return True
    fam = lattice.family
    shift = anticanonical_shift(lattice)
    return fam.kind == "E" and (
        (fam.n >= 7 and d == shift) or (fam.n == 8 and d == shift + shift)
    )


def _class_monomials(
    presentation: CoxPresentation, target: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Generator-index tuples of the monomials of class ``target``, listed in
    closed form.

    A family: ``x_i = l_i``, so the class has the one monomial
    ``prod x_i^{c_i}``, or none if some ``c_i < 0``.  D family: for
    ``target = a f + sum c_i l_i`` pair i contributes ``x_i^{c_i + b_i}
    y_i^{b_i}`` with ``b_i = need_i + e_i``, ``need_i = max(0, -c_i)`` and the
    ``e_i`` spreading the slack ``a - sum need_i`` over the n pairs.  The walk
    carries the x part and the y part apart, so that each tuple comes out
    sorted.  A class whose monomials would hold more than ``MONOMIAL_CAP``
    positions is refused before any is listed.
    """
    fam = presentation.lattice.family
    if fam.kind == "A":
        # Coordinate 0 is h, which no line touches.
        if target[0] or any(c < 0 for c in target[1:]):
            return []
        count, degree = 1, sum(target[1:])
    elif fam.kind == "D":
        # Coordinate 1 is s, which no generator touches.
        if target[1]:
            return []
        cs = target[2:]
        needs = [max(0, -c) for c in cs]
        slack = target[0] - sum(needs)
        if slack < 0:
            return []
        last = len(cs) - 1
        count, degree = math.comb(slack + last, last), 2 * target[0] + sum(cs)
    else:
        raise ValueError("closed-form monomials cover the A and D families only")
    if count * degree > MONOMIAL_CAP:
        raise ValueError(
            f"class {target} has {count} monomials of degree {degree}, "
            f"{count * degree} positions, which exceeds the cap {MONOMIAL_CAP}"
        )
    if fam.kind == "A":
        return [tuple(i for i, c in enumerate(target[1:]) for _ in range(c))]
    out: list[tuple[int, ...]] = []
    stack = [(0, slack, (), ())]
    while stack:
        k, r, xs, ys = stack.pop()
        if k > last:
            out.append(xs + ys)
            continue
        for e in (r,) if k == last else range(r + 1):
            b = needs[k] + e
            stack.append((k + 1, r - e, xs + (k,) * (cs[k] + b), ys + (fam.n + k,) * b))
    return out


def _monomial_table(
    presentation: CoxPresentation, max_degree: int
) -> list[dict[tuple[int, ...], list[tuple[int, ...]]]]:
    """Every monomial of degree at most ``max_degree``, by degree and class.

    Entry k maps each class of degree k to its monomials.  Built degree by
    degree: a degree-k monomial is extended by each generator at or after
    its last one, so every monomial is listed once and costs one tuple add
    for its class.  ``MONOMIAL_CAP`` bounds the positions of the whole
    table: ``sum_k k C(count + k - 1, k) = count C(count + m, m - 1)`` for
    ``m = max_degree``.
    """
    vectors = [g.cls.coords for g in presentation.generators]
    count = len(vectors)
    size = count * math.comb(count + max_degree, max_degree - 1) if max_degree else 0
    if size > MONOMIAL_CAP:
        raise ValueError(
            f"monomial table of {size} positions up to degree {max_degree} "
            f"exceeds the cap {MONOMIAL_CAP}"
        )
    levels = [{(0,) * presentation.lattice.rank: [()]}]
    for _ in range(max_degree):
        level: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for cls, monos in levels[-1].items():
            for mono in monos:
                for i in range(mono[-1] if mono else 0, count):
                    key = tuple(map(add, cls, vectors[i]))
                    bucket = level.get(key)
                    if bucket is None:
                        level[key] = [mono + (i,)]
                    else:
                        bucket.append(mono + (i,))
        levels.append(level)
    return levels


def _piece_dim(presentation: CoxPresentation, monomials) -> int:
    """The standard-monomial count: how many of ``monomials`` no leading
    monomial of the presentation divides.

    The leading monomials are pairwise coprime (`CoxPresentation` refuses
    others), so the relations are a Groebner basis and the standard
    monomials of a class are a basis of its piece (Macaulay's basis
    theorem; Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 2 section 9 and ch. 5 section 3).  The monomials may come in any
    order.
    """
    # Plain loops: most pieces that verify_hilbert counts hold one or two
    # monomials, and there any/all generator expressions made verify_hilbert
    # on D6 to degree 6 take 95 ms in place of 59 ms.
    standard = 0
    for mono in monomials:
        for lead in presentation._leads:
            for i in lead:
                if mono.count(i) < lead.count(i):
                    break
            else:
                break  # this lead divides mono
        else:
            standard += 1
    return standard


def graded_piece_dim(
    presentation: CoxPresentation,
    lattice: IntersectionLattice,
    d: DivisorClass,
) -> int:
    """Dimension of the class-``d`` piece of the presented quotient ring.

    The standard-monomial count of the monomials of class ``d``, which are
    the only ones listed; ``MONOMIAL_CAP`` bounds their positions.
    """
    if lattice != presentation.lattice:
        raise ValueError("lattice does not match the presentation")
    return _piece_dim(presentation, _class_monomials(presentation, _orthogonal_coords(lattice, d)))


def verify_hilbert(
    presentation: CoxPresentation, lattice: IntersectionLattice, max_degree: int
) -> dict:
    """Compare graded dimensions with the closed-form section counts.

    Every class expressible as a sum of generator classes with anticanonical
    degree at most ``max_degree`` is checked; the report carries each class
    with both numbers and the list of mismatches (empty on success).  All
    monomials come from one table per call, whose positions ``MONOMIAL_CAP``
    bounds; it bounds the report's classes times rank too.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if lattice != presentation.lattice:
        raise ValueError("lattice does not match the presentation")
    # Each A monomial is its own class, so A counts its classes before listing
    # any; a D table always holds the degree-0 class, so its sum is never 0.
    levels = [] if lattice.family.kind == "A" else _monomial_table(presentation, max_degree)
    classes = sum(map(len, levels)) or math.comb(len(presentation.generators) + max_degree, max_degree)
    if classes * lattice.rank > MONOMIAL_CAP:
        raise ValueError(
            f"hilbert report of {classes} classes of rank {lattice.rank} up to degree "
            f"{max_degree} exceeds the cap {MONOMIAL_CAP}"
        )
    levels = levels or _monomial_table(presentation, max_degree)
    checked = []
    mismatches = []
    for deg, level in enumerate(levels):
        for coords in sorted(level):
            g = _piece_dim(presentation, level[coords])
            s = section_dim(lattice, DivisorClass(coords))
            entry = {
                "class": list(coords),
                "degree": deg,
                "graded": g,
                "section": s,
            }
            checked.append(entry)
            if g != s:
                mismatches.append(entry)
    return {
        "family": lattice.family.label,
        "max_degree": max_degree,
        "classes_checked": len(checked),
        "classes": checked,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


class RelationCensus(_Frozen):
    __slots__ = _fields = ("monomials", "sections", "relations")


def relation_census(lattice: IntersectionLattice, target: DivisorClass) -> RelationCensus:
    """Count quadratic relations in one class as monomials minus sections.

    Supported targets: any ruling; the class ``-K + C`` for (E, 7) and
    (E, 8); the class ``-2K + 2C`` for (E, 8).  Monomials are unordered line
    pairs summing to the target, plus the products of the two extra (E, 8)
    generators where those land in the target class.
    """
    _orthogonal_coords(lattice, target)
    if not _has_known_sections(lattice, target, ("rulings",)):
        raise ValueError(f"unsupported census target {target}")
    monomials = pairs_of_lines_summing_to(lattice, target, enumerate_lines(lattice))
    fam = lattice.family
    if fam.kind == "E" and fam.n == 8:
        shift = anticanonical_shift(lattice)
        if target == shift + shift:
            monomials += 3  # k1^2, k1 k2, k2^2
        elif target == shift:
            monomials += 2  # the degree-1 monomials k1, k2 themselves
    sections = section_dim(lattice, target)
    relations = monomials - sections
    if relations < 0:
        raise AssertionError("more sections than monomials in a census class")
    return RelationCensus(monomials, sections, relations)


def torus_character(
    lattice: IntersectionLattice, d: DivisorClass
) -> tuple[DivisorClass, WeightVector]:
    """Characters of the two grading tori attached to a class.

    The big torus has character lattice Pic modulo ``ZC``; since ``C`` is a
    basis vector in every family, the canonical representative just zeroes
    that coordinate.  The small torus character is the Dynkin label vector.
    """
    idx = lattice.C.coords.index(1)
    coords = list(d.coords)
    coords[idx] = 0
    reduced = DivisorClass(tuple(coords))
    return reduced, weight_of(build_root_system(lattice), d)


def git_hilbert(
    lattice: IntersectionLattice,
    linearization: DivisorClass,
    max_k: int,
    presentation: CoxPresentation | None = None,
) -> list[int]:
    """Dimensions of the invariant graded pieces along a linearization ray.

    D-family: the ray is the ruling class ``f`` (the class ``s`` is accepted
    as an alias naming the same ray modulo ``ZC``); the values
    ``1, 2, ..., max_k + 1`` are the Hilbert function of the projective
    line.  A-family: any line class; all values are 1, the quotient is a
    point.  When a presentation is supplied the values come from
    graded_piece_dim instead of the closed-form section count.  A ray
    longer than ``RAY_CAP`` is refused before any dimension is computed.
    """
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if max_k > RAY_CAP:
        raise ValueError(f"ray length {max_k} exceeds the cap {RAY_CAP}")
    fam = lattice.family
    if fam.kind == "D":
        f = basis_class(lattice, "f")
        s = basis_class(lattice, "s")
        if linearization not in (f, s):
            raise ValueError("unsupported linearization for the D family")
        ray = f
    elif fam.kind == "A":
        line_classes = {
            basis_class(lattice, f"l{i}") for i in range(1, fam.n + 2)
        }
        if linearization not in line_classes:
            raise ValueError("unsupported linearization for the A family")
        ray = linearization
    else:
        raise ValueError("GIT Hilbert functions cover the A and D families only")
    # Largest piece first, so that a ray past MONOMIAL_CAP is refused before
    # the smaller pieces are counted.
    dims = []
    for k in range(max_k, -1, -1):
        cls = ray * k
        if presentation is not None:
            dims.append(graded_piece_dim(presentation, lattice, cls))
        else:
            dims.append(section_dim(lattice, cls))
    return dims[::-1]
