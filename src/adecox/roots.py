"""Simple roots, Cartan data and Weyl group machinery.

The sublattice of classes orthogonal to both ``K`` and ``C`` is a (negated)
root lattice.  A root here is a class with self intersection -2; adjacent
simple roots pair to +1, so the Cartan matrix, entry ``-(alpha_i . alpha_j)``,
has diagonal 2 and off-diagonal entries in {0, -1}.

Simple root conventions:

* ``E`` family: ``alpha_1 = -h + l1 + l2 + l3`` and ``alpha_i = l_i - l_(i-1)``
  for ``2 <= i <= n``; the top node ``alpha_1`` attaches to ``alpha_4``.
* ``D`` family: ``alpha_1 = -f + l1 + l2`` and ``alpha_i = l_i - l_(i-1)``.
  ``alpha_1`` is the unique root orthogonal to ``K``, ``C`` and ``alpha_2``
  that pairs to +1 with ``alpha_3``, i.e. the class completing the fork.
* ``A`` family: ``alpha_i = l_(i+1) - l_i`` for ``1 <= i <= n``, a chain.

The Dynkin type is read off the highest roots.  In an irreducible root
system the highest root is the one positive root that no simple root
extends (Humphreys, Introduction to Lie Algebras and Representation Theory,
10.4 Lemma A), and its height is h - 1, h the Coxeter number.  So each
positive root with no label -1 is the highest root of its component; its
support has k nodes, and its height is k for A_k, 2k - 3 for D_k, and 11,
17 and 29 for E6, E7 and E8.  No other system occurs, since the root
closure only ends on a finite (ADE) system, and A3 = D3, of height 3, is
named A3.  So the small cases come out under their isomorphic names:
(E,3) -> A2xA1, (E,4) -> A4, (E,5) -> D5, (D,2) -> A1xA1, (D,3) -> A3.

A root system is keyed by its lattice alone: `RootSystemData(lattice)` is
the one place that derives Weyl data.  It reads the Cartan matrix off the
simple-root covectors, runs the positive-root closure once and keeps one
record per positive root, its coefficients, labels and sparse support,
beside the sparse Cartan rows, the one Cartan matrix it keeps, so the
weight routines in `weights` only read them; `build_root_system` caches
it.  No root is written out as a class: the Weyl dimension formula,
Freudenthal's recursion, the orbit sizes and the Dynkin type all read the
coefficients and labels.
Each orbit meets the dominant chamber in exactly one weight (Humphreys,
Reflection Groups and Coxeter Groups, 1.12), and `_dominant_labels` walks a
weight up to it.  Every Weyl orbit is written out by `_orbit_labels`, a
reverse search down from that weight (Avis and Fukuda, Reverse search for
enumeration, Discrete Appl. Math. 65, 1996): each weight but the dominant
one has one parent, the reflection at its smallest negative label, so each
weight is reached once, with no set of weights seen.  `weyl_orbit` walks
the states ``labels + coords``, carrying the class coordinates along with
the move rows the root system keeps.  The reflection of a class in a root,
`lattice.reflect`, reads the intersection form, and so lives beside it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .curves import ClassSet
from .lattice import (
    CACHE_MAXSIZE,
    DivisorClass,
    IntersectionLattice,
    _Frozen,
    basis_class,
    covector,
    pair,
    sparse_entries,
)


class RootSystemData(_Frozen):
    # The lattice is the whole key; the rest is derived from it and takes no
    # part in equality, hash or repr.  ``positive_roots`` holds one
    # ``(coefficients, labels, support)`` triple per positive root, in the
    # order of `_positive_root_coeffs`: its coefficients over the simple
    # roots, its Cartan pairing, and its coefficients as sparse ``(index,
    # coefficient)`` pairs.  ``cartan_rows`` holds the Cartan rows as sparse
    # ``(index, entry)`` pairs, and ``orbit_moves`` extends row ``i`` past
    # the labels by the entries of ``alpha_i``, the move ``s_i`` makes on
    # the states ``labels + coords`` that `weyl_orbit` walks;
    # ``lower_neighbours[i]`` holds the neighbours ``j < i`` of node ``i``,
    # which the reverse search of `_orbit_labels` reads.
    # ``simple_covectors`` holds ``covector(lattice, alpha_i)`` for each
    # simple root, so pairing a class with ``alpha_i`` is a sparse dot
    # product.  The hash is taken once: lru caches key on root systems.
    _fields = ("lattice",)
    __slots__ = _fields + (
        "simple_roots", "positive_roots", "cartan_rows", "orbit_moves", "lower_neighbours", "simple_covectors",
        "_hash",
    )

    def __init__(self, lattice: IntersectionLattice):
        super().__init__(lattice)
        alphas = simple_roots(lattice)
        for a in alphas:
            if pair(lattice, a, lattice.K) != 0:
                raise AssertionError("simple root fails the root equations")
            if pair(lattice, a, lattice.C) != 0:
                raise AssertionError("simple root not orthogonal to the marking class")
        covectors = tuple(covector(lattice, a) for a in alphas)
        # Row i holds the labels -(alpha_i . alpha_j) of alpha_i; the diagonal
        # check is the root equation alpha_i . alpha_i = -2.
        cartan = tuple(tuple(-sum(a.coords[k] * v for k, v in cov) for cov in covectors) for a in alphas)
        for i, row in enumerate(cartan):
            for j, x in enumerate(row):
                if not (x == 2 if i == j else x in (0, -1)):
                    raise AssertionError("pairing of simple roots is not simply laced")
        alpha_entries = [sparse_entries(a.coords) for a in alphas]
        roots = tuple((c, labels, sparse_entries(c)) for c, labels in _positive_root_coeffs(cartan))
        rows = tuple(sparse_entries(row) for row in cartan)
        rank = len(alphas)
        moves = tuple(row + tuple((rank + k, v) for k, v in a) for row, a in zip(rows, alpha_entries))
        self._set(simple_roots=alphas, positive_roots=roots, simple_covectors=covectors)
        lower = tuple(tuple(j for j, v in row if j < i) for i, row in enumerate(rows))
        self._set(cartan_rows=rows, orbit_moves=moves, lower_neighbours=lower, _hash=hash(self._values()))

    def __hash__(self) -> int:
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.simple_roots)


def simple_roots(lattice: IntersectionLattice) -> tuple[DivisorClass, ...]:
    fam = lattice.family
    n = fam.n
    ls = [basis_class(lattice, f"l{i}") for i in range(1, n + 2 if fam.kind != "D" else n + 1)]
    if fam.kind == "E":
        h = basis_class(lattice, "h")
        alphas = [-h + ls[0] + ls[1] + ls[2]]
        alphas += [ls[i] - ls[i - 1] for i in range(1, n)]
    elif fam.kind == "D":
        f = basis_class(lattice, "f")
        alphas = [-f + ls[0] + ls[1]]
        alphas += [ls[i] - ls[i - 1] for i in range(1, n)]
    else:
        alphas = [ls[i] - ls[i - 1] for i in range(1, n + 1)]
    return tuple(alphas)


def _positive_root_coeffs(
    cartan: tuple[tuple[int, ...], ...],
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Positive roots as ``(coefficients, labels)`` pairs, sorted.

    ``coefficients`` writes the root over the simple roots and ``labels`` is
    its Cartan pairing ``(r, alpha_j)_j``.  Closure from the simple roots:
    with all roots of norm 2 the sum ``r + alpha_j`` is again a root exactly
    when ``(r, alpha_j)`` equals -1, and every positive root is reachable by
    adding one simple root at a time.  Adding ``alpha_j`` adds row ``j`` of
    the Cartan matrix to the labels, so each step costs one row.
    `RootSystemData` is its one caller.
    """
    rank = len(cartan)
    known = {tuple(1 if i == j else 0 for j in range(rank)): cartan[i] for i in range(rank)}
    frontier = list(known.items())
    while frontier:
        fresh = []
        for c, labels in frontier:
            for j, x in enumerate(labels):
                if x != -1:
                    continue
                cc = list(c)
                cc[j] += 1
                tup = tuple(cc)
                if tup not in known:
                    known[tup] = tuple(map(add, labels, cartan[j]))
                    fresh.append((tup, known[tup]))
        frontier = fresh
    return tuple(sorted(known.items()))


@lru_cache(maxsize=CACHE_MAXSIZE)
def build_root_system(lattice: IntersectionLattice) -> RootSystemData:
    return RootSystemData(lattice)


def classify_type(system: RootSystemData) -> str:
    """Dynkin type by the highest-root rule of the module docstring."""
    labels = []
    for coeffs, pairing, _ in system.positive_roots:
        if -1 not in pairing:
            k = len(coeffs) - coeffs.count(0)
            height = sum(coeffs)
            kind = "A" if height == k else "D" if height == 2 * k - 3 else "E"
            labels.append(f"{kind}{k}")
    labels.sort(key=lambda s: (-int(s[1:]), s[0]))
    return "x".join(labels)


def weight_of(system: RootSystemData, d: DivisorClass) -> tuple[int, ...]:
    """Dynkin labels of a class: ``(-D . alpha_i)`` over the simple roots."""
    x = d.coords
    if len(x) != len(system.lattice.basis_labels):
        raise ValueError("coordinate length does not match the lattice rank")
    labels = []
    for cov in system.simple_covectors:
        w = 0
        for k, v in cov:
            w -= x[k] * v
        labels.append(w)
    return tuple(labels)


def _reflect_labels(row, w: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Labels of ``s_i(w)`` given the sparse Cartan row ``i`` and ``t = w_i``."""
    y = list(w)
    for j, v in row:
        y[j] -= t * v
    return tuple(y)


def _orbit_labels(rows, lower, start: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Each state of the Weyl orbit of the dominant ``start`` exactly once.

    Reverse search (Avis and Fukuda, Reverse search for enumeration,
    Discrete Appl. Math. 65, 1996): every other weight ``nu`` has one
    parent, ``s_m nu`` for its smallest negative label ``m``, which lies
    above it, so the parents form a tree rooted at ``start``.  From ``mu``
    the move ``s_i`` (with ``t = mu_i > 0``) is a child when no label
    ``j < i`` of ``s_i mu`` is negative; that label is ``mu_j + t`` for a
    neighbour ``j`` in ``lower[i]`` and ``mu_j`` otherwise, so the test reads
    ``mu`` and counts its negative labels below ``i``.  Move ``i`` is row
    ``i`` of ``rows``: a Cartan row on labels, or an `orbit_moves` row on
    the states ``labels + coords`` that `weyl_orbit` walks."""
    # The list grows while it is read, so each weight is expanded once.
    orbit = [start]
    for mu in orbit:
        below = 0
        for row, low, t in zip(rows, lower, mu):
            if t < 0:
                below += 1
            elif t:
                # The negative labels below i that s_i leaves negative.
                left = below
                if left:
                    for j in low:
                        x = mu[j]
                        if x < 0 <= x + t:
                            left -= 1
                if not left:
                    y = list(mu)
                    for j, v in row:
                        y[j] -= t * v
                    orbit.append(tuple(y))
    return orbit


def _dominant_labels(rows, w: tuple[int, ...], reps: dict) -> tuple[int, ...]:
    """The dominant weight in the Weyl orbit of ``w``, walked up one simple
    reflection at a time: ``s_i`` with label ``t = w_i < 0`` adds ``-t
    alpha_i``.  It negates label ``i`` and lowers only the labels of the
    neighbours of ``i``, so a worklist holds every negative label, and after
    each reflection only the neighbours whose label turned negative join it.
    ``w`` may be a state ``labels + coords`` walked with `orbit_moves` rows;
    only label indices join the worklist.  ``reps`` maps weights walked
    before to their dominant weight; the walk stops at the first of them,
    and every weight it passes joins them."""
    rank = len(rows)
    path = [w]
    y = list(w)
    todo = [i for i in range(rank) if y[i] < 0]
    while todo and path[-1] not in reps:
        i = todo.pop()
        t = y[i]
        if t < 0:
            for j, v in rows[i]:
                y[j] -= t * v
                if y[j] < 0 <= y[j] + t * v and j < rank:
                    todo.append(j)
            path.append(tuple(y))
    top = reps.get(path[-1], path[-1])
    reps.update(dict.fromkeys(path, top))
    return top


def weyl_orbit(system: RootSystemData, seed: DivisorClass) -> ClassSet:
    """Closure of a class under all simple reflections, sorted; walked on
    states ``labels + coords``, as ``s_i(x) = x - w_i alpha_i``, from the
    dominant state of the orbit down."""
    rank, moves = system.rank, system.orbit_moves
    top = _dominant_labels(moves, weight_of(system, seed) + seed.coords, {})
    states = _orbit_labels(moves, system.lower_neighbours, top)
    classes = tuple(map(DivisorClass, sorted([s[rank:] for s in states])))
    return ClassSet(lattice=system.lattice, kind="orbit", classes=classes)
