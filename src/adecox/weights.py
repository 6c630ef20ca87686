"""Weights, characters and the symmetric square decomposition.

A class ``D`` orthogonal to ``C`` determines a weight through its Dynkin
labels ``(-D . alpha_i)_i``; adding multiples of ``K`` or ``C`` does not
change the labels, so the map factors through the quotient by those two
classes.  ``weight_of`` is a dot product with the simple-root covectors the
root system stores; it lives in `roots`, with the one Weyl orbit walker,
`roots._orbit_labels`, which `freudenthal` runs on labels.  The root system
also holds the positive-root closure (each root's coefficients and labels)
and the sparse Cartan rows; the routines here read them and derive neither.

The Weyl dimension formula and Freudenthal's recursion run on integers.  In
a simply laced system, with roots of norm 2, a positive root
``alpha = sum c_i alpha_i`` pairs with a weight ``mu`` as
``<mu, alpha> = sum c_i mu_i``, and when ``lam - mu = sum d_i alpha_i``,
``<lam + rho, lam + rho> - <mu + rho, mu + rho> = sum d_i (lam_i + mu_i + 2)``;
neither needs the inverse Cartan matrix.

The central identity checked by this module: the multiset of weights of the
line bundle sum over all lines (plus eight copies of the zero weight in the
(E, 8) case) has a symmetric square that splits as

    sym2(lines) = freudenthal(2 * lambda_line) + W

where ``W`` is family dependent: empty for ``A``, a single zero weight for
``D``, the ruling weights for ``E`` with ``n <= 6``, the ruling weights plus
seven zero weights for (E, 7), and the 3875-dimensional module plus one zero
weight for (E, 8).
"""

from __future__ import annotations

from functools import lru_cache

from .curves import enumerate_lines, enumerate_rulings
from .lattice import (
    CACHE_MAXSIZE,
    DivisorClass,
    IntersectionLattice,
    _Frozen,
    basis_class,
    sparse_entries,
)
from .roots import RootSystemData, _orbit_labels, _reflect_labels, weight_of

WeightVector = tuple[int, ...]


class WeightMultiset(_Frozen):
    """A finite multiset of weight vectors with positive multiplicities."""

    __slots__ = _fields = ("entries",)

    @staticmethod
    def from_dict(d: dict[WeightVector, int]) -> "WeightMultiset":
        for w, m in d.items():
            if m < 0:
                raise ValueError(f"negative multiplicity {m} at weight {w}")
        return WeightMultiset(tuple(sorted((w, m) for w, m in d.items() if m)))

    def as_dict(self) -> dict[WeightVector, int]:
        return dict(self.entries)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def _merge(self, other: "WeightMultiset", sign: int) -> "WeightMultiset":
        d = self.as_dict()
        for w, m in other.entries:
            d[w] = d.get(w, 0) + sign * m
        return WeightMultiset.from_dict(d)

    def add(self, other: "WeightMultiset") -> "WeightMultiset":
        return self._merge(other, 1)

    def subtract(self, other: "WeightMultiset") -> "WeightMultiset":
        return self._merge(other, -1)


def line_highest_class(lattice: IntersectionLattice) -> DivisorClass:
    """The exceptional class whose weight is the highest line weight."""
    fam = lattice.family
    k = fam.n if fam.kind != "A" else fam.n + 1
    return basis_class(lattice, f"l{k}")


def ruling_highest_class(lattice: IntersectionLattice) -> DivisorClass:
    """The class ``h - l1``; only meaningful for the E family."""
    if lattice.family.kind != "E":
        raise ValueError("ruling weight class is only defined for the E family")
    return basis_class(lattice, "h") - basis_class(lattice, "l1")


def _check_dominant(system: RootSystemData, lam: WeightVector) -> None:
    if len(lam) != system.rank:
        raise ValueError("weight length does not match the root system rank")
    if any(x < 0 for x in lam):
        raise ValueError("weight is not dominant")


def weyl_dim(system: RootSystemData, lam: WeightVector) -> int:
    """Weyl dimension formula, evaluated exactly.

    ``prod <lam + rho, alpha> / prod <rho, alpha>`` over the positive roots,
    with ``<mu, alpha> = sum c_i mu_i`` for ``alpha = sum c_i alpha_i``.
    """
    _check_dominant(system, lam)
    lam_rho = [l + 1 for l in lam]
    num = den = 1
    for coeffs, _ in system.closure:
        num *= sum(c * m for c, m in zip(coeffs, lam_rho) if c)
        den *= sum(coeffs)
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError("dimension formula did not produce an integer")
    return dim


@lru_cache(maxsize=CACHE_MAXSIZE)
def freudenthal(system: RootSystemData, lam: WeightVector) -> WeightMultiset:
    """Full weight multiset of the irreducible module with highest weight lam.

    Freudenthal's formula holds for every semisimple Lie algebra, so a
    decomposable Cartan matrix such as E3 = A2 x A1 needs no split into
    blocks: the recursion runs on the whole root system.

    Steps: enumerate the dominant weights (closure of lam under subtracting
    positive roots while staying dominant, which reaches every dominant
    weight below lam), then visit them in order of increasing depth, writing
    each multiplicity to the whole Weyl orbit of its weight as soon as it is
    known.  Depth vectors (coordinates of lam - mu over the simple roots)
    make the cone membership test exact, and give the norm difference
    ``<lam + rho, lam + rho> - <mu + rho, mu + rho>`` as
    ``sum d_i (lam_i + mu_i + 2)``; ``<nu, alpha> = sum c_i nu_i``.

    The recursion for mu reads mult(mu + k alpha) straight from that one
    table: mu + k alpha lies strictly above mu, and its dominant
    representative lies above it, so the representative has smaller depth
    and its orbit was written earlier; a sum that is not a weight reads 0.
    The highest weight has gap 0 and multiplicity 1.
    """
    _check_dominant(system, lam)
    dom_depth: dict[WeightVector, tuple[int, ...]] = {lam: (0,) * system.rank}
    frontier = [lam]
    while frontier:
        fresh = []
        for mu in frontier:
            d = dom_depth[mu]
            for c, al in system.closure:
                nu = tuple(m - a for m, a in zip(mu, al))
                if all(x >= 0 for x in nu) and nu not in dom_depth:
                    dom_depth[nu] = tuple(x + y for x, y in zip(d, c))
                    fresh.append(nu)
        frontier = fresh

    support = [(al, sparse_entries(c)) for c, al in system.closure]
    mult: dict[WeightVector, int] = {}
    for mu in sorted(dom_depth, key=lambda w: (sum(dom_depth[w]), w)):
        depth = dom_depth[mu]
        acc = 0
        for al, nz in support:
            kmax = min(depth[i] // ci for i, ci in nz)
            for k in range(1, kmax + 1):
                nu = tuple(m + k * a for m, a in zip(mu, al))
                m_nu = mult.get(nu, 0)
                if m_nu:
                    acc += 2 * m_nu * sum(ci * nu[i] for i, ci in nz)
        gap = sum(d * (l + m + 2) for d, l, m in zip(depth, lam, mu))
        value, rem = divmod(acc, gap) if gap else (1, 0)
        if rem or value <= 0:
            raise AssertionError("recursion produced a non-positive multiplicity")
        for w in _orbit_labels(system.cartan_rows, mu):
            mult[w] = value
    return WeightMultiset(tuple(sorted(mult.items())))


def is_weyl_invariant(system: RootSystemData, ms: WeightMultiset) -> bool:
    d = ms.as_dict()
    for w, m in ms.entries:
        for i, row in enumerate(system.cartan_rows):
            t = w[i]
            if t and d.get(_reflect_labels(row, w, t), 0) != m:
                return False
    return True


def _class_weights(system: RootSystemData, classes, what: str) -> dict[WeightVector, int]:
    """One weight per class, each with multiplicity one; two classes of the
    same weight are an error."""
    counts: dict[WeightVector, int] = {}
    for cls in classes:
        w = weight_of(system, cls)
        if w in counts:
            raise AssertionError(f"distinct {what} mapped to the same weight")
        counts[w] = 1
    return counts


@lru_cache(maxsize=CACHE_MAXSIZE)
def line_weight_multiset(system: RootSystemData) -> WeightMultiset:
    """Weights of the line bundle sum: one per line, plus zero^8 for (E, 8)."""
    lattice = system.lattice
    counts = _class_weights(system, enumerate_lines(lattice), "lines")
    if lattice.family.kind == "E" and lattice.family.n == 8:
        zero = (0,) * system.rank
        counts[zero] = counts.get(zero, 0) + 8
    return WeightMultiset.from_dict(counts)


@lru_cache(maxsize=CACHE_MAXSIZE)
def ruling_weight_multiset(system: RootSystemData) -> WeightMultiset:
    rulings = enumerate_rulings(system.lattice)
    return WeightMultiset.from_dict(_class_weights(system, rulings, "rulings"))


def sym2_multiset(ms: WeightMultiset) -> WeightMultiset:
    """Symmetric square of a multiset of weights.

    mult(tau) = sum over unordered pairs mu < nu with mu + nu = tau of
    m(mu) m(nu), plus m(mu)(m(mu)+1)/2 whenever 2 mu = tau.  The total is
    t(t+1)/2 for t the input total.
    """
    items = ms.entries
    out: dict[WeightVector, int] = {}
    for i, (w1, m1) in enumerate(items):
        for j in range(i, len(items)):
            w2, m2 = items[j]
            tau = tuple(a + b for a, b in zip(w1, w2))
            bump = m1 * (m1 + 1) // 2 if i == j else m1 * m2
            out[tau] = out.get(tau, 0) + bump
    result = WeightMultiset.from_dict(out)
    t = ms.total
    if result.total != t * (t + 1) // 2:
        raise AssertionError(f"sym2 total {result.total} != {t * (t + 1) // 2}")
    return result


def _zero_multiset(system: RootSystemData, mult: int) -> WeightMultiset:
    return WeightMultiset.from_dict({(0,) * system.rank: mult})


def expected_w_multiset(system: RootSystemData) -> tuple[WeightMultiset, str]:
    """The predicted complement W of the top module inside sym2(lines)."""
    fam = system.lattice.family
    if fam.kind == "A":
        return WeightMultiset(()), "empty"
    if fam.kind == "D":
        return _zero_multiset(system, 1), "one zero weight"
    if fam.n <= 6:
        return ruling_weight_multiset(system), "ruling weights"
    if fam.n == 7:
        rulings = ruling_weight_multiset(system).add(_zero_multiset(system, 7))
        return rulings, "ruling weights plus zero^7"
    top = freudenthal(system, weight_of(system, ruling_highest_class(system.lattice)))
    return top.add(_zero_multiset(system, 1)), "3875-module plus one zero weight"


def decompose_sym2(system: RootSystemData):
    """Split sym2(line weights) into the top module and its complement.

    Returns ``(v_part, w_part, report)`` where ``v_part`` is the Freudenthal
    multiset of twice the highest line weight, ``w_part`` the exact multiset
    difference, and ``report`` records totals and whether ``w_part`` matches
    the family prediction.
    """
    lines_ms = line_weight_multiset(system)
    sym2 = sym2_multiset(lines_ms)
    lam = tuple(2 * x for x in weight_of(system, line_highest_class(system.lattice)))
    v_part = freudenthal(system, lam)
    w_part = sym2.subtract(v_part)
    expected, description = expected_w_multiset(system)
    report = {
        "family": system.lattice.family.label,
        "line_total": lines_ms.total,
        "sym2_total": sym2.total,
        "v_total": v_part.total,
        "w_total": w_part.total,
        "expected_w": description,
        "w_matches_expected": w_part == expected,
    }
    return v_part, w_part, report


def verify_weight_lemma(system: RootSystemData) -> dict:
    """Check the two module identifications behind the decomposition.

    Part one (all families): the weights of the irreducible generated by the
    highest line weight are exactly the line weights.  Part two (E family):
    for n <= 7 the module generated by the ``h - l1`` weight is the
    complement W that `expected_w_multiset` predicts (the ruling weights,
    plus seven zero weights at n = 7); at n = 8 it strictly contains the
    rulings, with multiplicity one each.
    """
    lines_ms = line_weight_multiset(system)
    pi_line = freudenthal(system, weight_of(system, line_highest_class(system.lattice)))
    report: dict = {
        "family": system.lattice.family.label,
        "line_module_total": pi_line.total,
        "line_module_matches": pi_line == lines_ms,
    }
    ok = report["line_module_matches"]
    fam = system.lattice.family
    if fam.kind == "E":
        rulings = ruling_weight_multiset(system)
        pi_r = freudenthal(system, weight_of(system, ruling_highest_class(system.lattice)))
        report["ruling_module_total"] = pi_r.total
        report["ruling_count"] = rulings.total
        if fam.n <= 7:
            good = pi_r == expected_w_multiset(system)[0]
            report["ruling_relation"] = "equal" if fam.n <= 6 else "equal plus zero^7"
        else:
            d = pi_r.as_dict()
            good = (
                all(d.get(w, 0) == 1 for w, _ in rulings.entries)
                and pi_r.total > rulings.total
            )
            report["ruling_relation"] = "strict containment, rulings simple"
        report["ruling_module_matches"] = good
        ok = ok and good
    report["ok"] = ok
    return report
