"""Weights, characters and the symmetric square decomposition.

A class ``D`` orthogonal to ``C`` determines a weight through its Dynkin
labels ``(-D . alpha_i)_i``; adding multiples of ``K`` or ``C`` does not
change the labels, so the map factors through the quotient by those two
classes.  ``weight_of`` is a dot product with the simple-root covectors the
root system stores; it lives in `roots`, with `roots._dominant_labels`,
which walks a weight up to the dominant weight of its orbit.  The root
system also holds the positive roots, one ``(coefficients, labels,
support)`` triple each, and the sparse Cartan rows; the routines here read
them and derive none of them.

The Weyl dimension formula and Freudenthal's recursion run on integers.  In
a simply laced system, with roots of norm 2, a positive root
``alpha = sum c_i alpha_i`` pairs with a weight ``mu`` as
``<mu, alpha> = sum c_i mu_i``, and when ``lam - mu = sum d_i alpha_i``,
``<lam + rho, lam + rho> - <mu + rho, mu + rho> = sum d_i (lam_i + mu_i + 2)``;
neither needs the inverse Cartan matrix.

Each weight is conjugate to exactly one dominant weight (Humphreys,
Introduction to Lie Algebras and Representation Theory, 13.2), so a Weyl
invariant multiset is known from its dominant part, a `DominantCharacter`.
`freudenthal` computes multiplicities at dominant weights only, reading
each term at the dominant weight that `roots._dominant_labels` walks up to,
and returns them as one.  A total is ``sum m(mu) |W| / |W_mu|`` over the
dominant weights, with the orbit sizes read off the positive-root heights.
An enumerated multiset is compared with a character by `_matches`: each of
its weights is read at its dominant weight, and the totals must agree.  No
module is written out over its orbits.  Where a multiset is read at its
dominant weights alone (the lines in `decompose_sym2`, the rulings in
`expected_w_character`), it is first checked to be Weyl invariant.

The central identity checked by this module: the multiset of weights of the
line bundle sum over all lines (plus eight copies of the zero weight in the
(E, 8) case) has a symmetric square that splits as

    sym2(lines) = freudenthal(2 * lambda_line) + W,

compared at dominant weights, where ``W`` is family dependent: empty for
``A``, a single zero weight for ``D``, the ruling weights for ``E`` with
``n <= 6``, the ruling weights plus seven zero weights for (E, 7), and the
3875-dimensional module plus one zero weight for (E, 8).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

from .curves import enumerate_lines, enumerate_rulings
from .lattice import (
    CACHE_MAXSIZE,
    DivisorClass,
    IntersectionLattice,
    _Frozen,
    basis_class,
)
from .roots import RootSystemData, _dominant_labels, _reflect_labels, weight_of

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


class DominantCharacter(_Frozen):
    """A Weyl-invariant multiset of weights, kept at its dominant weights.

    ``entries`` pairs each dominant weight with its multiplicity, sorted;
    ``total`` is the size of the whole multiset, each multiplicity times the
    size of its weight's orbit.
    """

    __slots__ = _fields = ("entries", "total")


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
    for coeffs, _, _ in system.positive_roots:
        num *= sum(c * m for c, m in zip(coeffs, lam_rho) if c)
        den *= sum(coeffs)
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError("dimension formula did not produce an integer")
    return dim


def _orbit_size(system: RootSystemData, mu: WeightVector) -> int:
    """``|W| / |W_mu|`` for a dominant ``mu``.

    The stabilizer of ``mu`` is the parabolic subgroup ``W_J``,
    ``J = {i : mu_i = 0}``, and ``|W_J|`` is the product of
    ``(ht alpha + 1) / ht alpha`` over the positive roots supported on ``J``
    (Kostant 1959).  Those are the roots that pair to 0 with ``mu``, so the
    quotient is the same product over the roots that pair positively.
    """
    support = [i for i, m in enumerate(mu) if m]
    num = den = 1
    for coeffs, _, _ in system.positive_roots:
        if any(coeffs[i] for i in support):
            height = sum(coeffs)
            num *= height + 1
            den *= height
    size, rem = divmod(num, den)
    if rem:
        raise AssertionError("orbit size formula did not produce an integer")
    return size


def _character(system: RootSystemData, dominant: dict[WeightVector, int]) -> DominantCharacter:
    entries = WeightMultiset.from_dict(dominant).entries
    return DominantCharacter(entries, sum(m * _orbit_size(system, w) for w, m in entries))


def _matches(system: RootSystemData, ms: WeightMultiset, char: DominantCharacter) -> bool:
    """Whether ``ms`` is the whole multiset ``char`` keeps at its dominant
    weights: each weight of ``ms`` has the multiplicity ``char`` gives its
    dominant weight, so ``ms`` lies inside it, and the totals agree, so
    nothing of it is missing."""
    rows, reps, mult = system.cartan_rows, {}, dict(char.entries)
    return ms.total == char.total and all(mult.get(_dominant_labels(rows, w, reps), 0) == m for w, m in ms.entries)


@lru_cache(maxsize=CACHE_MAXSIZE)
def freudenthal(system: RootSystemData, lam: WeightVector) -> DominantCharacter:
    """The dominant character of the irreducible module with highest weight
    lam: the multiplicity of each of its dominant weights.

    Freudenthal's formula holds for every semisimple Lie algebra, so a
    decomposable Cartan matrix such as E3 = A2 x A1 needs no split into
    blocks: the recursion runs on the whole root system.

    Steps: enumerate the dominant weights (closure of lam under subtracting
    positive roots while staying dominant, which reaches every dominant
    weight below lam), then visit them in order of increasing depth.  Depth
    vectors (coordinates of lam - mu over the simple roots) make the cone
    membership test exact, and give the norm difference
    ``<lam + rho, lam + rho> - <mu + rho, mu + rho>`` as
    ``sum d_i (lam_i + mu_i + 2)``; ``<nu, alpha> = sum c_i nu_i``, and
    ``<mu + k alpha, alpha> = <mu, alpha> + 2 k``.

    Multiplicities are Weyl invariant, so the recursion for mu reads
    mult(mu + k alpha) at the dominant weight of its orbit, which
    `_dominant_labels` walks up to.  That weight lies above mu + k alpha,
    hence strictly above mu, so it has smaller depth and was visited
    earlier; a sum that is not a weight reaches no dominant weight below lam
    and reads 0.  The alpha-string through a weight is unbroken, so the first
    k that reads 0 ends the terms of alpha.
    """
    _check_dominant(system, lam)
    dom_depth: dict[WeightVector, tuple[int, ...]] = {lam: (0,) * system.rank}
    frontier = [lam]
    while frontier:
        fresh = []
        for mu in frontier:
            d = dom_depth[mu]
            for c, al, _ in system.positive_roots:
                if min(map(sub, mu, al)) >= 0:
                    nu = tuple(map(sub, mu, al))
                    if nu not in dom_depth:
                        dom_depth[nu] = tuple(map(add, d, c))
                        fresh.append(nu)
        frontier = fresh

    rows, reps = system.cartan_rows, {}
    # lam, of depth 0, comes first: it has multiplicity 1.
    mult: dict[WeightVector, int] = {lam: 1}
    for mu in sorted(dom_depth, key=lambda w: (sum(dom_depth[w]), w))[1:]:
        depth = dom_depth[mu]
        height = sum(depth)
        acc = 0
        for _, al, nz in system.positive_roots:
            # The largest k with k alpha <= lam - mu, which the height bounds.
            kmax = height
            for i, ci in nz:
                q = depth[i] // ci
                if q < kmax:
                    kmax = q
            nu = mu
            for k in range(1, kmax + 1):
                nu = tuple(map(add, nu, al))
                m_nu = mult.get(_dominant_labels(rows, nu, reps), 0)
                if not m_nu:
                    break
                acc += 2 * m_nu * (sum(ci * mu[i] for i, ci in nz) + 2 * k)
        gap = sum(d * (l + m + 2) for d, l, m in zip(depth, lam, mu))
        value, rem = divmod(acc, gap)
        if rem or value <= 0:
            raise AssertionError("recursion produced a non-positive multiplicity")
        mult[mu] = value
    return _character(system, mult)


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


def expected_w_character(system: RootSystemData) -> tuple[DominantCharacter | None, str]:
    """The predicted complement W of the top module inside sym2(lines), at
    its dominant weights.  On E with n <= 7 it is read off the enumerated
    rulings, and is None when they are not Weyl invariant, so that no
    complement matches."""
    fam = system.lattice.family
    zero = (0,) * system.rank
    if fam.kind == "A":
        return _character(system, {}), "empty"
    if fam.kind == "D":
        return _character(system, {zero: 1}), "one zero weight"
    if fam.n == 8:
        top = dict(freudenthal(system, weight_of(system, ruling_highest_class(system.lattice))).entries)
        top[zero] = top.get(zero, 0) + 1
        return _character(system, top), "3875-module plus one zero weight"
    rulings, description = ruling_weight_multiset(system), "ruling weights"
    top = {w: m for w, m in rulings.entries if min(w) >= 0}
    if fam.n == 7:
        top[zero], description = top.get(zero, 0) + 7, "ruling weights plus zero^7"
    if not is_weyl_invariant(system, rulings):
        return None, description
    return _character(system, top), description


def decompose_sym2(system: RootSystemData):
    """Split sym2(line weights) into the top module and its complement.

    Returns ``(v_part, w_part, report)``: the dominant characters of the
    module of twice the highest line weight and of the exact difference, and
    a report of the totals and whether ``w_part`` matches the family
    prediction.  Every multiset compared is Weyl invariant, so each is
    compared at the dominant weights below twice the highest line weight,
    where the top module lives; the sym2 total shows that nothing lies
    elsewhere.  At a dominant tau, with m the line multiplicities,

        sym2(tau) = (sum_mu m(mu) m(tau - mu) + m(tau / 2)) / 2.
    """
    lines_ms = line_weight_multiset(system)
    if not is_weyl_invariant(system, lines_ms):
        raise AssertionError("line weights are not Weyl invariant")
    m = lines_ms.as_dict()
    lam = tuple(2 * x for x in weight_of(system, line_highest_class(system.lattice)))
    v_part = freudenthal(system, lam)
    v_dom = dict(v_part.entries)
    sym2: dict[WeightVector, int] = {}
    for tau in v_dom:
        acc = sum(k * m.get(tuple(map(sub, tau, w)), 0) for w, k in lines_ms.entries)
        if not any(t % 2 for t in tau):
            acc += m.get(tuple(t // 2 for t in tau), 0)
        sym2[tau] = acc // 2
    sym2_total = _character(system, sym2).total
    t = lines_ms.total
    if sym2_total != t * (t + 1) // 2:
        raise AssertionError(f"sym2 total {sym2_total} != {t * (t + 1) // 2}")
    w_part = _character(system, {tau: s - v_dom[tau] for tau, s in sym2.items()})
    expected, description = expected_w_character(system)
    report = {
        "family": system.lattice.family.label,
        "line_total": t,
        "sym2_total": sym2_total,
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
    complement W that `expected_w_character` predicts (the ruling weights,
    plus seven zero weights at n = 7); at n = 8 it strictly contains the
    rulings, with multiplicity one each.
    """
    lines_ms = line_weight_multiset(system)
    pi_line = freudenthal(system, weight_of(system, line_highest_class(system.lattice)))
    report: dict = {
        "family": system.lattice.family.label,
        "line_module_total": pi_line.total,
        "line_module_matches": _matches(system, lines_ms, pi_line),
    }
    ok = report["line_module_matches"]
    fam = system.lattice.family
    if fam.kind == "E":
        rulings = ruling_weight_multiset(system)
        pi_r = freudenthal(system, weight_of(system, ruling_highest_class(system.lattice)))
        report["ruling_module_total"] = pi_r.total
        report["ruling_count"] = rulings.total
        if fam.n <= 7:
            good = pi_r == expected_w_character(system)[0]
            report["ruling_relation"] = "equal" if fam.n <= 6 else "equal plus zero^7"
        else:
            rows, reps, mult = system.cartan_rows, {}, dict(pi_r.entries)
            good = (
                all(mult.get(_dominant_labels(rows, w, reps), 0) == 1 for w, _ in rulings.entries)
                and pi_r.total > rulings.total
            )
            report["ruling_relation"] = "strict containment, rulings simple"
        report["ruling_module_matches"] = good
        ok = ok and good
    report["ok"] = ok
    return report
