"""Weights, multiplicities and the symmetric square decomposition."""

import json
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adecox import (
    DivisorClass,
    SurfaceFamily,
    WeightMultiset,
    basis_class,
    build_lattice,
    build_root_system,
    classify_type,
    decompose_sym2,
    enumerate_lines,
    enumerate_rulings,
    freudenthal,
    is_weyl_invariant,
    line_highest_class,
    line_weight_multiset,
    ruling_highest_class,
    ruling_weight_multiset,
    sym2_multiset,
    verify_weight_lemma,
    weight_of,
    weyl_dim,
)
from adecox import weights as weights_module
from adecox.cli import main
from adecox.curves import _enumerate_kind
from adecox.lattice import CACHE_MAXSIZE, pair, sparse_entries
from adecox.roots import _dominant_labels, _orbit_labels, _positive_root_coeffs, weyl_orbit
from adecox.weights import _matches, _orbit_size, expected_w_character
from dense_linalg import invert


def _system(kind, n):
    return build_root_system(build_lattice(SurfaceFamily(kind, n)))


def test_weight_multiset_basics():
    ms = WeightMultiset.from_dict({(1, 0): 2, (0, 1): 1})
    assert ms.total == 3
    assert ms.as_dict() == {(1, 0): 2, (0, 1): 1}
    assert WeightMultiset.from_dict({(0,): 0}) == WeightMultiset(())


def test_weight_multiset_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        WeightMultiset.from_dict({(0,): -1})


def test_weight_of_line_and_ruling_seeds_e6():
    system = _system("E", 6)
    lat = system.lattice
    line = line_highest_class(lat)
    assert line == basis_class(lat, "l6")
    assert weight_of(system, line) == (0, 0, 0, 0, 0, 1)
    ruling = ruling_highest_class(lat)
    assert ruling == basis_class(lat, "h") - basis_class(lat, "l1")
    assert weight_of(system, ruling) == (0, 1, 0, 0, 0, 0)


def test_ruling_highest_class_only_for_e():
    with pytest.raises(ValueError):
        ruling_highest_class(build_lattice(SurfaceFamily("D", 4)))


def test_weight_of_invariant_classes_is_zero():
    system = _system("D", 4)
    lat = system.lattice
    zero = (0,) * 4
    assert weight_of(system, lat.C) == zero
    assert weight_of(system, lat.K) == zero


WEYL_DIMS = [
    ("E", 6, (0, 0, 0, 0, 0, 1), 27),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1), 56),
    ("E", 6, (0, 0, 0, 0, 0, 2), 351),
    ("A", 2, (1, 1), 8),
    ("D", 4, (0, 1, 0, 0), 8),
]


@pytest.mark.parametrize("kind,n,lam,expected", WEYL_DIMS)
def test_weyl_dim(kind, n, lam, expected):
    assert weyl_dim(_system(kind, n), lam) == expected


def test_weyl_dim_adjoint_of_e8():
    system = _system("E", 8)
    theta = weight_of(system, line_highest_class(system.lattice))
    assert weyl_dim(system, theta) == 248
    doubled = tuple(2 * x for x in theta)
    assert weyl_dim(system, doubled) == 27000


def test_weyl_dim_e8_second_summand():
    system = _system("E", 8)
    lat = system.lattice
    ruling = weight_of(system, basis_class(lat, "h") - basis_class(lat, "l1"))
    assert weyl_dim(system, ruling) == 3875


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(_system("A", 2), (1, -1))


def test_freudenthal_a2_doubled_fundamental():
    system = _system("A", 2)
    ms = freudenthal(system, (2, 0))
    assert ms.total == 6
    assert all(m == 1 for _, m in ms.entries)


def test_freudenthal_adjoint_multiplicities():
    # The adjoint representation has the zero weight with multiplicity rank.
    system = _system("A", 2)
    adj = freudenthal(system, (1, 1))
    assert adj.total == 8
    assert dict(adj.entries)[(0, 0)] == 2

    d4 = _system("D", 4)
    adj4 = freudenthal(d4, (0, 0, 1, 0))
    assert adj4.total == 28
    assert dict(adj4.entries)[(0, 0, 0, 0)] == 4


def test_freudenthal_d4_vector_square():
    system = _system("D", 4)
    ms = freudenthal(system, (0, 2, 0, 0))
    assert ms.total == 35


def test_freudenthal_matches_weyl_dim():
    for kind, n, lam in [("A", 3, (1, 0, 1)), ("D", 4, (1, 0, 1, 1)), ("E", 6, (0, 0, 0, 0, 0, 1))]:
        system = _system(kind, n)
        assert freudenthal(system, lam).total == weyl_dim(system, lam)


def test_line_weight_multiset_sizes():
    for kind, n, expected in [("E", 6, 27), ("E", 7, 56), ("D", 4, 8), ("A", 3, 4)]:
        system = _system(kind, n)
        assert line_weight_multiset(system).total == expected


def test_line_weight_multiset_e8_pads_zero():
    system = _system("E", 8)
    ms = line_weight_multiset(system)
    assert ms.total == 248
    assert ms.as_dict()[(0,) * 8] == 8


def test_ruling_weight_multiset_sizes():
    assert ruling_weight_multiset(_system("E", 6)).total == 27
    assert ruling_weight_multiset(_system("E", 7)).total == 126


def test_sym2_multiset_counts():
    ms = WeightMultiset.from_dict({(1,): 1, (-1,): 1})
    sq = sym2_multiset(ms)
    assert sq.as_dict() == {(2,): 1, (0,): 1, (-2,): 1}

    tripled = WeightMultiset.from_dict({(0,): 3})
    assert sym2_multiset(tripled).as_dict() == {(0,): 6}


SYM2_TOTALS = [
    ("E", 3, 21, 18, 3),
    ("E", 4, 55, 50, 5),
    ("E", 5, 136, 126, 10),
    ("E", 6, 378, 351, 27),
    ("E", 7, 1596, 1463, 133),
    ("D", 4, 36, 35, 1),
    ("D", 5, 55, 54, 1),
    ("A", 3, 10, 10, 0),
]


@pytest.mark.parametrize("kind,n,total,v_total,w_total", SYM2_TOTALS)
def test_decompose_sym2_totals(kind, n, total, v_total, w_total):
    system = _system(kind, n)
    v_part, w_part, report = decompose_sym2(system)
    assert report["sym2_total"] == total
    assert v_part.total == v_total
    assert w_part.total == w_total
    assert report["w_matches_expected"]


def test_decompose_sym2_e8():
    v_part, w_part, report = decompose_sym2(_system("E", 8))
    assert report["sym2_total"] == 30876
    assert v_part.total == 27000
    assert w_part.total == 3876
    assert report["w_matches_expected"]


def test_decompose_sym2_d40():
    # Far past the rank the Fraction reference reaches (D9): the recursion
    # there reads non-dominant multiplicities from the orbit table.
    n = 40
    system = _system("D", n)
    v_part, w_part, report = decompose_sym2(system)
    assert (report["sym2_total"], v_part.total, w_part.total) == (n * (2 * n + 1), 2 * n * n + n - 1, 1)
    assert report["w_matches_expected"]
    lam = tuple(2 * x for x in weight_of(system, line_highest_class(system.lattice)))
    assert weyl_dim(system, lam) == freudenthal(system, lam).total


def test_verify_weight_lemma_reports():
    for kind, n in [("A", 2), ("D", 3), ("E", 5), ("E", 6)]:
        report = verify_weight_lemma(_system(kind, n))
        assert report["ok"]
        assert report["line_module_matches"]
    e6 = verify_weight_lemma(_system("E", 6))
    assert e6["ruling_relation"] == "equal"
    e7 = verify_weight_lemma(_system("E", 7))
    assert e7["ruling_relation"] == "equal plus zero^7"
    e8 = verify_weight_lemma(_system("E", 8))
    assert e8["ruling_relation"] == "strict containment, rulings simple"
    for n in (3, 4, 5):
        report = verify_weight_lemma(_system("E", n))
        assert report["ok"] and report["ruling_relation"] == "equal"


def _e8_lines_with(change):
    """The E8 line multiset with ``change`` applied to its multiplicities."""
    system = _system("E", 8)
    mult = line_weight_multiset(system).as_dict()
    change(mult)
    return system, WeightMultiset.from_dict(mult)


def test_e8_line_weights_without_their_zero_weights_match_only_in_weight(capsys, monkeypatch):
    # Each of the 240 root weights has multiplicity 1, as the adjoint module
    # gives it; only the total, 240 against 248, tells them apart, in the
    # lemma and in the CLI's exit code.
    system, spoilt = _e8_lines_with(lambda mult: mult.pop((0,) * 8))
    module = freudenthal(system, weight_of(system, line_highest_class(system.lattice)))
    assert spoilt.total == 240 and not _matches(system, spoilt, module)
    monkeypatch.setattr(weights_module, "line_weight_multiset", lambda _system: spoilt)
    report = verify_weight_lemma(system)
    assert report["line_module_matches"] is False and report["ok"] is False
    assert main(["verify", "--which", "weights", "--family", "E", "--n", "8"]) == 1
    entries = json.loads(capsys.readouterr().out)["results"]
    assert [entry["line_module_matches"] for entry in entries] == [False]


def test_e8_line_weights_with_one_zero_moved_match_only_in_total(monkeypatch):
    # One unit moved from the zero weight to a root weight that is not
    # dominant keeps the total at 248; only the reading per weight (2 at
    # that root weight and 7 at zero, against 1 and 8) tells them apart.
    def move(mult):
        mult[(0,) * 8] -= 1
        mult[next(w for w in sorted(mult) if min(w) < 0)] += 1

    system, spoilt = _e8_lines_with(move)
    module = freudenthal(system, weight_of(system, line_highest_class(system.lattice)))
    assert spoilt.total == module.total == 248 and not _matches(system, spoilt, module)
    monkeypatch.setattr(weights_module, "line_weight_multiset", lambda _system: spoilt)
    report = verify_weight_lemma(system)
    assert report["line_module_matches"] is False and report["ok"] is False


@pytest.mark.parametrize(
    "kind,n,description,total",
    [("A", n, "empty", 0) for n in range(1, 6)]
    + [("D", n, "one zero weight", 1) for n in range(2, 7)]
    + [("E", n, "ruling weights", total) for n, total in ((3, 3), (4, 5), (5, 10), (6, 27))]
    + [("E", 7, "ruling weights plus zero^7", 133), ("E", 8, "3875-module plus one zero weight", 3876)],
)
def test_expected_w_multiset_descriptions_and_totals(kind, n, description, total):
    system = _system(kind, n)
    expected, said = expected_w_character(system)
    assert (said, expected.total) == (description, total)
    full = _full_expected_w(system)
    assert is_weyl_invariant(system, full)
    assert _ref_expand(system, expected) == full


def _full_expected_w(system):
    """The predicted complement as a whole multiset: from the enumerated
    rulings, or from the recursion written out over its orbits on (E, 8)."""
    fam = system.lattice.family

    def zeros(k):
        return WeightMultiset.from_dict({(0,) * system.rank: k})

    if fam.kind == "A":
        return WeightMultiset(())
    if fam.kind == "D":
        return zeros(1)
    if fam.n == 8:
        module = freudenthal(system, weight_of(system, ruling_highest_class(system.lattice)))
        return _sum(_ref_expand(system, module), zeros(1))
    rulings = ruling_weight_multiset(system)
    return rulings if fam.n <= 6 else _sum(rulings, zeros(7))


def _sum(*parts):
    total = Counter()
    for ms in parts:
        total.update(ms.as_dict())
    return WeightMultiset.from_dict(total)


def _ref_expand(system, char):
    """The whole multiset of a dominant character: each multiplicity written
    over the breadth-first orbit of its weight, not the package's walker."""
    cartan = _cartan(system)
    return WeightMultiset.from_dict({w: m for mu, m in char.entries for w in _ref_orbit_labels(cartan, mu)})


def test_decompose_sym2_refuses_line_weights_that_are_not_weyl_invariant(monkeypatch):
    # Their symmetric square would not be read off its dominant weights.
    system = _system("D", 4)
    spoilt = WeightMultiset(line_weight_multiset(system).entries[1:])
    monkeypatch.setattr(weights_module, "line_weight_multiset", lambda _system: spoilt)
    with pytest.raises(AssertionError, match="line weights are not Weyl invariant"):
        decompose_sym2(system)


def test_rulings_that_are_not_weyl_invariant_match_no_complement(monkeypatch):
    # Dropping a weight that is not dominant leaves the dominant part as it
    # was; only the invariance check tells the spoilt rulings apart.
    system = _system("E", 6)
    rulings = ruling_weight_multiset(system)
    assert decompose_sym2(system)[2]["w_matches_expected"]
    drop = next(w for w, _ in rulings.entries if min(w) < 0)
    spoilt = WeightMultiset(tuple((w, m) for w, m in rulings.entries if w != drop))
    monkeypatch.setattr(weights_module, "ruling_weight_multiset", lambda _system: spoilt)
    assert expected_w_character(system)[0] is None
    assert decompose_sym2(system)[2]["w_matches_expected"] is False


@pytest.mark.parametrize("fn", [weyl_dim, freudenthal])
def test_weyl_dim_and_freudenthal_refuse_the_same_weights(fn):
    system = _system("A", 2)
    with pytest.raises(ValueError, match="^weight length does not match the root system rank$"):
        fn(system, (1, 0, 0))
    with pytest.raises(ValueError, match="^weight is not dominant$"):
        fn(system, (1, -1))


def test_is_weyl_invariant():
    system = _system("A", 2)
    invariant = _ref_expand(system, freudenthal(system, (1, 1)))
    assert is_weyl_invariant(system, invariant)
    lopsided = WeightMultiset.from_dict({(1, 1): 1})
    assert not is_weyl_invariant(system, lopsided)


def test_module_caches_are_bounded():
    system = _system("A", 1)
    assert freudenthal.cache_info().maxsize == CACHE_MAXSIZE
    for k in range(CACHE_MAXSIZE + 20):
        assert freudenthal(system, (k,)).total == k + 1
    assert freudenthal.cache_info().currsize <= CACHE_MAXSIZE


def test_surface_caches_are_bounded():
    for n in range(1, 101):
        lat = build_lattice(SurfaceFamily("A", n))
        enumerate_lines(lat)
        enumerate_rulings(lat)
    # 71 root systems, past the bound; stopping A and D at rank 33 keeps it cheap.
    families = [("A", n) for n in range(1, 34)] + [("D", n) for n in range(2, 34)]
    for kind, n in families + [("E", n) for n in range(3, 9)]:
        system = _system(kind, n)
        line_weight_multiset(system)
        ruling_weight_multiset(system)
    caches = (
        build_lattice,
        _enumerate_kind,
        build_root_system,
        line_weight_multiset,
        ruling_weight_multiset,
        freudenthal,
    )
    for cache in caches:
        assert cache.cache_info().maxsize == CACHE_MAXSIZE
        assert cache.cache_info().currsize <= CACHE_MAXSIZE


# --------------------------------------------------------------------------
# Reference: the weight kernel as it was before the integer identities, kept
# only here as a differential oracle.  Positive roots come from the closure
# that recomputes each pairing from the Cartan matrix, weights from the
# generic intersection pairing, and both the dimension formula and
# Freudenthal's recursion take Fraction inner products through the inverse
# Cartan matrix.  The dense Cartan matrix comes from the intersection
# pairing of the simple roots, not from the root system.


def _cartan(system):
    lat, alphas = system.lattice, system.simple_roots
    return tuple(tuple(-pair(lat, a, b) for b in alphas) for a in alphas)


def _ref_components(cartan):
    """Connected components of the Dynkin diagram, each as sorted node indices."""
    comps = []
    seen = set()
    for i in range(len(cartan)):
        if i in seen:
            continue
        seen.add(i)
        comp = [i]
        for v in comp:
            for w, x in enumerate(cartan[v]):
                if x and w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def _ref_positive_root_coeffs(cartan):
    rank = len(cartan)
    simple = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    known = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for c in frontier:
            pairing = [sum(cartan[i][j] * c[i] for i in range(rank) if c[i]) for j in range(rank)]
            for j in range(rank):
                if pairing[j] == -1:
                    cc = list(c)
                    cc[j] += 1
                    tup = tuple(cc)
                    if tup not in known:
                        known.add(tup)
                        fresh.append(tup)
        frontier = fresh
    return sorted(known)


def _root_class(system, coeffs):
    """The class ``sum c_i alpha_i`` over the simple roots."""
    total = DivisorClass((0,) * system.lattice.rank)
    for c, a in zip(coeffs, system.simple_roots):
        if c:
            total = total + c * a
    return total


def _ref_positive_roots(system):
    return [_root_class(system, coeffs) for coeffs in _ref_positive_root_coeffs(_cartan(system))]


def _ref_weight_of(system, d):
    return tuple(-pair(system.lattice, d, a) for a in system.simple_roots)


def _ref_ip(cinv, u, v):
    rank = len(cinv)
    total = Fraction(0)
    for i in range(rank):
        if u[i]:
            total += u[i] * sum(cinv[i][j] * v[j] for j in range(rank) if v[j])
    return total


def _ref_weyl_dim(system, lam):
    cinv = invert(_cartan(system))
    rho = (1,) * system.rank
    lam_rho = tuple(x + 1 for x in lam)
    result = Fraction(1)
    for alpha in _ref_positive_roots(system):
        a = _ref_weight_of(system, alpha)
        result *= _ref_ip(cinv, lam_rho, a) / _ref_ip(cinv, rho, a)
    assert result.denominator == 1
    return int(result)


def _ref_dominant_rep(cartan, nu):
    labels = list(nu)
    rank = len(labels)
    while True:
        i = next((i for i in range(rank) if labels[i] < 0), None)
        if i is None:
            return tuple(labels)
        t = labels[i]
        for j in range(rank):
            if cartan[i][j]:
                labels[j] -= t * cartan[i][j]


def _ref_orbit_labels(cartan, start):
    rank = len(cartan)
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for w in frontier:
            for i in range(rank):
                t = w[i]
                if t == 0:
                    continue
                y = tuple(w[j] - t * cartan[i][j] if cartan[i][j] else w[j] for j in range(rank))
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def _ref_freudenthal_block(cartan, lam):
    rank = len(cartan)
    cinv = invert(cartan)
    pos_coeffs = _ref_positive_root_coeffs(cartan)
    pos_labels = [
        tuple(sum(cartan[i][j] * c[i] for i in range(rank) if c[i]) for j in range(rank))
        for c in pos_coeffs
    ]
    dom_depth = {lam: (0,) * rank}
    frontier = [lam]
    while frontier:
        fresh = []
        for mu in frontier:
            d = dom_depth[mu]
            for c, al in zip(pos_coeffs, pos_labels):
                nu = tuple(m - a for m, a in zip(mu, al))
                if all(x >= 0 for x in nu) and nu not in dom_depth:
                    dom_depth[nu] = tuple(x + y for x, y in zip(d, c))
                    fresh.append(nu)
        frontier = fresh
    lam_rho = tuple(x + 1 for x in lam)
    lam_norm = _ref_ip(cinv, lam_rho, lam_rho)
    mult = {}
    for mu in sorted(dom_depth, key=lambda w: (sum(dom_depth[w]), w)):
        if mu == lam:
            mult[mu] = 1
            continue
        depth = dom_depth[mu]
        acc = Fraction(0)
        for c, al in zip(pos_coeffs, pos_labels):
            k = 1
            while all(d - k * ci >= 0 for d, ci in zip(depth, c)):
                nu = tuple(m + k * a for m, a in zip(mu, al))
                m_nu = mult.get(_ref_dominant_rep(cartan, nu), 0)
                if m_nu:
                    acc += 2 * m_nu * _ref_ip(cinv, nu, al)
                k += 1
        mu_rho = tuple(m + 1 for m in mu)
        value = acc / (lam_norm - _ref_ip(cinv, mu_rho, mu_rho))
        assert value.denominator == 1 and value > 0
        mult[mu] = int(value)
    full = {}
    for mu, m in mult.items():
        for w in _ref_orbit_labels(cartan, mu):
            full[w] = m
    return full


def _ref_freudenthal(system, lam):
    result = {(0,) * system.rank: 1}
    cartan = _cartan(system)
    for comp in _ref_components(cartan):
        sub_cartan = tuple(tuple(cartan[i][j] for j in comp) for i in comp)
        block = _ref_freudenthal_block(sub_cartan, tuple(lam[i] for i in comp))
        merged = {}
        for base, m0 in result.items():
            for w, m in block.items():
                labels = list(base)
                for pos, val in zip(comp, w):
                    labels[pos] = val
                merged[tuple(labels)] = m0 * m
        result = merged
    return WeightMultiset.from_dict(result)


ORACLE_SYSTEMS = (
    [("E", n) for n in range(3, 9)] + [("D", n) for n in range(2, 10)] + [("A", n) for n in range(1, 9)]
)


def _oracle_weights(system, rng):
    """The line weight, its double, the E ruling weight and two seeded small
    dominant weights (one or two nonzero labels of size 1 or 2, reference
    dimension at most 3000)."""
    line = _ref_weight_of(system, line_highest_class(system.lattice))
    lams = [line, tuple(2 * x for x in line)]
    if system.lattice.family.kind == "E":
        lams.append(_ref_weight_of(system, ruling_highest_class(system.lattice)))
    seeded = []
    while len(seeded) < 2:
        lam = [0] * system.rank
        for i in rng.sample(range(system.rank), min(system.rank, rng.randint(1, 2))):
            lam[i] = rng.randint(1, 2)
        if _ref_weyl_dim(system, lam) <= 3000:
            seeded.append(tuple(lam))
    return lams + seeded


# Decomposable root systems: E3 = A2 x A1 and D2 = A1 x A1.  The reference
# Freudenthal splits them into blocks, the kernel does not, so every label
# up to 3 is compared.
DECOMPOSABLE = (("E", 3), ("D", 2))


@pytest.mark.parametrize("kind,n", ORACLE_SYSTEMS)
def test_weight_kernel_matches_fraction_reference(kind, n):
    system = _system(kind, n)
    # Each root the system holds, written out as a class: its labels are the
    # class's pairing and its support the nonzero coefficients, and the
    # classes are the reference closure's, compared as a set.
    held = set()
    for coeffs, labels, support in system.positive_roots:
        root = _root_class(system, coeffs)
        assert labels == _ref_weight_of(system, root), coeffs
        assert support == tuple((i, c) for i, c in enumerate(coeffs) if c), coeffs
        held.add(root)
    assert len(held) == len(system.positive_roots)
    assert held == set(_ref_positive_roots(system))
    for line in enumerate_lines(system.lattice):
        assert weight_of(system, line) == _ref_weight_of(system, line)
    lams = _oracle_weights(system, random.Random(f"{kind}{n}"))
    if (kind, n) in DECOMPOSABLE:
        lams += list(product(range(4), repeat=system.rank))
    for lam in lams:
        assert weyl_dim(system, lam) == _ref_weyl_dim(system, lam), lam
        module, ref = freudenthal(system, lam), _ref_freudenthal(system, lam)
        assert (_ref_expand(system, module), module.total) == (ref, ref.total), lam


@pytest.mark.parametrize("kind,n", ORACLE_SYSTEMS)
def test_orbit_size_formula_matches_the_orbit_walk(kind, n):
    # Every dominant weight below twice the line weight.
    system = _system(kind, n)
    lam = weight_of(system, line_highest_class(system.lattice))
    for mu, _ in freudenthal(system, tuple(2 * x for x in lam)).entries:
        assert _orbit_size(system, mu) == len(_orbit_labels(system.cartan_rows, system.lower_neighbours, mu)), mu


WALK_SYSTEMS = [("E", n) for n in range(3, 9)] + [("D", n) for n in range(2, 9)] + [("A", n) for n in range(1, 7)]


@pytest.mark.parametrize("kind,n", WALK_SYSTEMS)
def test_orbit_walk_reaches_each_weight_once(kind, n):
    # The reverse search keeps no set of weights seen, so a repeat would
    # show as a duplicate; the breadth-first closure is the oracle.
    system = _system(kind, n)
    cartan = _cartan(system)
    lat = system.lattice
    line = weight_of(system, line_highest_class(lat))
    starts = [line, *(mu for mu, _ in freudenthal(system, tuple(2 * x for x in line)).entries)]
    if kind == "E":
        starts.append(weight_of(system, ruling_highest_class(lat)))
    for mu in starts:
        orbit = _orbit_labels(system.cartan_rows, system.lower_neighbours, mu)
        assert len(orbit) == len(set(orbit)), mu
        assert set(orbit) == _ref_orbit_labels(cartan, mu), mu
        assert len(orbit) == _orbit_size(system, mu), mu


@pytest.mark.parametrize("kind,n", [("E", 8), ("E", 6), ("D", 6), ("A", 5)])
def test_orbit_walk_from_a_non_dominant_state_carries_the_coordinates(kind, n):
    # A line state ``labels + coords`` is walked up to the dominant state
    # and then down: every line comes once, each beside its own labels.
    system = _system(kind, n)
    lat, rank = system.lattice, system.rank
    lines = enumerate_lines(lat)
    seed = next(c for c in lines if min(weight_of(system, c)) < 0)
    top = _dominant_labels(system.orbit_moves, weight_of(system, seed) + seed.coords, {})
    assert top[:rank] == _ref_dominant_rep(_cartan(system), weight_of(system, seed))
    assert top[:rank] == weight_of(system, DivisorClass(top[rank:]))
    states = _orbit_labels(system.orbit_moves, system.lower_neighbours, top)
    assert len(states) == len(set(states)) == len(lines)
    assert {DivisorClass(s[rank:]) for s in states} == lines.as_set()
    for s in states:
        assert s[:rank] == weight_of(system, DivisorClass(s[rank:]))


@pytest.mark.parametrize("kind,n,order", [("E", 6, 51_840), ("E", 7, 2_903_040), ("E", 8, 696_729_600)])
def test_weyl_group_order_is_the_orbit_size_of_a_regular_weight(kind, n, order):
    system = _system(kind, n)
    assert _orbit_size(system, (1,) * system.rank) == order


@pytest.mark.parametrize("kind,n", ORACLE_SYSTEMS)
def test_dominant_walk_matches_the_rescanning_reference(kind, n):
    # One table of walked weights is shared by all the walks, as in the
    # recursion, and a fresh one is used for each.
    system = _system(kind, n)
    cartan = _cartan(system)
    rng = random.Random(f"walk {kind}{n}")
    reps = {}
    for _ in range(200):
        w = tuple(rng.randint(-3, 3) for _ in range(system.rank))
        top = _ref_dominant_rep(cartan, w)
        assert min(top) >= 0
        assert _dominant_labels(system.cartan_rows, w, reps) == top
        assert _dominant_labels(system.cartan_rows, w, {}) == top


@pytest.mark.parametrize("kind,n", ORACLE_SYSTEMS)
def test_dominant_sym2_character_expands_to_the_full_square(kind, n):
    system = _system(kind, n)
    v_part, w_part, report = decompose_sym2(system)
    v_full, w_full = _ref_expand(system, v_part), _ref_expand(system, w_part)
    assert (v_full.total, w_full.total) == (v_part.total, w_part.total) == (report["v_total"], report["w_total"])
    assert _sum(v_full, w_full) == sym2_multiset(line_weight_multiset(system))
    lam = weight_of(system, line_highest_class(system.lattice))
    assert v_part == freudenthal(system, tuple(2 * x for x in lam))


def test_weight_of_rejects_wrong_coordinate_length():
    system = _system("E", 6)
    with pytest.raises(ValueError):
        weight_of(system, basis_class(build_lattice(SurfaceFamily("E", 7)), "h"))


def _positive_root_count(type_label):
    count = 0
    for part in type_label.split("x"):
        kind, k = part[0], int(part[1:])
        count += {"A": k * (k + 1) // 2, "D": k * (k - 1), "E": {6: 36, 7: 63, 8: 120}.get(k)}[kind]
    return count


# The type comes from the heights of the highest roots, so the root count
# of each named component checks the closure and the type independently.
@pytest.mark.parametrize(
    "kind,n", [("E", n) for n in range(3, 9)] + [("D", n) for n in range(2, 25)] + [("A", n) for n in range(1, 41)]
)
def test_positive_root_coeffs_carry_cartan_labels(kind, n):
    system = _system(kind, n)
    cartan = _cartan(system)
    rank = system.rank
    pos = _positive_root_coeffs(cartan)
    assert len(pos) == _positive_root_count(classify_type(system))
    for c, labels in pos:
        assert labels == tuple(sum(cartan[i][j] * c[i] for i in range(rank)) for j in range(rank))
    assert system.positive_roots == tuple((c, labels, sparse_entries(c)) for c, labels in pos)


SMALL_SYSTEMS = [("A", n) for n in range(1, 6)] + [("D", n) for n in range(2, 6)] + [("E", n) for n in range(3, 6)]


@st.composite
def _small_dominant(draw):
    """A system of rank <= 5 and a dominant weight with labels in 0..2, at
    most two of them nonzero so the module stays small."""
    kind, n = draw(st.sampled_from(SMALL_SYSTEMS))
    system = _system(kind, n)
    lam = [0] * system.rank
    for i in draw(st.sets(st.integers(0, system.rank - 1), max_size=2)):
        lam[i] = draw(st.integers(1, 2))
    return system, tuple(lam)


@settings(max_examples=60, deadline=None)
@given(_small_dominant())
def test_freudenthal_properties(case):
    system, lam = case
    char = freudenthal(system, lam)
    full = _ref_expand(system, char)
    assert char.total == full.total == weyl_dim(system, lam)
    assert is_weyl_invariant(system, full)
    assert dict(char.entries)[lam] == 1


@pytest.mark.parametrize("kind,n", [("E", 8), ("D", 6), ("A", 5)])
def test_weight_routines_read_the_closure_the_root_system_holds(monkeypatch, kind, n):
    # A built root system carries its positive roots and sparse Cartan
    # rows; with the closure function raising everywhere it is bound, every
    # weight routine still answers, with the same results.
    system = _system(kind, n)
    lat = system.lattice
    lam = weight_of(system, line_highest_class(lat))
    doubled = tuple(2 * x for x in lam)

    def answers():
        freudenthal.cache_clear()
        module = freudenthal(system, lam)
        orbit = weyl_orbit(system, line_highest_class(lat))
        lines = line_weight_multiset(system)
        return module, weyl_dim(system, doubled), is_weyl_invariant(system, lines), _matches(system, lines, module), orbit

    before = answers()
    assert before[2] and before[3]

    def boom(_cartan):
        raise RuntimeError("the positive-root closure was run again")

    # Unpickling derives the closure again, so the clone is taken first.
    clone = pickle.loads(pickle.dumps(system))
    bound = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "adecox"]
    bound = [m for m in bound if hasattr(m, "_positive_root_coeffs")]
    assert bound
    for module in bound:
        monkeypatch.setattr(module, "_positive_root_coeffs", boom)
    assert answers() == before
    assert system.cartan_rows == tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in _cartan(system))
    assert (clone.positive_roots, clone.cartan_rows) == (system.positive_roots, system.cartan_rows)
