"""Total coordinate ring generators, relations, graded dimensions, characters."""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from adecox import (
    DivisorClass,
    SurfaceConfigD,
    SurfaceFamily,
    anticanonical_shift,
    basis_class,
    build_lattice,
    cox_generators,
    cox_presentation,
    degree,
    dn_ideal,
    enumerate_lines,
    enumerate_roots,
    enumerate_rulings,
    git_hilbert,
    graded_piece_dim,
    relation_census,
    section_dim,
    torus_character,
    verify_hilbert,
)
from adecox import cox as cox_module
from adecox.cox import _class_monomials, _monomial_table, _piece_dim
from adecox.curves import KINDS
from adecox.lattice import pair
from adecox.linalg import rational_rank


def _lat(kind, n):
    return build_lattice(SurfaceFamily(kind, n))


def _points(n):
    return SurfaceConfigD(tuple(range(n)))


GENERATOR_COUNTS = [
    ("A", 3, 4),
    ("D", 4, 8),
    ("E", 4, 10),
    ("E", 6, 27),
    ("E", 7, 56),
    ("E", 8, 242),
]


@pytest.mark.parametrize("kind,n,count", GENERATOR_COUNTS)
def test_generator_counts(kind, n, count):
    lat = _lat(kind, n)
    gens = cox_generators(lat)
    assert len(gens) == count
    names = [name for name, _ in gens]
    assert len(set(names)) == count
    for _, cls in gens:
        assert degree(lat, cls) == 1


def test_e8_extra_generators_carry_the_shift_class():
    lat = _lat("E", 8)
    gens = dict(cox_generators(lat))
    shift = anticanonical_shift(lat)
    assert shift == lat.C - lat.K
    assert gens["k1"] == shift
    assert gens["k2"] == shift


def test_d_generators_pair_lines_with_fiber_complements():
    lat = _lat("D", 3)
    gens = dict(cox_generators(lat))
    f = basis_class(lat, "f")
    for i in range(1, 4):
        li = basis_class(lat, f"l{i}")
        assert gens[f"x{i}"] == li
        assert gens[f"y{i}"] == f - li


def test_section_dim_d_family():
    lat = _lat("D", 4)
    f = basis_class(lat, "f")
    l1 = basis_class(lat, "l1")
    assert section_dim(lat, f * 2 + l1 * 3) == 3
    assert section_dim(lat, f - l1 * 2) == 0
    assert section_dim(lat, f) == 2
    assert section_dim(lat, DivisorClass((0,) * lat.rank)) == 1
    assert section_dim(lat, f - l1) == 1


def test_section_dim_a_family():
    lat = _lat("A", 3)
    l1 = basis_class(lat, "l1")
    l2 = basis_class(lat, "l2")
    assert section_dim(lat, l1 + l2 * 4) == 1
    assert section_dim(lat, l1 - l2) == 0
    assert section_dim(lat, DivisorClass((0,) * lat.rank)) == 1


def test_section_dim_e_family_supported_shapes():
    e7 = _lat("E", 7)
    assert section_dim(e7, basis_class(e7, "l1")) == 1
    assert section_dim(e7, basis_class(e7, "h") - basis_class(e7, "l1")) == 2
    assert section_dim(e7, anticanonical_shift(e7)) == 3

    e8 = _lat("E", 8)
    assert section_dim(e8, anticanonical_shift(e8)) == 2
    assert section_dim(e8, anticanonical_shift(e8) * 2) == 4


def test_section_dim_e_family_rejects_other_classes():
    e6 = _lat("E", 6)
    with pytest.raises(ValueError):
        section_dim(e6, anticanonical_shift(e6))
    with pytest.raises(ValueError):
        section_dim(e6, basis_class(e6, "h"))


def test_section_dim_requires_orthogonality_to_c():
    d4 = _lat("D", 4)
    s = basis_class(d4, "s")
    with pytest.raises(ValueError):
        section_dim(d4, s)
    e6 = _lat("E", 6)
    with pytest.raises(ValueError):
        section_dim(e6, basis_class(e6, "l7"))


def test_config_validation():
    with pytest.raises(ValueError):
        SurfaceConfigD((0, 1, 1))
    config = SurfaceConfigD((0, "1/2", 2))
    assert config.points[1] == Fraction(1, 2)


def test_dn_ideal_d3_coefficients():
    lat = _lat("D", 3)
    pres = dn_ideal(lat, _points(3))
    assert len(pres.relations) == 1
    rel = pres.relations[0]
    assert rel.cls == basis_class(lat, "f")
    coeffs = [c for c, _ in rel.terms]
    assert coeffs == [Fraction(-1), Fraction(2), Fraction(-1)]
    monomials = [m for _, m in rel.terms]
    assert monomials == [(0, 3), (1, 4), (2, 5)]


def test_dn_ideal_d4_coefficients():
    lat = _lat("D", 4)
    pres = dn_ideal(lat, _points(4))
    assert len(pres.relations) == 2
    second = pres.relations[1]
    assert [c for c, _ in second.terms] == [Fraction(-2), Fraction(3), Fraction(-1)]
    assert [m for _, m in second.terms] == [(0, 4), (1, 5), (3, 7)]


def test_dn_ideal_small_n_is_free():
    lat = _lat("D", 2)
    pres = dn_ideal(lat, _points(2))
    assert pres.relations == ()


def test_dn_ideal_errors():
    with pytest.raises(ValueError):
        dn_ideal(_lat("E", 6), _points(6))
    with pytest.raises(ValueError):
        dn_ideal(_lat("D", 4), _points(3))


def test_cox_presentation_dispatch():
    a2 = cox_presentation(_lat("A", 2))
    assert len(a2.generators) == 3
    assert a2.relations == ()
    d3 = cox_presentation(_lat("D", 3), _points(3))
    assert len(d3.relations) == 1
    with pytest.raises(ValueError):
        cox_presentation(_lat("E", 6))


def test_graded_piece_dim_examples():
    d3 = _lat("D", 3)
    pres3 = cox_presentation(d3, _points(3))
    f3 = basis_class(d3, "f")
    assert graded_piece_dim(pres3, d3, f3) == 2

    d4 = _lat("D", 4)
    pres4 = cox_presentation(d4, _points(4))
    f4 = basis_class(d4, "f")
    assert graded_piece_dim(pres4, d4, f4 * 2) == 3
    assert graded_piece_dim(pres4, d4, DivisorClass((0,) * d4.rank)) == 1
    assert graded_piece_dim(pres4, d4, -f4) == 0

    a2 = _lat("A", 2)
    presa = cox_presentation(a2)
    target = basis_class(a2, "l1") + basis_class(a2, "l2") * 2
    assert graded_piece_dim(presa, a2, target) == 1


def test_graded_piece_dim_respects_cap(monkeypatch):
    d3 = _lat("D", 3)
    pres = cox_presentation(d3, _points(3))
    f = basis_class(d3, "f")
    monkeypatch.setattr(cox_module, "MONOMIAL_CAP", 1)
    with pytest.raises(ValueError):
        graded_piece_dim(pres, d3, f)


def test_graded_piece_dim_past_the_old_enumeration_cap():
    # Degree 12 in 10 variables and degree 8 in 14 variables: 293,930 and
    # 203,490 monomials in all, of which only 210 have the class k*f.
    for n, k in ((5, 6), (7, 4)):
        lat = _lat("D", n)
        pres = cox_presentation(lat, _seeded_points(n, seed=n))
        f = basis_class(lat, "f")
        assert len(_class_monomials(pres, (f * k).coords)) == 210
        assert graded_piece_dim(pres, lat, f * k) == k + 1


def test_piece_dim_does_not_depend_on_the_listing_order():
    # _piece_dim numbers the columns itself, so the listers may give their
    # monomials and shifts in any order.
    rng = random.Random(7)
    for n in range(3, 7):
        lat = _lat("D", n)
        pres = cox_presentation(lat, _seeded_points(n, seed=n))
        f, l1, ln = (basis_class(lat, label) for label in ("f", "l1", f"l{n}"))
        for cls in (f * 2, f * 3, f * 3 - l1, f * 2 + ln, f * 4 - l1 - ln):
            monomials = _class_monomials(pres, cls.coords)
            shift_lists = [
                _class_monomials(pres, tuple(a - b for a, b in zip(cls.coords, rel_cls)))
                for rel_cls, _, _ in pres._groups
            ]
            for monos in (monomials, *shift_lists):
                rng.shuffle(monos)
            assert _piece_dim(pres, monomials, shift_lists) == graded_piece_dim(pres, lat, cls)


def test_d6_at_10f_is_its_standard_monomial_count_quickly():
    # 3,003 monomials and 5,148 relation rows; an elimination that fills in
    # takes 11-13 s here.
    lat = _lat("D", 6)
    pres = cox_presentation(lat, _points(6))
    f = basis_class(lat, "f")
    start = time.perf_counter()
    dim = graded_piece_dim(pres, lat, f * 10)
    elapsed = time.perf_counter() - start
    assert dim == _standard_monomials(lat, f * 10)[0] == 11
    assert elapsed < 5


def test_graded_piece_dim_refuses_by_count_before_listing():
    # 10f on D20 has C(29, 19) = 20,030,010 monomials; 600f on D3 has only
    # C(602, 2) = 180,901, but of degree 1200: 217,081,200 positions.
    for n, k in ((20, 10), (3, 600)):
        lat = _lat("D", n)
        pres = cox_presentation(lat, _points(n))
        f = basis_class(lat, "f")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the cap"):
            graded_piece_dim(pres, lat, f * k)
        assert time.perf_counter() - start < 0.5


def test_class_monomials_cap_counts_positions(monkeypatch):
    # 2f on D3: six monomials of degree 4; l1 + 2 l2 on A2: one of degree 3.
    d3, a2 = _lat("D", 3), _lat("A", 2)
    cases = [
        (cox_presentation(d3, _points(3)), (basis_class(d3, "f") * 2).coords, 24),
        (cox_presentation(a2), (basis_class(a2, "l1") + basis_class(a2, "l2") * 2).coords, 3),
    ]
    for pres, target, positions in cases:
        monkeypatch.setattr(cox_module, "MONOMIAL_CAP", positions)
        assert sum(map(len, _class_monomials(pres, target))) == positions
        monkeypatch.setattr(cox_module, "MONOMIAL_CAP", positions - 1)
        with pytest.raises(ValueError, match=f" {positions} positions"):
            _class_monomials(pres, target)


def test_monomial_table_cap_counts_positions(monkeypatch):
    # D6 to degree 6: 12 C(18, 5) = 102,816 positions, the sum of k C(11 + k, k).
    lat = _lat("D", 6)
    pres = cox_presentation(lat, _points(6))
    monkeypatch.setattr(cox_module, "MONOMIAL_CAP", 102_816)
    levels = _monomial_table(pres, 6)
    assert sum(len(mono) for level in levels for monos in level.values() for mono in monos) == 102_816
    monkeypatch.setattr(cox_module, "MONOMIAL_CAP", 102_815)
    with pytest.raises(ValueError, match="102816 positions"):
        _monomial_table(pres, 6)


def test_verify_hilbert_refuses_a_table_past_the_cap_quickly():
    points = ",".join(str(i) for i in range(7))
    argv = [sys.executable, "-m", "adecox", "verify", "--which", "hilbert", "--family", "D",
            "--n", "7", "--points", points, "--max-degree", "9"]
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "exceeds the cap" in done.stderr
    assert elapsed < 10


def test_verify_git_refuses_a_ray_past_the_cap_quickly():
    argv = [sys.executable, "-m", "adecox", "verify", "--which", "git", "--family", "D",
            "--n", "3", "--points", "0,1,2", "--max-degree", "100000"]
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert "exceeds the cap" in done.stderr
    assert elapsed < 10


def test_verify_hilbert_d3():
    lat = _lat("D", 3)
    report = verify_hilbert(cox_presentation(lat, _points(3)), lat, 6)
    assert report["ok"]
    assert report["mismatches"] == []
    assert report["classes_checked"] > 100


def test_verify_hilbert_d3_generic_points():
    lat = _lat("D", 3)
    config = SurfaceConfigD((Fraction(1, 3), Fraction(-2, 7), 5))
    report = verify_hilbert(cox_presentation(lat, config), lat, 4)
    assert report["ok"]


def test_verify_hilbert_a4():
    lat = _lat("A", 4)
    report = verify_hilbert(cox_presentation(lat), lat, 5)
    assert report["ok"]
    assert report["mismatches"] == []


def test_verify_hilbert_refuses_a_negative_degree():
    lat = _lat("A", 4)
    with pytest.raises(ValueError, match="nonnegative"):
        verify_hilbert(cox_presentation(lat), lat, -1)


CENSUS_CASES = [
    ("E", 4, "ruling", (3, 2, 1)),
    ("E", 5, "ruling", (4, 2, 2)),
    ("E", 6, "ruling", (5, 2, 3)),
    ("E", 7, "ruling", (6, 2, 4)),
    ("E", 7, "shift", (28, 3, 25)),
    ("E", 8, "shift", (2, 2, 0)),
    ("E", 8, "double-shift", (123, 4, 119)),
    ("D", 4, "ruling", (4, 2, 2)),
    ("D", 6, "ruling", (6, 2, 4)),
]


@pytest.mark.parametrize("kind,n,which,expected", CENSUS_CASES)
def test_relation_census(kind, n, which, expected):
    lat = _lat(kind, n)
    if which == "ruling":
        if kind == "D":
            target = lat.C
        else:
            target = basis_class(lat, "h") - basis_class(lat, "l1")
    elif which == "shift":
        target = anticanonical_shift(lat)
    else:
        target = anticanonical_shift(lat) * 2
    census = relation_census(lat, target)
    assert (census.monomials, census.sections, census.relations) == expected


def test_relation_census_rejects_unsupported_targets():
    lat = _lat("E", 6)
    with pytest.raises(ValueError):
        relation_census(lat, basis_class(lat, "l1"))


def _accepts(fn, lat, d):
    try:
        fn(lat, d)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "kind,n",
    [("E", n) for n in range(3, 9)] + [("D", n) for n in range(2, 10)] + [("A", n) for n in range(1, 9)],
)
def test_supported_classes_are_lines_rulings_and_the_shift_list(kind, n):
    """Candidates: every enumerated class and the pairwise sums of the roots,
    lines and shift classes (E8's 2160 rulings are not summed in pairs)."""
    lat = _lat(kind, n)
    lines = enumerate_lines(lat).as_set()
    rulings = enumerate_rulings(lat).as_set()
    shift = anticanonical_shift(lat)
    extra = set()
    if kind == "E" and n >= 7:
        extra = {shift} if n == 7 else {shift, shift * 2}
    summands = sorted(enumerate_roots(lat).as_set() | lines | extra)
    candidates = set(summands) | rulings
    for i, a in enumerate(summands):
        candidates.update(a + b for b in summands[i:])
    if kind == "E":
        assert {d for d in candidates if _accepts(section_dim, lat, d)} == lines | rulings | extra
    assert {d for d in candidates if _accepts(relation_census, lat, d)} == rulings | extra


def test_support_test_checks_orthogonality_first():
    e6 = _lat("E", 6)
    # h - l7 has the ruling numbers (D.D, D.K) = (0, -2) but meets C = l7.
    target = basis_class(e6, "h") - basis_class(e6, "l7")
    assert (pair(e6, target, target), pair(e6, target, e6.K)) == KINDS["rulings"]
    for fn in (section_dim, relation_census):
        with pytest.raises(ValueError, match="orthogonal to C"):
            fn(e6, target)
        with pytest.raises(ValueError, match="unsupported"):
            fn(e6, basis_class(e6, "l1") * 2)


def test_torus_character_invariant_class():
    lat = _lat("D", 4)
    reduced, weight = torus_character(lat, basis_class(lat, "f"))
    assert reduced == DivisorClass((0,) * lat.rank)
    assert weight == (0, 0, 0, 0)


def test_torus_character_e8_shift_is_unseen_by_the_small_torus():
    lat = _lat("E", 8)
    reduced, weight = torus_character(lat, anticanonical_shift(lat))
    assert weight == (0,) * 8
    assert reduced != DivisorClass((0,) * lat.rank)


def test_torus_characters_separate_e6_generators():
    lat = _lat("E", 6)
    chars = {torus_character(lat, cls) for _, cls in cox_generators(lat)}
    assert len(chars) == 27


def test_git_hilbert_d_family():
    lat = _lat("D", 4)
    f = basis_class(lat, "f")
    s = basis_class(lat, "s")
    assert git_hilbert(lat, f, 5) == [1, 2, 3, 4, 5, 6]
    assert git_hilbert(lat, s, 5) == [1, 2, 3, 4, 5, 6]
    pres = cox_presentation(lat, _points(4))
    assert git_hilbert(lat, f, 3, presentation=pres) == [1, 2, 3, 4]


def test_git_hilbert_a_family():
    lat = _lat("A", 3)
    l1 = basis_class(lat, "l1")
    assert git_hilbert(lat, l1, 4) == [1, 1, 1, 1, 1]


def test_git_hilbert_errors():
    e6 = _lat("E", 6)
    with pytest.raises(ValueError):
        git_hilbert(e6, basis_class(e6, "l1"), 3)
    d4 = _lat("D", 4)
    with pytest.raises(ValueError):
        git_hilbert(d4, basis_class(d4, "l1"), 3)
    with pytest.raises(ValueError):
        git_hilbert(d4, basis_class(d4, "f"), -1)


# ------------------------------------------------------------------
# Differential oracle: the monomial bucketing that graded_piece_dim used
# before class-targeted enumeration.  It lists every monomial of a degree
# and groups them by class, so it is only run on small cases.


def _seeded_points(n, seed):
    rng = random.Random(seed)
    points = set()
    while len(points) < n:
        q = rng.randint(1, 7)
        points.add(Fraction(rng.randint(-5 * q, 5 * q), q))
    return SurfaceConfigD(tuple(sorted(points)))


def _old_degree_buckets(presentation, deg):
    """All degree-``deg`` monomials as generator-index tuples, by class."""
    classes = [g.cls for g in presentation.generators]
    buckets = {}
    zero = DivisorClass((0,) * presentation.lattice.rank)
    for mono in combinations_with_replacement(range(len(classes)), deg):
        total = zero
        for i in mono:
            total = total + classes[i]
        buckets.setdefault(total, []).append(mono)
    return buckets


def _old_graded_dim(presentation, lattice, d, buckets):
    """Monomial count minus the rank of dense relation * monomial rows."""
    deg = degree(lattice, d)
    monomials = buckets[deg].get(d, [])
    if not monomials:
        return 0
    index = {mono: j for j, mono in enumerate(monomials)}
    rows = []
    for rel in presentation.relations:
        shift_deg = deg - degree(lattice, rel.cls)
        if shift_deg < 0:
            continue
        for shift in buckets[shift_deg].get(d - rel.cls, []):
            row = [Fraction(0)] * len(monomials)
            for coeff, mono in rel.terms:
                row[index[tuple(sorted(mono + shift))]] += coeff
            rows.append(row)
    return len(monomials) - rational_rank(rows)


ORACLE_CASES = [("D", n) for n in range(2, 6)] + [("A", n) for n in range(1, 5)]


@pytest.mark.parametrize("kind,n", ORACLE_CASES)
def test_new_monomial_sources_match_the_old_bucketing(kind, n):
    max_degree = 5
    lat = _lat(kind, n)
    pres = cox_presentation(lat, _seeded_points(n, seed=10 * n) if kind == "D" else None)
    buckets = [_old_degree_buckets(pres, deg) for deg in range(max_degree + 1)]
    levels = _monomial_table(pres, max_degree)
    report = verify_hilbert(pres, lat, max_degree)
    from_table = {tuple(e["class"]): e["graded"] for e in report["classes"]}
    assert len(from_table) == sum(len(b) for b in buckets)
    for deg, bucket in enumerate(buckets):
        assert set(levels[deg]) == {cls.coords for cls in bucket}
        for cls, monos in bucket.items():
            # Both listers give sorted generator-index tuples, each once.
            assert sorted(levels[deg][cls.coords]) == monos
            assert sorted(_class_monomials(pres, cls.coords)) == monos
            dim = _old_graded_dim(pres, lat, cls, buckets)
            assert graded_piece_dim(pres, lat, cls) == dim
            assert from_table[cls.coords] == dim
    # Classes with no monomials of their degree: nudged in an l coordinate.
    nudge = basis_class(lat, "l1") - basis_class(lat, "l2")
    for deg in range(max_degree + 1):
        for cls in buckets[deg]:
            moved = cls + nudge * (deg + 1)
            assert _class_monomials(pres, moved.coords) == []


# ------------------------------------------------------------------
# Standard-monomial oracle for the D family.  Ordered so that x_i y_i
# leads (its coefficient t_1 - t_2 is never 0), the relations have pairwise
# coprime leading terms x_i y_i (i >= 3), so they are a Groebner basis
# (Buchberger's first criterion) and a piece's dimension is the number of
# its monomials with no factor x_i y_i, i >= 3.  No rank is computed.


def _standard_monomials(lattice, cls):
    """``(standard, all)`` monomial counts of ``a f + sum c_i l_i`` on D.

    A monomial is its y exponents (a multiset of size a); the x exponents
    follow as ``c_i + y_i`` and must be nonnegative.
    """
    n = lattice.family.n
    a, s, c = cls.coords[0], cls.coords[1], cls.coords[2:]
    assert s == 0
    standard = total = 0
    for ys in combinations_with_replacement(range(n), a):
        y = [ys.count(i) for i in range(n)]
        x = [ci + yi for ci, yi in zip(c, y)]
        if min(x) >= 0:
            total += 1
            standard += all(min(x[i], y[i]) == 0 for i in range(2, n))
    return standard, total


@pytest.mark.parametrize("n", range(3, 9))
def test_graded_piece_dim_matches_the_standard_monomials(n):
    lat = _lat("D", n)
    f, l1, ln = (basis_class(lat, label) for label in ("f", "l1", f"l{n}"))
    classes = [cls for k in (1, 2, 3) for cls in (f * k, f * k - l1, f * k + ln, f * k - l1 - ln)]
    for config in (_points(n), _seeded_points(n, seed=n)):
        pres = dn_ideal(lat, config)
        carrying = 0
        for cls in classes:
            standard, total = _standard_monomials(lat, cls)
            assert graded_piece_dim(pres, lat, cls) == standard, cls
            carrying += standard < total
        assert carrying >= 8
