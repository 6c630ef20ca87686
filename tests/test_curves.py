"""Enumeration of roots, lines and rulings by exact lattice search."""

import subprocess
import sys
from collections import Counter
from itertools import product
from math import isqrt

import pytest

from adecox import (
    ClassSet,
    DivisorClass,
    SurfaceFamily,
    basis_class,
    build_lattice,
    enumerate_lines,
    enumerate_roots,
    enumerate_rulings,
    pair,
    pairs_of_lines_summing_to,
)
from adecox import selftest
from adecox.curves import ENUMERATORS, _sum_square_tuples
from box_search import full_box_classes

LINE_COUNTS_E = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
RULING_COUNTS_E = {3: 3, 4: 5, 5: 10, 6: 27, 7: 126, 8: 2160}
ROOT_COUNTS_E = {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}


@pytest.mark.parametrize("n", sorted(LINE_COUNTS_E))
def test_e_family_counts(n):
    lat = build_lattice(SurfaceFamily("E", n))
    assert len(enumerate_lines(lat)) == LINE_COUNTS_E[n]
    assert len(enumerate_rulings(lat)) == RULING_COUNTS_E[n]
    assert len(enumerate_roots(lat)) == ROOT_COUNTS_E[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_d_family_counts(n):
    lat = build_lattice(SurfaceFamily("D", n))
    assert len(enumerate_lines(lat)) == 2 * n
    assert len(enumerate_roots(lat)) == 2 * n * (n - 1)
    rulings = enumerate_rulings(lat)
    assert list(rulings) == [lat.C]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_family_counts(n):
    lat = build_lattice(SurfaceFamily("A", n))
    assert len(enumerate_lines(lat)) == n + 1
    assert len(enumerate_roots(lat)) == n * (n + 1)
    assert len(enumerate_rulings(lat)) == 0


@pytest.mark.parametrize(
    "kind,n",
    [("E", 6), ("E", 7), ("D", 4), ("A", 3)],
)
def test_defining_equations_hold(kind, n):
    """Every enumerated class satisfies its defining intersection numbers."""
    lat = build_lattice(SurfaceFamily(kind, n))
    cases = [
        (enumerate_roots(lat), -2, 0),
        (enumerate_lines(lat), -1, -1),
        (enumerate_rulings(lat), 0, -2),
    ]
    for classes, self_int, k_int in cases:
        for d in classes:
            assert pair(lat, d, d) == self_int
            assert pair(lat, d, lat.K) == k_int
            assert pair(lat, d, lat.C) == 0


def test_results_are_sorted_and_duplicate_free():
    lat = build_lattice(SurfaceFamily("E", 6))
    lines = list(enumerate_lines(lat))
    assert lines == sorted(lines)
    assert len(lines) == len(set(lines))


def test_e3_line_classes_explicitly():
    lat = build_lattice(SurfaceFamily("E", 3))
    h = basis_class(lat, "h")
    ls = [basis_class(lat, f"l{i}") for i in range(1, 4)]
    expected = set(ls)
    expected.update(h - ls[i] - ls[j] for i in range(3) for j in range(i + 1, 3))
    assert enumerate_lines(lat).as_set() == expected


def test_roots_closed_under_negation():
    lat = build_lattice(SurfaceFamily("D", 4))
    roots = enumerate_roots(lat).as_set()
    assert {-r for r in roots} == roots


def test_pairs_of_lines_summing_to_ruling_e6():
    lat = build_lattice(SurfaceFamily("E", 6))
    lines = enumerate_lines(lat)
    ruling = basis_class(lat, "h") - basis_class(lat, "l1")
    assert pairs_of_lines_summing_to(lat, ruling, lines) == 5


def test_pairs_of_lines_summing_to_fiber_d4():
    lat = build_lattice(SurfaceFamily("D", 4))
    lines = enumerate_lines(lat)
    assert pairs_of_lines_summing_to(lat, lat.C, lines) == 4


def test_pairs_of_lines_for_large_targets():
    lat7 = build_lattice(SurfaceFamily("E", 7))
    shift7 = lat7.C - lat7.K
    assert pairs_of_lines_summing_to(lat7, shift7, enumerate_lines(lat7)) == 28

    lat8 = build_lattice(SurfaceFamily("E", 8))
    target8 = (lat8.C - lat8.K) * 2
    assert pairs_of_lines_summing_to(lat8, target8, enumerate_lines(lat8)) == 120


@pytest.mark.parametrize("kind,n", [("E", 6), ("E", 7), ("D", 5), ("A", 3)])
def test_pairs_of_lines_matches_counting_every_pair(kind, n):
    """Targets: every ruling, every line and every sum of two lines."""
    lat = build_lattice(SurfaceFamily(kind, n))
    lines = enumerate_lines(lat).classes
    sums = Counter(a + b for i, a in enumerate(lines) for b in lines[i:])
    for target in set(sums) | set(lines) | enumerate_rulings(lat).as_set():
        assert pairs_of_lines_summing_to(lat, target, enumerate_lines(lat)) == sums[target]


def test_pairs_count_zero_when_no_decomposition():
    lat = build_lattice(SurfaceFamily("A", 2))
    lines = enumerate_lines(lat)
    target = DivisorClass((0, 1, 1, 0))
    assert pairs_of_lines_summing_to(lat, target, lines) == 1
    missing = DivisorClass((1, 0, 0, 0))
    assert pairs_of_lines_summing_to(lat, missing, lines) == 0


def test_sum_square_tuples_match_brute_force():
    # m = 5 and 6 brute-force zero tails spanning three or more coordinates.
    for m in range(7):
        for q in range(-1, 8):
            top = isqrt(max(q, 0))
            squares = [
                b for b in product(range(-top, top + 1), repeat=m) if sum(x * x for x in b) == q
            ]
            for s in range(-3, 4):
                want = [b for b in squares if sum(b) == s]
                assert list(_sum_square_tuples(m, s, q)) == want, (m, s, q)


def test_d_roots_match_closed_form():
    n = 40
    lat = build_lattice(SurfaceFamily("D", n))
    f = basis_class(lat, "f")
    ls = [basis_class(lat, f"l{i}") for i in range(1, n + 1)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    want = {sign * (ls[i] - ls[j]) for i, j in pairs for sign in (1, -1)}
    want |= {sign * (f - ls[i] - ls[j]) for i, j in pairs for sign in (1, -1)}
    roots = enumerate_roots(lat).classes
    assert set(roots) == want
    assert list(roots) == sorted(roots)


def test_a_roots_match_closed_form():
    n = 60
    lat = build_lattice(SurfaceFamily("A", n))
    ls = [basis_class(lat, f"l{i}") for i in range(1, n + 2)]
    want = {a - b for a in ls for b in ls if a != b}
    roots = enumerate_roots(lat).classes
    assert set(roots) == want
    assert list(roots) == sorted(roots)


@pytest.mark.parametrize("kind,n", selftest.BOX_SURFACES + (("E", 5),))
def test_box_search_matches_full_box_and_enumerators(kind, n):
    """C9's solved-pivot box search finds what the full-box scan finds.

    E5 is too slow for the selftest, so its enumerations are checked
    against the box search here only.
    """
    lat = build_lattice(SurfaceFamily(kind, n))
    for what, enumerate_kind in ENUMERATORS.items():
        solved = selftest._naive_classes(lat, what)
        assert solved == full_box_classes(lat, what), what
        assert solved == enumerate_kind(lat).as_set(), what


def test_box_search_check_fails_on_a_dropped_class(monkeypatch):
    def drop_one_d4_root(lat):
        found = enumerate_roots(lat)
        if lat.family != SurfaceFamily("D", 4):
            return found
        return ClassSet(lat, "roots", found.classes[1:])

    monkeypatch.setitem(ENUMERATORS, "roots", drop_one_d4_root)
    check = next(c for c in selftest.CHECKS if c.check_id == "C9")
    result = check.run()
    assert not result.passed
    assert result.details == "(D,4) roots differ from the box search"


def test_enumeration_depth_is_not_bounded_by_the_recursion_limit():
    # 400 coordinates per tuple, under a recursion limit of 150 frames.
    code = (
        "import sys; sys.setrecursionlimit(150)\n"
        "from adecox import SurfaceFamily, build_lattice, enumerate_lines\n"
        "print(len(enumerate_lines(build_lattice(SurfaceFamily('A', 400)))),"
        " len(enumerate_lines(build_lattice(SurfaceFamily('D', 400)))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["401", "800"]
