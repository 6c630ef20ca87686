"""Construction and invariants of the surface intersection lattices."""

import random

import pytest

from adecox import (
    DivisorClass,
    SurfaceFamily,
    basis_class,
    build_lattice,
    degree,
    pair,
)
from adecox.lattice import covector
from dense_linalg import det, symmetric_signature

ALL_FAMILIES = (
    [SurfaceFamily("A", n) for n in range(1, 7)]
    + [SurfaceFamily("D", n) for n in range(2, 8)]
    + [SurfaceFamily("E", n) for n in range(3, 9)]
)


def _densified(lat):
    """The lattice's sparse Gram rows written out as a dense matrix."""
    gram = [[0] * lat.rank for _ in lat.gram_rows]
    for i, row in enumerate(lat.gram_rows):
        for j, g in row:
            gram[i][j] += g
    return gram


def _reference_gram(family):
    """The Gram matrix from the family definitions: diag(1, -1, ..., -1) on
    A and E; on D the hyperbolic block f.s = 1, f.f = s.s = 0, then -I."""
    rank = family.rank
    gram = [[0] * rank for _ in range(rank)]
    if family.kind == "D":
        gram[0][1] = gram[1][0] = 1
        for i in range(2, rank):
            gram[i][i] = -1
    else:
        gram[0][0] = 1
        for i in range(1, rank):
            gram[i][i] = -1
    return gram


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
def test_pair_and_covector_match_the_reference_gram(family):
    lat = build_lattice(family)
    gram = _reference_gram(family)
    rng = random.Random(f"pair-{family.label}")
    classes = [basis_class(lat, label) for label in lat.basis_labels] + [lat.K, lat.C]
    classes += [DivisorClass(tuple(rng.randint(-4, 4) for _ in range(family.rank))) for _ in range(30)]
    for y in classes:
        gy = [sum(g * b for g, b in zip(row, y.coords)) for row in gram]
        assert covector(lat, y) == tuple((i, v) for i, v in enumerate(gy) if v)
        for x in classes:
            assert pair(lat, x, y) == sum(a * b for a, b in zip(x.coords, gy))
            assert pair(lat, x, y) == pair(lat, y, x)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
def test_gram_is_symmetric_and_unimodular(family):
    lat = build_lattice(family)
    gram = _densified(lat)
    assert len(gram) == family.rank
    for i in range(family.rank):
        for j in range(family.rank):
            assert gram[i][j] == gram[j][i]
    assert abs(det(gram)) == 1


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
def test_gram_signature_is_lorentzian(family):
    lat = build_lattice(family)
    assert symmetric_signature(_densified(lat)) == (1, family.rank - 1, 0)


@pytest.mark.parametrize(
    "kind,expected",
    [("A", (1, -3)), ("D", (0, -2)), ("E", (-1, -1))],
)
def test_marked_class_self_intersection_and_degree(kind, expected):
    n = {"A": 4, "D": 4, "E": 6}[kind]
    lat = build_lattice(SurfaceFamily(kind, n))
    c_sq = pair(lat, lat.C, lat.C)
    c_k = pair(lat, lat.C, lat.K)
    assert (c_sq, c_k) == expected


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
def test_canonical_self_intersection(family):
    lat = build_lattice(family)
    assert pair(lat, lat.K, lat.K) == 8 - family.n


def test_e6_basis_and_pairings():
    lat = build_lattice(SurfaceFamily("E", 6))
    assert lat.basis_labels == ("h", "l1", "l2", "l3", "l4", "l5", "l6", "l7")
    h = basis_class(lat, "h")
    l1 = basis_class(lat, "l1")
    l2 = basis_class(lat, "l2")
    assert pair(lat, h, h) == 1
    assert pair(lat, l1, l1) == -1
    assert pair(lat, l1, l2) == 0
    assert pair(lat, h, l1) == 0
    assert lat.K == DivisorClass((-3, 1, 1, 1, 1, 1, 1, 1))
    assert lat.C == basis_class(lat, "l7")


def test_d4_basis_and_pairings():
    lat = build_lattice(SurfaceFamily("D", 4))
    assert lat.basis_labels == ("f", "s", "l1", "l2", "l3", "l4")
    f = basis_class(lat, "f")
    s = basis_class(lat, "s")
    l1 = basis_class(lat, "l1")
    assert pair(lat, f, f) == 0
    assert pair(lat, s, s) == 0
    assert pair(lat, f, s) == 1
    assert pair(lat, l1, l1) == -1
    assert pair(lat, f, l1) == 0
    assert lat.K == DivisorClass((-2, -2, 1, 1, 1, 1))
    assert lat.C == f


def test_a3_marked_class_is_h():
    lat = build_lattice(SurfaceFamily("A", 3))
    assert lat.C == basis_class(lat, "h")
    assert degree(lat, lat.C) == 3


def test_degree_examples():
    lat = build_lattice(SurfaceFamily("E", 6))
    l1 = basis_class(lat, "l1")
    assert degree(lat, l1) == 1
    h = basis_class(lat, "h")
    assert degree(lat, h) == 3
    ruling = h - l1
    assert degree(lat, ruling) == 2


def test_family_validation_errors():
    with pytest.raises(ValueError):
        SurfaceFamily("B", 4)
    with pytest.raises(ValueError):
        SurfaceFamily("A", 0)
    with pytest.raises(ValueError):
        SurfaceFamily("D", 1)
    with pytest.raises(ValueError):
        SurfaceFamily("E", 2)
    with pytest.raises(ValueError):
        SurfaceFamily("E", 9)


def test_family_labels_and_appendix_flag():
    assert SurfaceFamily("E", 6).label == "E6"
    assert SurfaceFamily("E", 3).is_appendix_case
    assert SurfaceFamily("D", 2).is_appendix_case
    assert not SurfaceFamily("D", 3).is_appendix_case
    assert not SurfaceFamily("A", 1).is_appendix_case


def test_divisor_class_algebra():
    a = DivisorClass((1, 2, 3))
    b = DivisorClass((0, 1, -1))
    assert (a + b).coords == (1, 3, 2)
    assert (a - b).coords == (1, 1, 4)
    assert (-b).coords == (0, -1, 1)
    assert (a * 2).coords == (2, 4, 6)
    # Divisor classes hash by their coordinates, so they work as dict keys.
    assert {a: 1}[DivisorClass((1, 2, 3))] == 1


def test_pair_rejects_mismatched_rank():
    lat = build_lattice(SurfaceFamily("A", 2))
    with pytest.raises(ValueError):
        pair(lat, DivisorClass((1, 0)), lat.C)
