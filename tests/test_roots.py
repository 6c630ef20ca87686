"""Simple roots, Cartan matrices, classification, reflections and orbits."""

import random

import pytest

from adecox import (
    ClassSet,
    DivisorClass,
    SurfaceFamily,
    basis_class,
    build_lattice,
    build_root_system,
    classify_type,
    enumerate_lines,
    enumerate_roots,
    enumerate_rulings,
    pair,
    reflect,
    simple_roots,
    weyl_orbit,
)
from dense_linalg import det


def test_d4_simple_roots_and_pairings():
    lat = build_lattice(SurfaceFamily("D", 4))
    alphas = simple_roots(lat)
    assert len(alphas) == 4
    f = basis_class(lat, "f")
    l1 = basis_class(lat, "l1")
    l2 = basis_class(lat, "l2")
    assert alphas[0] == -f + l1 + l2
    assert alphas[1] == l2 - l1
    for a in alphas:
        assert pair(lat, a, a) == -2
        assert pair(lat, a, lat.C) == 0
    # Branch node: alpha_1 meets alpha_2 but not the neighbours further out.
    assert pair(lat, alphas[0], alphas[1]) == 0
    assert pair(lat, alphas[0], alphas[2]) == 1
    assert pair(lat, alphas[1], alphas[2]) == 1


def test_e6_simple_roots_and_pairings():
    lat = build_lattice(SurfaceFamily("E", 6))
    alphas = simple_roots(lat)
    assert len(alphas) == 6
    h = basis_class(lat, "h")
    l1 = basis_class(lat, "l1")
    l2 = basis_class(lat, "l2")
    l3 = basis_class(lat, "l3")
    assert alphas[0] == -h + l1 + l2 + l3
    assert alphas[1] == l2 - l1
    # The cubic node attaches to the third leg, not to the chain start.
    assert pair(lat, alphas[0], alphas[1]) == 0
    assert pair(lat, alphas[0], alphas[3]) == 1


def test_a_family_simple_roots():
    lat = build_lattice(SurfaceFamily("A", 3))
    alphas = simple_roots(lat)
    labels = lat.basis_labels
    for i, alpha in enumerate(alphas):
        lo = basis_class(lat, labels[i + 1])
        hi = basis_class(lat, labels[i + 2])
        assert alpha == hi - lo


CLASSIFICATION = [
    ("A", 1, "A1"),
    ("A", 4, "A4"),
    ("D", 2, "A1xA1"),
    ("D", 3, "A3"),
    ("D", 4, "D4"),
    ("D", 6, "D6"),
    ("E", 3, "A2xA1"),
    ("E", 4, "A4"),
    ("E", 5, "D5"),
    ("E", 6, "E6"),
    ("E", 7, "E7"),
    ("E", 8, "E8"),
]
# Every member from E3 to E8, D2 to D30 and A1 to A40, named by hand: the
# type comes from the heights of the highest roots, so these names check it
# independently.
_SMALL_NAMES = {("E", 3): "A2xA1", ("E", 4): "A4", ("E", 5): "D5", ("D", 2): "A1xA1", ("D", 3): "A3"}
_LISTED = {(kind, n) for kind, n, _ in CLASSIFICATION}
CLASSIFICATION += [
    (kind, n, _SMALL_NAMES.get((kind, n), f"{kind}{n}"))
    for kind, ns in (("E", range(3, 9)), ("D", range(2, 31)), ("A", range(1, 41)))
    for n in ns
    if (kind, n) not in _LISTED
]


@pytest.mark.parametrize("kind,n,expected", CLASSIFICATION)
def test_classification(kind, n, expected):
    system = build_root_system(build_lattice(SurfaceFamily(kind, n)))
    assert classify_type(system) == expected


POSITIVE_COUNTS = [
    ("A", 3, 6),
    ("A", 5, 15),
    ("D", 4, 12),
    ("D", 5, 20),
    ("E", 3, 4),
    ("E", 6, 36),
    ("E", 7, 63),
    ("E", 8, 120),
]


@pytest.mark.parametrize("kind,n,count", POSITIVE_COUNTS)
def test_positive_root_counts(kind, n, count):
    lat = build_lattice(SurfaceFamily(kind, n))
    system = build_root_system(lat)
    assert len(system.positive_roots) == count
    # Each root's class is written out here as sum c_i alpha_i over the
    # simple roots; with their negatives they are exactly the (-2, 0)
    # classes the enumerator finds.
    pos = []
    for coeffs, _, _ in system.positive_roots:
        total = DivisorClass((0,) * lat.rank)
        for c, a in zip(coeffs, system.simple_roots):
            total = total + c * a
        pos.append(total)
    assert len(set(pos)) == count
    assert set(pos) | {-r for r in pos} == enumerate_roots(lat).as_set()


CARTAN_DETS = [
    ("A", 2, 3),
    ("A", 4, 5),
    ("D", 4, 4),
    ("D", 5, 4),
    ("E", 3, 6),
    ("E", 6, 3),
    ("E", 7, 2),
    ("E", 8, 1),
]


@pytest.mark.parametrize("kind,n,expected", CARTAN_DETS)
def test_cartan_determinants(kind, n, expected):
    # Built here from the pairing, not read off the root system.
    lat = build_lattice(SurfaceFamily(kind, n))
    alphas = simple_roots(lat)
    cartan = [[-pair(lat, a, b) for b in alphas] for a in alphas]
    for i in range(len(cartan)):
        assert cartan[i][i] == 2
    assert det(cartan) == expected


def test_reflect_examples():
    lat = build_lattice(SurfaceFamily("E", 6))
    alphas = simple_roots(lat)
    h = basis_class(lat, "h")
    l1 = basis_class(lat, "l1")
    l2 = basis_class(lat, "l2")
    l3 = basis_class(lat, "l3")
    assert reflect(lat, l1, alphas[0]) == h - l2 - l3
    assert reflect(lat, l2, l2 - l1) == l1
    # Reflections are involutions.
    assert reflect(lat, reflect(lat, h, alphas[0]), alphas[0]) == h


def test_reflect_requires_a_root():
    lat = build_lattice(SurfaceFamily("E", 6))
    with pytest.raises(ValueError):
        reflect(lat, lat.K, basis_class(lat, "h"))


def test_orbit_of_a_line_is_all_lines():
    for kind, n in [("E", 6), ("D", 4), ("A", 3)]:
        lat = build_lattice(SurfaceFamily(kind, n))
        system = build_root_system(lat)
        lines = enumerate_lines(lat)
        seed = next(iter(lines))
        assert weyl_orbit(system, seed).as_set() == lines.as_set()


def test_orbit_of_invariant_class_is_singleton():
    lat = build_lattice(SurfaceFamily("D", 4))
    system = build_root_system(lat)
    assert weyl_orbit(system, lat.C).as_set() == {lat.C}


def test_orbit_of_ruling_class_e6():
    lat = build_lattice(SurfaceFamily("E", 6))
    system = build_root_system(lat)
    seed = basis_class(lat, "h") - basis_class(lat, "l1")
    orbit = weyl_orbit(system, seed)
    assert orbit.as_set() == enumerate_rulings(lat).as_set()
    assert len(orbit) == 27


def _reflection_closure(lat, alphas, seed):
    """Breadth-first closure of a class under the public ``reflect``."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        fresh = []
        for x in frontier:
            for alpha in alphas:
                y = reflect(lat, x, alpha)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


ORBIT_CASES = [("E", n) for n in range(3, 9)] + [("D", n) for n in range(2, 9)] + [
    ("A", n) for n in range(1, 7)
]


@pytest.mark.parametrize("kind,n", ORBIT_CASES, ids=lambda v: str(v))
def test_weyl_orbit_is_the_closure_under_reflect(kind, n):
    lat = build_lattice(SurfaceFamily(kind, n))
    system = build_root_system(lat)
    alphas = simple_roots(lat)
    lines = list(enumerate_lines(lat))
    seeds = [lines[0], lat.K, lat.C, *alphas]
    if kind == "E":
        seeds.append(basis_class(lat, "h") - basis_class(lat, "l1"))
    rng = random.Random(100 * n + ord(kind))
    for _ in range(3):
        # K and C are fixed, so this orbit is a shifted multiple of the lines.
        line = rng.choice(lines)
        seeds.append(lat.K * rng.randint(-3, 3) + lat.C * rng.randint(-3, 3) + line * rng.randint(-2, 2))
    if system.rank <= 5:
        # |W| <= 1920 here, so a generic class's full orbit stays small.
        for _ in range(3):
            seeds.append(DivisorClass(tuple(rng.randint(-3, 3) for _ in range(lat.rank))))
    for seed in seeds:
        want = tuple(sorted(_reflection_closure(lat, alphas, seed)))
        assert weyl_orbit(system, seed) == ClassSet(lattice=lat, kind="orbit", classes=want)


def test_weyl_orbit_refuses_a_seed_of_the_wrong_length():
    system = build_root_system(build_lattice(SurfaceFamily("E", 6)))
    seed = basis_class(build_lattice(SurfaceFamily("E", 7)), "h")
    with pytest.raises(ValueError, match="coordinate length"):
        weyl_orbit(system, seed)
