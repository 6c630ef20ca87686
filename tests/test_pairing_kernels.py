"""The warm-path pairing kernels against the formulas they compute.

`reflect`, `weight_of`, `section_dim` and `torus_character` are loops over
data that the lattice and the root system keep (the Gram rows, the ``C``
and ``K`` covectors, the simple-root covectors).  Each is compared here, on
every enumerated line, ruling and root, with its definition written through
`pair`, which `tests/test_lattice.py` checks against the Gram matrix.
"""

import pytest

from adecox import (
    DivisorClass,
    SurfaceFamily,
    build_lattice,
    build_root_system,
    enumerate_lines,
    enumerate_roots,
    enumerate_rulings,
    pair,
    reflect,
    section_dim,
    simple_roots,
    torus_character,
    weight_of,
)

FAMILIES = (
    [SurfaceFamily("E", n) for n in range(3, 9)]
    + [SurfaceFamily("D", n) for n in range(2, 9)]
    + [SurfaceFamily("A", n) for n in range(1, 7)]
)
LENGTH = "coordinate length does not match the lattice rank"
NOT_A_ROOT = "reflection class must have self intersection -2"


def _curves(lat):
    """Every enumerated line, ruling and root, and the roots alone."""
    roots = list(enumerate_roots(lat).classes)
    return list(enumerate_lines(lat).classes) + list(enumerate_rulings(lat).classes) + roots, roots


def _section_dim(lat, d):
    """Sections by the family formulas of `section_dim`'s docstring; None on
    E for a class that is neither a line nor a ruling, which it refuses."""
    x = d.coords
    kind = lat.family.kind
    if kind == "A":
        return int(min(x[1:]) >= 0)
    if kind == "D":
        a0 = x[0] - sum(-c for c in x[2:] if c < 0)
        return max(a0 + 1, 0)
    if (pair(lat, d, d), pair(lat, d, lat.K)) not in ((-1, -1), (0, -2)):
        return None
    return 1 + (pair(lat, d, d) - pair(lat, d, lat.K)) // 2


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
def test_pairing_kernels_match_their_definitions(family):
    lat = build_lattice(family)
    system = build_root_system(lat)
    alphas = simple_roots(lat)
    classes, roots = _curves(lat)
    c_index = lat.C.coords.index(1)
    for i, x in enumerate(classes):
        # Every class is reflected, and every root reflects some class.
        for alpha in (roots[i % len(roots)], roots[(7 * i + 3) % len(roots)]):
            assert reflect(lat, x, alpha) == x + pair(lat, x, alpha) * alpha
        labels = tuple(-pair(lat, x, a) for a in alphas)
        assert weight_of(system, x) == labels
        reduced = tuple(0 if k == c_index else c for k, c in enumerate(x.coords))
        assert torus_character(lat, x) == (DivisorClass(reduced), labels)
        want = _section_dim(lat, x)
        if want is None:
            with pytest.raises(ValueError, match="unsupported E-family class"):
                section_dim(lat, x)
        else:
            assert section_dim(lat, x) == want


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
def test_pairing_kernels_keep_their_refusals(family):
    lat = build_lattice(family)
    system = build_root_system(lat)
    classes, roots = _curves(lat)
    alpha = roots[0]
    # On E the marking class C is the last coordinate, past the end of a
    # short class: torus_character indexed it and raised IndexError.
    short = DivisorClass((1, 2))
    for x in classes:
        for bad in (DivisorClass(x.coords[:-1]), DivisorClass(x.coords + (0,)), short):
            for call in (
                lambda: pair(lat, bad, x),
                lambda: pair(lat, x, bad),
                lambda: reflect(lat, bad, alpha),
                lambda: reflect(lat, x, bad),
                lambda: weight_of(system, bad),
                lambda: section_dim(lat, bad),
                lambda: torus_character(lat, bad),
            ):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == LENGTH
        if pair(lat, x, x) != -2:
            with pytest.raises(ValueError) as info:
                reflect(lat, alpha, x)
            assert str(info.value) == NOT_A_ROOT

