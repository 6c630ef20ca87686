"""Quadric cones, the Cox-to-cone embedding and the small degenerate cases."""

import random
from fractions import Fraction

import pytest

from adecox import (
    Generator,
    QuadricSystem,
    Relation,
    SurfaceConfigD,
    SurfaceFamily,
    appendix_tensor_check,
    basis_class,
    build_lattice,
    build_root_system,
    cone_quadric_D,
    embed_cox_into_cone_D,
    weight_of,
)


def _lat(kind, n):
    return build_lattice(SurfaceFamily(kind, n))


def test_cone_quadric_d3():
    system = cone_quadric_D(_lat("D", 3))
    assert [v.name for v in system.variables] == ["X1", "Y1", "X2", "Y2", "X3", "Y3"]
    assert len(system.quadrics) == 1
    quadric = system.quadrics[0]
    assert quadric.terms == ((1, (0, 1)), (1, (2, 3)), (1, (4, 5)))
    assert quadric.cls == basis_class(_lat("D", 3), "f")
    assert system.substitution is None


def test_cone_quadric_rejects_small_or_wrong_families():
    with pytest.raises(ValueError):
        cone_quadric_D(_lat("D", 2))
    with pytest.raises(ValueError):
        cone_quadric_D(_lat("A", 3))
    with pytest.raises(ValueError):
        cone_quadric_D(_lat("E", 6))


def test_quadric_system_rejects_inhomogeneous_weights():
    # u u has class 2 l1 and u v class f: the classes differ, and so do the
    # weights, since f has weight zero and 2 l1 does not.
    lat = _lat("D", 3)
    l1, f = basis_class(lat, "l1"), basis_class(lat, "f")
    variables = (Generator("u", l1), Generator("v", f - l1))
    system = build_root_system(lat)
    assert weight_of(system, l1 + l1) != weight_of(system, f)
    bad = Relation(((1, (0, 0)), (1, (0, 1))), l1 + l1)
    with pytest.raises(ValueError, match="relation is not homogeneous"):
        QuadricSystem(variables, (bad,))


def _quadric_weights(system, quadric_system):
    """The weight of each term of each quadric: the sum of its variables'
    weights, read off their classes by `weight_of`."""
    variables = quadric_system.variables
    return [
        tuple(map(sum, zip(*(weight_of(system, variables[i].cls) for i in mono))))
        for quadric in quadric_system.quadrics
        for _, mono in quadric.terms
    ]


@pytest.mark.parametrize("n", range(3, 9))
def test_every_emitted_quadric_term_has_weight_zero(n):
    # The constructor checks classes; this checks the weight claim itself,
    # on the cone and on the embedding at seeded fiber positions.
    lat = _lat("D", n)
    system = build_root_system(lat)
    rng = random.Random(n)
    points = rng.sample(range(-50, 51), n)
    embedded, report = embed_cox_into_cone_D(lat, SurfaceConfigD(tuple(points)))
    assert report["certified"]
    for quadric_system in (cone_quadric_D(lat), embedded):
        weights = _quadric_weights(system, quadric_system)
        assert len(weights) == n * len(quadric_system.quadrics)
        assert set(weights) == {(0,) * system.rank}


def test_segre_quadric_terms_have_weight_zero():
    lat = _lat("D", 2)
    _, segre = appendix_tensor_check(lat)
    system = build_root_system(lat)
    assert _quadric_weights(system, segre) == [(0,) * system.rank] * 2


EMBED_CASES = [
    (3, ["-1", "2", "-1"], 1),
    (4, ["-3", "5", "-1", "-1"], 2),
    (5, ["-6", "9", "-1", "-1", "-1"], 3),
]


@pytest.mark.parametrize("n,c,rank", EMBED_CASES)
def test_embed_cox_into_cone(n, c, rank):
    lat = _lat("D", n)
    config = SurfaceConfigD(tuple(range(n)))
    system, report = embed_cox_into_cone_D(lat, config)
    assert report["certified"]
    assert report["c"] == c
    assert report["rank_before"] == rank
    assert report["rank_after"] == rank
    # Cone variables plus one lowercase copy per cone variable.
    assert len(system.variables) == 4 * n
    assert len(system.quadrics) == 2
    # The image sum c_i x_i y_i; x_i and y_i follow the 2n cone variables.
    assert system.quadrics[1].terms == tuple(
        (Fraction(x), (2 * n + 2 * i, 2 * n + 2 * i + 1)) for i, x in enumerate(c)
    )
    assert system.substitution is not None


def test_embed_substitution_scales_x_by_c():
    lat = _lat("D", 3)
    system, report = embed_cox_into_cone_D(lat, SurfaceConfigD((0, 1, 2)))
    subs = dict((upper, (scale, lower)) for upper, scale, lower in system.substitution)
    assert subs["X1"] == (Fraction(-1), "x1")
    assert subs["Y1"] == (Fraction(1), "y1")
    assert subs["X2"] == (Fraction(2), "x2")


def test_embed_with_generic_points_still_certifies():
    lat = _lat("D", 4)
    config = SurfaceConfigD((Fraction(1, 2), Fraction(-1, 3), 4, 7))
    _, report = embed_cox_into_cone_D(lat, config)
    assert report["certified"]
    assert report["rank_before"] == report["rank_after"] == 2


def test_appendix_check_e3():
    report, system = appendix_tensor_check(_lat("E", 3))
    assert report["ok"]
    assert report["left_dim"] == 3
    assert report["right_dim"] == 2
    assert report["line_count"] == 6
    assert report["factorization_holds"]
    assert system is None


def test_appendix_check_d2():
    report, system = appendix_tensor_check(_lat("D", 2))
    assert report["ok"]
    assert report["line_count"] == 4
    assert report["segre_class_is_f"]
    assert report["segre_monomial_classes"] == [[1, 0, 0, 0]]
    assert system is not None
    assert [v.name for v in system.variables] == ["z11", "z12", "z21", "z22"]
    # z11 z22 - z12 z21, by variable index.
    assert system.quadrics[0].terms == ((1, (0, 3)), (-1, (1, 2)))


def test_appendix_check_rejects_generic_families():
    with pytest.raises(ValueError):
        appendix_tensor_check(_lat("E", 4))
    with pytest.raises(ValueError):
        appendix_tensor_check(_lat("A", 2))
