"""Quadric cones, the Cox-to-cone embedding and the small degenerate cases."""

from fractions import Fraction

import pytest

from adecox import (
    Quadric,
    QuadricSystem,
    QuadricVariable,
    SurfaceConfigD,
    SurfaceFamily,
    appendix_tensor_check,
    build_lattice,
    cone_quadric_D,
    embed_cox_into_cone_D,
)


def _lat(kind, n):
    return build_lattice(SurfaceFamily(kind, n))


def test_cone_quadric_d3():
    system = cone_quadric_D(_lat("D", 3))
    assert [v.name for v in system.variables] == ["X1", "Y1", "X2", "Y2", "X3", "Y3"]
    assert len(system.quadrics) == 1
    terms = system.quadrics[0].terms
    assert len(terms) == 3
    assert all(coeff == 1 for coeff, _ in terms)
    assert terms[0][1] == ("X1", "Y1")
    assert system.substitution is None


def test_cone_quadric_rejects_small_or_wrong_families():
    with pytest.raises(ValueError):
        cone_quadric_D(_lat("D", 2))
    with pytest.raises(ValueError):
        cone_quadric_D(_lat("A", 3))
    with pytest.raises(ValueError):
        cone_quadric_D(_lat("E", 6))


def test_quadric_system_rejects_inhomogeneous_weights():
    variables = (
        QuadricVariable("u", _lat("D", 3).zero(), (1, 0, 0)),
        QuadricVariable("v", _lat("D", 3).zero(), (0, 1, 0)),
    )
    bad = Quadric(((Fraction(1), ("u", "u")), (Fraction(1), ("u", "v"))))
    with pytest.raises(ValueError):
        QuadricSystem(variables, (bad,))


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
    terms = system.quadrics[0].terms
    assert terms == (
        (Fraction(1), ("z11", "z22")),
        (Fraction(-1), ("z12", "z21")),
    )


def test_appendix_check_rejects_generic_families():
    with pytest.raises(ValueError):
        appendix_tensor_check(_lat("E", 4))
    with pytest.raises(ValueError):
        appendix_tensor_check(_lat("A", 2))
