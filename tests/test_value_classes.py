"""The package's value classes behave as the frozen dataclasses they replace.

Each class below is a reference twin: a ``@dataclass(frozen=True)``
declaration with the same name (the package used such declarations before
it dropped :mod:`dataclasses` to cut its import time, and a value class
added since, such as `DominantCharacter`, behaves as one), so that reprs
match character for character.  Every sample object is compared with its twin
built from the same field values, on E3-E8, D2-D9 and A1-A8: equality,
hash, repr, ordering, immutability, the fields kept out of equality, and
keyword construction with the field names.  A lattice, a root system and a
presentation take as fields only what determines them (a family, a
lattice, a lattice and relations); their twins declare every derived
attribute ``field(init=False, compare=False, repr=False)``, and copies and
pickles are checked to derive the same attributes again.
"""

import copy
import pickle
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import product

import pytest

import adecox as A
from adecox import selftest
from adecox.lattice import _Frozen


@dataclass(frozen=True, order=True)
class DivisorClass:
    coords: tuple[int, ...]

    def __repr__(self) -> str:
        return f"DivisorClass{self.coords}"


@dataclass(frozen=True)
class SurfaceFamily:
    kind: str
    n: int


@dataclass(frozen=True)
class IntersectionLattice:
    family: object
    basis_labels: tuple = field(init=False, compare=False, repr=False)
    gram_rows: tuple = field(init=False, compare=False, repr=False)
    K: object = field(init=False, compare=False, repr=False)
    C: object = field(init=False, compare=False, repr=False)
    c_covector: tuple = field(init=False, compare=False, repr=False)
    k_covector: tuple = field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class ClassSet:
    lattice: object
    kind: str
    classes: tuple


@dataclass(frozen=True)
class RootSystemData:
    lattice: object
    simple_roots: tuple = field(init=False, compare=False, repr=False)
    positive_roots: tuple = field(init=False, compare=False, repr=False)
    cartan_rows: tuple = field(init=False, compare=False, repr=False)
    orbit_moves: tuple = field(init=False, compare=False, repr=False)
    lower_neighbours: tuple = field(init=False, compare=False, repr=False)
    simple_covectors: tuple = field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class WeightMultiset:
    entries: tuple


@dataclass(frozen=True)
class DominantCharacter:
    entries: tuple
    total: int


@dataclass(frozen=True)
class SurfaceConfigD:
    points: tuple


@dataclass(frozen=True)
class Generator:
    name: str
    cls: object


@dataclass(frozen=True)
class Relation:
    terms: tuple
    cls: object


@dataclass(frozen=True)
class CoxPresentation:
    lattice: object
    relations: tuple
    generators: tuple = field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class RelationCensus:
    monomials: int
    sections: int
    relations: int


@dataclass(frozen=True)
class QuadricSystem:
    variables: tuple
    quadrics: tuple
    substitution: tuple | None = None


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    details: str


@dataclass(frozen=True)
class Check:
    check_id: str
    description: str
    fn: Callable
    summary: str


TWINS = {
    A.DivisorClass: DivisorClass,
    A.SurfaceFamily: SurfaceFamily,
    A.IntersectionLattice: IntersectionLattice,
    A.ClassSet: ClassSet,
    A.RootSystemData: RootSystemData,
    A.WeightMultiset: WeightMultiset,
    A.DominantCharacter: DominantCharacter,
    A.SurfaceConfigD: SurfaceConfigD,
    A.Generator: Generator,
    A.Relation: Relation,
    A.CoxPresentation: CoxPresentation,
    A.RelationCensus: RelationCensus,
    A.QuadricSystem: QuadricSystem,
    selftest.CheckResult: CheckResult,
    selftest.Check: Check,
}

FAMILIES = (
    [("E", n) for n in range(3, 9)]
    + [("D", n) for n in range(2, 10)]
    + [("A", n) for n in range(1, 9)]
)


def _init_kwargs(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(TWINS[type(obj)]) if f.init}


def _twin(obj):
    return TWINS[type(obj)](**_init_kwargs(obj))


def _surface_samples(kind, n):
    family = A.SurfaceFamily(kind, n)
    lat = A.build_lattice(family)
    system = A.build_root_system(lat)
    lines = A.enumerate_lines(lat)
    out = [family, lat, system, lines, A.line_weight_multiset(system), lat.K, lat.C]
    out += list(A.decompose_sym2(system)[:2])
    out += list(lines.classes[:4]) + list(A.enumerate_roots(lat).classes[:4])
    if kind == "D" and n >= 3:
        config = A.SurfaceConfigD(tuple(Fraction(i, 2) for i in range(n)))
        pres = A.dn_ideal(lat, config)
        cone = A.cone_quadric_D(lat)
        embedded, _ = A.embed_cox_into_cone_D(lat, config)
        out += [config, pres, cone, embedded]
        out += list(pres.generators[:2]) + list(pres.relations[:2])
        out += list(embedded.variables[:2]) + list(embedded.quadrics)
    elif kind != "E":
        pres = A.cox_presentation(lat)
        out += [pres] + list(pres.generators[:2])
    if family.is_appendix_case:
        _, system2 = A.appendix_tensor_check(lat)
        if system2 is not None:
            out += [system2] + list(system2.variables[:2]) + list(system2.quadrics)
    if kind == "E" and 4 <= n <= 7:
        out += [A.relation_census(lat, r) for r in A.enumerate_rulings(lat).classes[:2]]
    return out


SAMPLES = [obj for kind, n in FAMILIES for obj in _surface_samples(kind, n)]
SAMPLES += list(selftest.CHECKS) + [
    selftest.CheckResult("C1", True, "ok"),
    selftest.CheckResult("C1", False, "ok"),
]


def _by_class():
    groups = {}
    for obj in SAMPLES:
        groups.setdefault(type(obj), []).append(obj)
    return groups


def test_every_value_class_is_sampled():
    assert set(_by_class()) == set(TWINS)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__name__)
def test_repr_hash_and_equality_match_the_dataclass(cls):
    objs = _by_class()[cls]
    twins = [_twin(o) for o in objs]
    for obj, twin in zip(objs, twins):
        assert repr(obj) == repr(twin)
        assert hash(obj) == hash(twin)
        assert obj.__eq__(twin) is NotImplemented
        assert obj.__eq__(object()) is NotImplemented
        assert obj != twin
    for (a, ta), (b, tb) in product(zip(objs, twins), repeat=2):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__name__)
def test_keyword_and_positional_construction_with_the_old_field_names(cls):
    for obj in _by_class()[cls]:
        kwargs = _init_kwargs(obj)
        by_name = cls(**kwargs)
        by_position = cls(*kwargs.values())
        assert by_name == obj and by_position == obj
        assert repr(by_name) == repr(obj)
        assert hash(by_name) == hash(obj)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise_attribute_error(cls):
    obj = _by_class()[cls][0]
    twin = _twin(obj)
    for name in [f.name for f in fields(twin)] + ["not_a_field"]:
        for target in (obj, twin):
            with pytest.raises(AttributeError):
                setattr(target, name, 0)
            with pytest.raises(AttributeError):
                delattr(target, name)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal(cls):
    for obj in _by_class()[cls]:
        for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert other == obj
            assert hash(other) == hash(obj)
            assert repr(other) == repr(obj)


DERIVED = {
    A.IntersectionLattice: ("basis_labels", "gram_rows", "K", "C", "c_covector", "k_covector"),
    A.RootSystemData: (
        "simple_roots", "positive_roots", "cartan_rows", "orbit_moves", "lower_neighbours", "simple_covectors",
    ),
    A.CoxPresentation: ("generators", "_leads"),
}


@pytest.mark.parametrize("cls", list(DERIVED), ids=lambda c: c.__name__)
def test_copies_and_pickles_derive_the_same_attributes(cls):
    # Equality reads only the key fields, so the derived data is compared
    # attribute by attribute.
    for obj in _by_class()[cls]:
        for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert other is not obj
            for name in DERIVED[cls]:
                assert getattr(other, name) == getattr(obj, name), name


def test_divisor_classes_sort_and_compare_as_the_dataclass():
    classes = [o for o in SAMPLES if type(o) is A.DivisorClass]
    classes += [A.DivisorClass(c.coords[::-1]) for c in classes]
    twins = [_twin(c) for c in classes]
    assert [c.coords for c in sorted(classes)] == [t.coords for t in sorted(twins)]
    for (a, ta), (b, tb) in product(zip(classes[:40], twins[:40]), repeat=2):
        assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    for other in ((1, 2), twins[0]):
        with pytest.raises(TypeError):
            classes[0] < other


def test_excluded_fields_stay_out_of_equality_hash_and_repr():
    lat = A.build_lattice(A.SurfaceFamily("D", 4))
    config = A.SurfaceConfigD((0, 1, 2, 3))
    for obj in (lat, A.build_root_system(lat), A.dn_ideal(lat, config)):
        derived = [f.name for f in fields(TWINS[type(obj)]) if not f.init]
        stripped = copy.copy(obj)
        for name in derived:
            object.__setattr__(stripped, name, ())
        assert stripped == obj and hash(stripped) == hash(obj)
        assert repr(stripped) == repr(obj)
        for name in derived:
            assert f"{name}=" not in repr(obj)
            for target in (type(obj), TWINS[type(obj)]):
                with pytest.raises(TypeError):
                    target(**_init_kwargs(obj), **{name: ()})
    assert A.QuadricSystem((), ()).substitution is None


def _d3_relation(*terms):
    """A D3 presentation with one relation of class f; x1 y1 sits at (0, 3)."""
    lat = A.build_lattice(A.SurfaceFamily("D", 3))
    return A.CoxPresentation(lat, (A.Relation(terms, A.basis_class(lat, "f")),))


def _d3_relations_sharing_x3_y3():
    """Two D3 relations of class f that both lead with x3 y3 at (2, 5)."""
    lat = A.build_lattice(A.SurfaceFamily("D", 3))
    f = A.basis_class(lat, "f")
    terms = (((1, (0, 3)), (1, (2, 5))), ((1, (1, 4)), (1, (2, 5))))
    return A.CoxPresentation(lat, tuple(A.Relation(t, f) for t in terms))


def _empty_quadric_system():
    """A quadric system whose one quadric has no terms; `QuadricSystem`
    refuses it by the presentation's own check."""
    lat = A.build_lattice(A.SurfaceFamily("D", 3))
    return A.QuadricSystem((), (A.Relation((), A.basis_class(lat, "f")),))


def _d3_cone(quadrics=None, substitution=None):
    """The D3 cone's six variables X1, Y1, ..., Y3 with its own quadric, or
    with ``quadrics`` in its place, and ``substitution``."""
    cone = A.cone_quadric_D(A.build_lattice(A.SurfaceFamily("D", 3)))
    return A.QuadricSystem(cone.variables, cone.quadrics if quadrics is None else quadrics, substitution)


def _d3_cone_at_negative_indices():
    """The D3 cone quadric written with the indices -6..-1, which once
    wrapped around to the same variables."""
    cone = A.cone_quadric_D(A.build_lattice(A.SurfaceFamily("D", 3)))
    quadric = cone.quadrics[0]
    terms = tuple((c, tuple(i - 6 for i in mono)) for c, mono in quadric.terms)
    return _d3_cone((A.Relation(terms, quadric.cls),))


def _d3_cone_with_x1_y1_minus_y1_x1():
    f = A.basis_class(A.build_lattice(A.SurfaceFamily("D", 3)), "f")
    return _d3_cone((A.Relation(((1, (0, 3)), (-1, (3, 0))), f),))


def _d3_cone_with_an_unknown_target():
    return _d3_cone(substitution=(("X1", 1, "nope"),))


def _d3_cone_naming_x1_twice():
    return _d3_cone(substitution=(("X1", 1, "Y1"), ("X1", 1, "Y2")))


# The selftest does not repeat the three relation refusals (C4, C6 and C7
# fail by the exception), so these cases are what guards them.
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: A.SurfaceFamily("B", 3), "unknown family kind 'B', expected A, D or E"),
        (lambda: A.SurfaceFamily("E", 9), "E family needs 3 <= n <= 8"),
        (lambda: A.SurfaceConfigD((0, Fraction(0))), "fiber positions must be pairwise distinct"),
        (_empty_quadric_system, "relation with no terms"),
        (lambda: A.QuadricSystem((), (), (("X1", 0, "x1"),)), "substitution scalar must be nonzero"),
        (lambda: _d3_relation(), "relation with no terms"),
        (lambda: _d3_relation((1, (0, 3)), (0, (1, 4))), "relation carries a zero coefficient"),
        (lambda: _d3_relation((1, (0, 3)), (1, (0,))), "relation is not homogeneous"),
        (lambda: _d3_relation((1, (0, 3)), (1, (0, 99))), "relation names a generator outside the generator list"),
        # x1 y1 - y1 x1 is zero; kept, it made f's piece that of the free ring.
        (lambda: _d3_relation((1, (0, 3)), (-1, (3, 0))), "relation names a monomial twice"),
        (_d3_cone_with_x1_y1_minus_y1_x1, "relation names a monomial twice"),
        (_d3_relations_sharing_x3_y3, "leading monomials are not pairwise coprime"),
        (_d3_cone_at_negative_indices, "relation names a generator outside the generator list"),
        (lambda: A.QuadricSystem((), (), (("X1", 1, "nope"),)), "substitution names an unknown variable"),
        (_d3_cone_with_an_unknown_target, "substitution names an unknown variable"),
        (_d3_cone_naming_x1_twice, "substitution names a variable twice"),
    ],
)
def test_constructors_validate_with_the_same_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


BASE_CONSTRUCTED = [cls for cls in TWINS if cls.__init__ is _Frozen.__init__]


def test_the_classes_that_only_store_their_fields_use_the_base_constructor():
    assert sorted(cls.__name__ for cls in BASE_CONSTRUCTED) == [
        "Check",
        "CheckResult",
        "ClassSet",
        "DominantCharacter",
        "Generator",
        "Relation",
        "RelationCensus",
        "WeightMultiset",
    ]


@pytest.mark.parametrize("cls", BASE_CONSTRUCTED, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error_naming_the_class_as_the_dataclass(cls):
    obj = _by_class()[cls][0]
    kwargs = _init_kwargs(obj)
    values = list(kwargs.values())
    first, *rest = kwargs
    bad_calls = {
        "too many": lambda c: c(*values, 0),
        "missing positional": lambda c: c(*values[:-1]),
        "missing keyword": lambda c: c(**{k: v for k, v in kwargs.items() if k != first}),
        "unknown": lambda c: c(*values, not_a_field=0),
        "unknown only": lambda c: c(not_a_field=0),
        "repeated": lambda c: c(*values, **{first: values[0]}),
        "repeated, rest missing": lambda c: c(values[0], **{first: values[0]}),
    }
    for what, call in bad_calls.items():
        for target in (cls, TWINS[cls]):
            with pytest.raises(TypeError) as info:
                call(target)
            if target is cls:
                assert cls.__name__ in str(info.value), what
    mixed = cls(values[0], **{k: kwargs[k] for k in rest})
    assert mixed == obj and repr(mixed) == repr(obj) and hash(mixed) == hash(obj)
