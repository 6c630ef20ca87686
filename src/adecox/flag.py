"""Quadric models of minimal-orbit cones and the surface-to-cone embedding.

A quadric here is a `cox.Relation` over an ordered tuple of `cox.Generator`
records: each term is (coefficient, sorted tuple of variable indices), and
`QuadricSystem` refuses a quadric as `CoxPresentation` refuses a relation,
by `cox._check_relations`.  So the cone quadric, its image and the surface
relations are polynomials of one format, each homogeneous of one class.
A substitution names each of its variables once, by name.

For the D family the cone over the relevant flag variety is a single
quadric: pairing each line ``l_i`` with its partner ``f - l_i`` gives
coordinates ``X_i, Y_i`` and the equation ``sum_i X_i Y_i = 0`` of class
``f``.  The section ring of a D-surface maps onto the coordinate ring of
that cone after rescaling ``X_i`` by constants ``c_i`` chosen so that
``sum_i c_i x_i y_i`` lies in the surface's quadric ideal; membership is
certified by an exact rank computation in the class-``f`` graded piece.

The A family needs no quadric (the ring is free), and the two rank-drop
cases (E, 3) and (D, 2) decompose as outer tensor products, checked here
on the line classes together with the 2x2 Segre quadric.

``quadrics`` prints, and C6 and C8 check, the one entry per surface that
``selftest.quadrics_entries`` builds from these functions; it writes each
variable's weight as `weight_of` of its class.
"""

from __future__ import annotations

from fractions import Fraction

from .cox import CoxPresentation, Generator, Relation, SurfaceConfigD, _check_relations, dn_ideal
from .curves import enumerate_lines
from .lattice import IntersectionLattice, _Frozen, basis_class
from .linalg import rational_rank
from .roots import build_root_system
from .weights import weight_of


class QuadricSystem(_Frozen):
    __slots__ = _fields = ("variables", "quadrics", "substitution")

    def __init__(
        self,
        variables: tuple[Generator, ...],
        quadrics: tuple[Relation, ...],
        # Entries (source, scalar, target) encoding source -> scalar * target;
        # both are variable names, and no variable is named twice.
        substitution: tuple[tuple[str, Fraction, str], ...] | None = None,
    ):
        super().__init__(variables, quadrics, substitution)
        _check_relations(self.variables, self.quadrics)
        if self.substitution is not None:
            known = {v.name for v in self.variables}
            seen = set()
            for source, scalar, target in self.substitution:
                if scalar == 0:
                    raise ValueError("substitution scalar must be nonzero")
                for name in (source, target):
                    if name not in known:
                        raise ValueError("substitution names an unknown variable")
                    if name in seen:
                        raise ValueError("substitution names a variable twice")
                    seen.add(name)


def cone_quadric_D(lattice: IntersectionLattice) -> QuadricSystem:
    """The single quadric ``sum_i X_i Y_i`` cutting out the D-family cone.

    ``X_i`` (variable ``2i - 2``) carries the class ``l_i`` and ``Y_i``
    (variable ``2i - 1``) the partner ``f - l_i``; every monomial has class
    ``f``, hence the weight of ``f``, which is zero.
    """
    fam = lattice.family
    if fam.kind != "D" or fam.n < 3:
        raise ValueError("cone quadric is defined for the D family with n >= 3")
    f = basis_class(lattice, "f")
    weight = weight_of(build_root_system(lattice), f)
    if any(weight):
        raise AssertionError(f"the cone quadric's class f has nonzero weight {weight}")
    variables = []
    for i in range(1, fam.n + 1):
        li = basis_class(lattice, f"l{i}")
        variables += [Generator(f"X{i}", li), Generator(f"Y{i}", f - li)]
    quadric = Relation(tuple((1, (2 * i - 2, 2 * i - 1)) for i in range(1, fam.n + 1)), f)
    return QuadricSystem(tuple(variables), (quadric,))


def _relation_rows(presentation: CoxPresentation, n: int) -> list[list[Fraction]]:
    """Coefficient rows of the class-``f`` relations over the basis x_i y_i."""
    rows = []
    for rel in presentation.relations:
        row = [Fraction(0)] * n
        for coeff, mono in rel.terms:
            # mono = (i - 1, n + i - 1) is the monomial x_i y_i.
            row[mono[0]] += coeff
        rows.append(row)
    return rows


def embed_cox_into_cone_D(
    lattice: IntersectionLattice, config: SurfaceConfigD
) -> tuple[QuadricSystem, dict]:
    """Rescaling that carries the cone quadric into the surface ideal.

    Searches the row space of the class-``f`` relation matrix for a vector
    ``c`` with every coordinate nonzero; then ``X_i -> c_i x_i``,
    ``Y_i -> y_i`` maps ``sum X_i Y_i`` to ``sum c_i x_i y_i``, which lies
    in the ideal by construction.  The certificate recomputes that
    membership directly: adjoining ``c`` to the relation rows must not
    raise the rank.  The geometric-weight combinations ``sum_i k^{i-3} row_i``
    for k = 1, 2, ... hit an all-nonzero vector within ``2(n - 3) + 1`` tries
    because each coordinate is a nonzero polynomial in k of degree at most
    ``n - 3``; for n = 3 the one try is the single relation row, whose ray
    is the unique solution ray.
    """
    fam = lattice.family
    if fam.kind != "D" or fam.n < 3:
        raise ValueError("embedding is defined for the D family with n >= 3")
    n = fam.n
    presentation = dn_ideal(lattice, config)
    rows = _relation_rows(presentation, n)
    c: list[Fraction] | None = None
    for k in range(1, 2 * (n - 3) + 2):
        candidate = [
            sum(Fraction(k) ** (i - 3) * rows[i - 3][j] for i in range(3, n + 1))
            for j in range(n)
        ]
        if all(x != 0 for x in candidate):
            c = candidate
            break
    if c is None:
        raise AssertionError("no all-nonzero combination of relation rows found")
    rank_before = rational_rank(rows)
    rank_after = rational_rank(rows + [c])
    certified = rank_before == rank_after == n - 2

    cone = cone_quadric_D(lattice)
    # x_i and y_i, the variables 2n + 2i - 2 and 2n + 2i - 1, carry the
    # classes of the cone's X_i and Y_i.
    cox_vars = tuple(Generator(v.name.lower(), v.cls) for v in cone.variables)
    image_terms = []
    substitution = []
    for i in range(1, n + 1):
        image_terms.append((c[i - 1], (2 * n + 2 * i - 2, 2 * n + 2 * i - 1)))
        substitution.append((f"X{i}", c[i - 1], f"x{i}"))
        substitution.append((f"Y{i}", Fraction(1), f"y{i}"))
    quad_system = QuadricSystem(
        cone.variables + cox_vars,
        cone.quadrics + (Relation(tuple(image_terms), cone.quadrics[0].cls),),
        tuple(substitution),
    )
    report = {
        "n": n,
        "points": [str(t) for t in config.points],
        "c": [str(x) for x in c],
        "rank_before": rank_before,
        "rank_after": rank_after,
        "certified": certified,
    }
    return quad_system, report


def appendix_tensor_check(
    lattice: IntersectionLattice,
) -> tuple[dict, QuadricSystem | None]:
    """Tensor factorizations of the line module in the two rank-drop cases.

    Each case has one factor pair (left, right) whose pairwise sums must be
    the lines, as classes (so their weights agree too).  (E, 3): the classes
    ``l_i - h`` and ``h, 2h - l_1 - l_2 - l_3``.  (D, 2): ``{l_1 - s, l_2 - s}``
    and ``{s, s + f - l_1 - l_2}``, with the 2x2 Segre quadric
    ``z11 z22 - z12 z21`` on the sums, homogeneous of class ``f``.
    """
    fam = lattice.family
    if not fam.is_appendix_case:
        raise ValueError("tensor check is defined for (E, 3) and (D, 2) only")
    if fam.kind == "E":
        h = basis_class(lattice, "h")
        ls = [basis_class(lattice, f"l{i}") for i in (1, 2, 3)]
        left = [li - h for li in ls]
        right = [h, h + h - ls[0] - ls[1] - ls[2]]
    else:
        f, s, l1, l2 = (basis_class(lattice, label) for label in ("f", "s", "l1", "l2"))
        left = [l1 - s, l2 - s]
        right = [s, s + f - l1 - l2]
    line_classes = sorted(enumerate_lines(lattice))
    holds = sorted(a + b for a in left for b in right) == line_classes
    report = {
        "family": fam.label,
        "left_dim": len(left),
        "right_dim": len(right),
        "line_count": len(line_classes),
        "factorization_holds": holds,
        "ok": holds,
    }
    if fam.kind == "E":
        return report, None
    variables = tuple(
        Generator(f"z{i}{j}", a + b)
        for i, a in enumerate(left, start=1)
        for j, b in enumerate(right, start=1)
    )
    # z11 z22 - z12 z21 over the variables in the order z11, z12, z21, z22.
    segre = Relation(((1, (0, 3)), (-1, (1, 2))), f)
    segre_classes = sorted({variables[i].cls + variables[j].cls for _, (i, j) in segre.terms})
    report["segre_monomial_classes"] = [list(cls.coords) for cls in segre_classes]
    report["segre_class_is_f"] = segre_classes == [f]
    report["ok"] = holds and segre_classes == [f]
    return report, QuadricSystem(variables, (segre,))
