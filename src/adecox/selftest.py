"""One-shot verification suite covering every headline computation.

Each check is registered in ``CHECKS`` with a stable identifier and its
pass summary, so the command line tool and the test suite run exactly the
same list.  A check returns the problems it found; ``Check.run`` fails it
with them, or passes it with the summary.  A check that raises fails, so
what a constructor refuses (say a relation term outside the relation's
class) fails its check without the check testing it again.  The runner
prints one row per check and exits nonzero if anything failed.  Everything
is deterministic: fixed sweeps, fixed fiber positions, and a fixed seed for
the randomized reflection property.

The paper's per-surface identities (the sym2 splitting, the line and ruling
modules, the Hilbert functions, the quadric census and the invariant rays)
each have one check function in ``SURFACE_CHECKS``, next to the tables of
predicted invariants.  ``verify --which`` prints the entries such a function
returns; C2-C5 and C7 run the same functions over their sweeps and turn
each failing entry into a detail naming the surface, the check and the
numbers compared.  ``quadrics`` and C6/C8 likewise share
``quadrics_entries``, the D-family embedding and the rank-drop
factorizations.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product as iterproduct

from .cox import (
    Relation,
    SurfaceConfigD,
    anticanonical_shift,
    cox_generators,
    cox_presentation,
    dn_ideal,
    git_hilbert,
    relation_census,
    torus_character,
    verify_hilbert,
)
from .curves import ENUMERATORS, KINDS, enumerate_lines, enumerate_roots, enumerate_rulings
from .flag import QuadricSystem, appendix_tensor_check, cone_quadric_D, embed_cox_into_cone_D
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    SurfaceFamily,
    _Frozen,
    basis_class,
    build_lattice,
    pair,
)
from .roots import build_root_system, classify_type, reflect, weyl_orbit
from .weights import (
    WeightMultiset,
    decompose_sym2,
    freudenthal,
    is_weyl_invariant,
    line_highest_class,
    line_weight_multiset,
    sym2_multiset,
    verify_weight_lemma,
    weight_of,
    weyl_dim,
)

E_SWEEP = tuple(range(3, 9))
D_SWEEP = tuple(range(2, 7))
A_SWEEP = tuple(range(1, 6))

# Surfaces whose enumerations C9 checks against the box search.  The list
# only grows; E5 (about 0.5 s) is left to the tests.
BOX_SURFACES = (
    ("E", 3), ("E", 4),
    ("D", 2), ("D", 3), ("D", 4), ("D", 5),
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
)

# Predicted numbers of lines, rulings and roots on (E, n); the D and A
# families follow closed forms.
_E_COUNTS = {
    3: (6, 3, 8),
    4: (10, 5, 20),
    5: (16, 10, 40),
    6: (27, 27, 72),
    7: (56, 126, 126),
    8: (240, 2160, 240),
}

# Predicted totals of sym2(line weights), of the top module and of its
# complement on (E, n); the D and A families follow closed forms.
_E_SYM2 = {
    3: (21, 18, 3),
    4: (55, 50, 5),
    5: (136, 126, 10),
    6: (378, 351, 27),
    7: (1596, 1463, 133),
    8: (30876, 27000, 3876),
}

# Predicted quadric counts on (E, n), as established by Batyrev-Popov: the
# relations on each ruling and their total over the rulings (None where the
# rulings are not counted), then per counted class ``k(-K + C)`` the check
# name, k and (monomials, sections, relations).
_E_CENSUS = {
    4: (1, 5, ()),
    5: (2, 20, ()),
    6: (3, 81, ()),
    7: (4, 504, (("anticanonical-census", 1, (28, 3, 25)),)),
    8: (None, None, (("anticanonical-census", 1, (2, 2, 0)),
                     ("doubled-anticanonical-census", 2, (123, 4, 119)))),
}


def _count_predictions(lattice: IntersectionLattice) -> dict[str, int]:
    """Predicted number of classes of each kind in ``ENUMERATORS``.

    The D family has 2n lines, the one ruling ``f`` and 2n(n - 1) roots; the
    A family has n + 1 lines, no rulings and n(n + 1) roots.
    """
    fam = lattice.family
    n = fam.n
    if fam.kind == "E":
        lines, rulings, roots = _E_COUNTS[n]
    elif fam.kind == "D":
        lines, rulings, roots = 2 * n, 1, 2 * n * (n - 1)
    else:
        lines, rulings, roots = n + 1, 0, n * (n + 1)
    return {"lines": lines, "rulings": rulings, "roots": roots}


def _sym2_predictions(lattice: IntersectionLattice) -> tuple[int, int, int]:
    """``(sym2, top module, complement)`` totals predicted for the line weights.

    The D family's 2n lines leave one zero weight outside the top module,
    the A family's n + 1 lines leave nothing.
    """
    fam = lattice.family
    n = fam.n
    if fam.kind == "E":
        return _E_SYM2[n]
    if fam.kind == "D":
        return n * (2 * n + 1), 2 * n * n + n - 1, 1
    t = (n + 1) * (n + 2) // 2
    return t, t, 0


# The per-surface checks of ``SURFACE_CHECKS``: each returns the entries
# ``verify --which`` prints, every one with its ``check`` name and ``pass``.


def _sym2_entries(lattice: IntersectionLattice) -> list[dict]:
    _, _, report = decompose_sym2(build_root_system(lattice))
    totals = (report["sym2_total"], report["v_total"], report["w_total"])
    entry = dict(report, check="sym2-decomposition")
    entry["pass"] = report["w_matches_expected"] and totals == _sym2_predictions(lattice)
    return [entry]


def _weights_entries(lattice: IntersectionLattice) -> list[dict]:
    system = build_root_system(lattice)
    orbit = weyl_orbit(system, line_highest_class(lattice))
    report = verify_weight_lemma(system)
    entry = dict(report, check="line-and-ruling-modules")
    entry["line_orbit_matches"] = orbit.as_set() == enumerate_lines(lattice).as_set()
    entry["pass"] = report["ok"] and entry["line_orbit_matches"]
    return [entry]


def _hilbert_entries(
    lattice: IntersectionLattice, config: SurfaceConfigD | None, max_degree: int
) -> list[dict]:
    report = verify_hilbert(cox_presentation(lattice, config), lattice, max_degree)
    entry = dict(report, check="graded-vs-section-dimensions")
    entry["pass"] = report["ok"]
    return [entry]


def _census_entries(lattice: IntersectionLattice) -> list[dict]:
    """One entry per ruling and its total where counted, then one per class.

    The D family's one ruling ``f`` carries n monomials, 2 sections and
    n - 2 relations.
    """
    fam = lattice.family
    if fam.kind == "D":
        per_ruling, expected_total = None, None
        classes = (("ruling-census", basis_class(lattice, "f"), (fam.n, 2, fam.n - 2)),)
    elif fam.kind == "E" and fam.n >= 4:
        per_ruling, expected_total, multiples = _E_CENSUS[fam.n]
        shift = anticanonical_shift(lattice)
        classes = tuple((check, shift * k, want) for check, k, want in multiples)
    else:
        raise ValueError("census verification covers the D family and E families with n >= 4")

    def counted(check: str, target: DivisorClass) -> dict:
        census = relation_census(lattice, target)
        return {
            "check": check,
            "target": list(target.coords),
            "monomials": census.monomials,
            "sections": census.sections,
            "relations": census.relations,
        }

    entries: list[dict] = []
    if per_ruling is not None:
        for ruling in enumerate_rulings(lattice):
            entry = counted("ruling-census", ruling)
            entry["expected_relations"] = per_ruling
            entry["pass"] = entry["relations"] == per_ruling
            entries.append(entry)
        total = sum(entry["relations"] for entry in entries)
        entries.append(
            {
                "check": "ruling-census-total",
                "relations_total": total,
                "expected_total": expected_total,
                "pass": total == expected_total,
            }
        )
    for check, target, expected in classes:
        entry = counted(check, target)
        entry["expected"] = list(expected)
        entry["pass"] = (entry["monomials"], entry["sections"], entry["relations"]) == expected
        entries.append(entry)
    return entries


def _git_entries(
    lattice: IntersectionLattice, config: SurfaceConfigD | None, max_degree: int
) -> list[dict]:
    """Invariant dimensions along ``f`` (D) or ``l1`` (A), as
    standard-monomial counts on the presentation when fiber positions are
    given, else by section count."""
    fam = lattice.family
    if fam.kind not in ("A", "D"):
        raise ValueError("git verification covers the A and D families")
    ray = basis_class(lattice, "f" if fam.kind == "D" else "l1")
    presentation = None if config is None else cox_presentation(lattice, config)
    # git_hilbert refuses a ray past RAY_CAP before expected is built.
    dims = git_hilbert(lattice, ray, max_degree, presentation)
    expected = list(range(1, max_degree + 2)) if fam.kind == "D" else [1] * (max_degree + 1)
    return [
        {
            "check": "invariant-ray-dimensions",
            "ray": list(ray.coords),
            "dims": dims,
            "expected": expected,
            "pass": dims == expected,
        }
    ]


# Keyed by ``verify --which``; hilbert and git also take fiber positions (or
# None) and a degree bound.
SURFACE_CHECKS = {
    "sym2": _sym2_entries,
    "weights": _weights_entries,
    "hilbert": _hilbert_entries,
    "census": _census_entries,
    "git": _git_entries,
}


def _terms_doc(rel: Relation, names: list[str]) -> list[dict]:
    """The terms of a relation or quadric, each monomial by variable name."""
    return [{"coeff": str(coeff), "monomial": [names[i] for i in mono]} for coeff, mono in rel.terms]


def _system_doc(system: QuadricSystem, lattice: IntersectionLattice) -> dict:
    root_system = build_root_system(lattice)
    names = [v.name for v in system.variables]
    doc = {
        "variables": [
            {
                "name": v.name,
                "class": list(v.cls.coords),
                "weight": list(weight_of(root_system, v.cls)),
            }
            for v in system.variables
        ],
        "quadrics": [{"terms": _terms_doc(quad, names)} for quad in system.quadrics],
    }
    if system.substitution is not None:
        doc["substitution"] = [
            {"from": src, "scalar": str(scalar), "to": dst}
            for src, scalar, dst in system.substitution
        ]
    return doc


def quadrics_entries(lattice: IntersectionLattice, config: SurfaceConfigD | None) -> list[dict]:
    """The entry ``quadrics`` prints and C6 and C8 check.

    On (E, 3) and (D, 2) it is the tensor factorization of the line module,
    with the Segre system on (D, 2).  On the D family with n >= 3 it is the
    surface ideal at the fiber positions ``config`` (read on no other
    surface), the cone quadric and the certified embedding, whose rescaling
    must be all nonzero and keep the relation rank at n - 2.
    """
    fam = lattice.family
    if fam.is_appendix_case:
        report, segre = appendix_tensor_check(lattice)
        entry = dict(report, check="tensor-factorization")
        if segre is not None:
            entry["segre"] = _system_doc(segre, lattice)
        entry["pass"] = report["ok"] and (
            fam.kind == "E" or (segre is not None and len(segre.quadrics) == 1)
        )
        return [entry]
    if fam.kind != "D" or fam.n < 3:
        raise ValueError(
            "quadrics are emitted for the D family with n >= 3 and for "
            "the rank-drop cases (E,3) and (D,2)"
        )
    if config is None:
        raise ValueError("this command needs --points for the D family")
    presentation = dn_ideal(lattice, config)
    cone = cone_quadric_D(lattice)
    embedded, report = embed_cox_into_cone_D(lattice, config)
    generators = [
        {"name": g.name, "class": list(g.cls.coords)} for g in presentation.generators
    ]
    names = [g.name for g in presentation.generators]
    relations = [
        {"class": list(rel.cls.coords), "terms": _terms_doc(rel, names)}
        for rel in presentation.relations
    ]
    return [
        {
            "check": "surface-ideal-and-cone",
            "points": [str(t) for t in config.points],
            "generators": generators,
            "relations": relations,
            "cone": _system_doc(cone, lattice),
            "embedding": _system_doc(embedded, lattice),
            "certificate": report,
            "pass": report["certified"]
            and all(Fraction(x) != 0 for x in report["c"])
            and report["rank_before"] == report["rank_after"] == fam.n - 2,
        }
    ]


# Entry fields a failure detail leaves out: the polynomial systems of a
# quadrics entry and the full class list of a Hilbert entry.
_UNSHOWN = ("check", "pass", "family", "classes", "generators", "relations", "cone", "embedding", "segre")


def _shown(key: str, value) -> str:
    """``key value``; a Hilbert entry's mismatches as their count and the
    first three classes with both numbers, so the detail stays bounded."""
    if key != "mismatches":
        return f"{key} {value}"
    first = ", ".join(f"{m['class']} graded {m['graded']} section {m['section']}" for m in value[:3])
    return f"mismatches {len(value)}, first {first}"


def _failures(lattice: IntersectionLattice, entries: list[dict]) -> list[str]:
    """One detail string per failing entry: the surface, the check and the
    fields it compared."""
    label = f"({lattice.family.kind},{lattice.family.n})"
    return [
        f"{label} {entry['check']}: "
        + ", ".join(_shown(key, value) for key, value in sorted(entry.items()) if key not in _UNSHOWN)
        for entry in entries
        if not entry["pass"]
    ]


def _lat(kind: str, n: int) -> IntersectionLattice:
    return build_lattice(SurfaceFamily(kind, n))


def _sweep_lattices() -> list[IntersectionLattice]:
    sweeps = (("E", E_SWEEP), ("D", D_SWEEP), ("A", A_SWEEP))
    return [_lat(kind, n) for kind, sweep in sweeps for n in sweep]


def _naive_classes(lattice: IntersectionLattice, kind: str) -> frozenset[DivisorClass]:
    """Box search oracle: scan twice the coordinate spread of the fast result.

    The fast enumeration is provably complete, so its coordinate spread
    bounds the truth; doubling it gives the box room to expose any class a
    buggy pruning bound would have cut off.

    The K- and C-degree conditions are linear, so they are solved exactly
    for two pivot coordinates ``p, q`` (the first pair with a nonzero 2x2
    minor, by Cramer's rule) and only the other ``rank - 2`` coordinates of
    the box are scanned.  Every box point meeting both linear conditions is
    reached exactly once; the quadratic condition stays brute force.
    """
    self_int, k_int = KINDS[kind]
    fast = ENUMERATORS[kind](lattice)
    spread = max(
        (max(abs(c) for c in cls.coords) for cls in fast), default=1
    )
    bound = 2 * max(spread, 1)
    rank = lattice.rank
    units = [basis_class(lattice, label) for label in lattice.basis_labels]
    gk = [pair(lattice, e, lattice.K) for e in units]
    gc = [pair(lattice, e, lattice.C) for e in units]
    p, q = next(
        (i, j) for i in range(rank) for j in range(i + 1, rank) if gk[i] * gc[j] != gk[j] * gc[i]
    )
    minor = gk[p] * gc[q] - gk[q] * gc[p]
    free = [i for i in range(rank) if i not in (p, q)]
    coords = [0] * rank
    found = []
    for values in iterproduct(range(-bound, bound + 1), repeat=rank - 2):
        # Solve gk[p] x_p + gk[q] x_q = rk and gc[p] x_p + gc[q] x_q = rc.
        rk, rc = k_int, 0
        for i, v in zip(free, values):
            coords[i] = v
            rk -= gk[i] * v
            rc -= gc[i] * v
        xp, rem_p = divmod(rk * gc[q] - gk[q] * rc, minor)
        xq, rem_q = divmod(gk[p] * rc - gc[p] * rk, minor)
        if rem_p or rem_q or abs(xp) > bound or abs(xq) > bound:
            continue
        coords[p], coords[q] = xp, xq
        if (
            sum(a * b for a, b in zip(coords, gk)) != k_int
            or sum(a * b for a, b in zip(coords, gc)) != 0
        ):
            raise AssertionError(f"box point {coords} misses the K- or C-degree condition")
        cls = DivisorClass(tuple(coords))
        if pair(lattice, cls, cls) == self_int:
            found.append(cls)
    return frozenset(found)


def _check_enumeration_counts() -> list[str]:
    problems = []
    for lat in _sweep_lattices():
        label = f"({lat.family.kind},{lat.family.n})"
        for what, want in _count_predictions(lat).items():
            got = len(ENUMERATORS[what](lat))
            if got != want:
                problems.append(f"{label} {what} {got} != {want}")
        if lat.family.kind == "D" and enumerate_rulings(lat).classes != (basis_class(lat, "f"),):
            problems.append(f"{label} rulings != {{f}}")
    total = line_weight_multiset(build_root_system(_lat("E", 8))).total
    if total != 248:
        problems.append(f"(E,8) line module size {total} != 240 + 8")
    return problems


def _check_sym2_decomposition() -> list[str]:
    return [
        f"{problem}; predicted totals {_sym2_predictions(lat)}"
        for lat in _sweep_lattices()
        for problem in _failures(lat, _sym2_entries(lat))
    ]


def _check_weight_lemma() -> list[str]:
    return [p for lat in _sweep_lattices() for p in _failures(lat, _weights_entries(lat))]


def _check_dn_cox() -> list[str]:
    # The graded dimensions are standard-monomial counts, so C4 rests on the
    # certificate `CoxPresentation` checks (the leading monomials x_i y_i,
    # i >= 3, are pairwise coprime: a Groebner basis) and on the listing of
    # each class's monomials.  The class a f + sum c_i l_i has a_0 + 1
    # monomials with no factor x_i y_i, i >= 3, `section_dim`'s count, which
    # each dimension is checked against.  Elimination is the tier-1 oracle.
    # The presentation's ray 0f..3f, where a*f has degree 2a and a + 1
    # sections, comes from `_git_entries`, as for `verify --which git`.
    problems = []
    for n in (3, 4, 5):
        lat = _lat("D", n)
        config = SurfaceConfigD(tuple(range(n)))
        pres = dn_ideal(lat, config)
        if len(pres.generators) != 2 * n:
            problems.append(f"(D,{n}) generator count != {2 * n}")
        if len(pres.relations) != n - 2:
            problems.append(f"(D,{n}) relation count != {n - 2}")
        problems += _failures(lat, _hilbert_entries(lat, config, 6))
        problems += _failures(lat, _git_entries(lat, config, 3))
    return problems


def _check_census() -> list[str]:
    lattices = [_lat("E", n) for n in sorted(_E_CENSUS)] + [_lat("D", n) for n in (3, 4, 5)]
    return [p for lat in lattices for p in _failures(lat, _census_entries(lat))]


def _check_embedding() -> list[str]:
    problems = []
    for n in (3, 4, 5):
        lat = _lat("D", n)
        entries = quadrics_entries(lat, SurfaceConfigD(tuple(range(n))))
        problems += _failures(lat, entries)
        c = entries[0]["certificate"]["c"]
        if n == 3 and [Fraction(x) for x in c] != [-1, 2, -1]:
            problems.append(f"(D,3) ray {c} != (-1, 2, -1)")
    return problems


def _check_torus_git() -> list[str]:
    # Relations are torus homogeneous by construction: `CoxPresentation`
    # and `QuadricSystem` refuse a term outside its relation's class, and a
    # torus character depends on the class alone.  So the cone quadrics
    # that C6 builds are class and weight homogeneous too.
    d3, d4, a3, e6 = _lat("D", 3), _lat("D", 4), _lat("A", 3), _lat("E", 6)
    config3 = SurfaceConfigD(tuple(range(3)))
    problems = [
        p
        for lat, config, max_k in ((d4, None, 5), (d3, None, 5), (d3, config3, 5), (a3, None, 4))
        for p in _failures(lat, _git_entries(lat, config, max_k))
    ]
    if git_hilbert(d4, basis_class(d4, "s"), 5) != [1, 2, 3, 4, 5, 6]:
        problems.append("(D,4) s alias for the f ray failed")
    try:
        git_hilbert(e6, basis_class(e6, "l1"), 2)
        problems.append("E-family linearization unexpectedly accepted")
    except ValueError:
        pass
    gen_weights = {torus_character(e6, cls)[1] for _, cls in cox_generators(e6)}
    if len(gen_weights) != 27:
        problems.append("(E,6) generator characters are not pairwise distinct")
    e8 = _lat("E", 8)
    _, shift_weight = torus_character(e8, anticanonical_shift(e8))
    if any(shift_weight):
        problems.append("(E,8) extra generators have nonzero small-torus weight")
    return problems


def _check_appendix() -> list[str]:
    return [p for lat in (_lat("E", 3), _lat("D", 2)) for p in _failures(lat, quadrics_entries(lat, None))]


def _check_oracles() -> list[str]:
    # Imported here, not at module level: only this check draws random
    # numbers, and every cold CLI call would otherwise pay for the import.
    import random

    problems = []
    for kind, n in BOX_SURFACES:
        lat = _lat(kind, n)
        for what, fast_fn in ENUMERATORS.items():
            if _naive_classes(lat, what) != fast_fn(lat).as_set():
                problems.append(f"({kind},{n}) {what} differ from the box search")
    for kind, n, extra_zero in (("A", 1, 0), ("A", 2, 0), ("A", 3, 0), ("D", 3, 1)):
        system = build_root_system(_lat(kind, n))
        lam = weight_of(system, line_highest_class(system.lattice))
        lam2 = tuple(2 * x for x in lam)
        left = sym2_multiset(line_weight_multiset(system))
        right = freudenthal(system, lam2)
        if extra_zero:
            right = right.add(
                WeightMultiset.from_dict({(0,) * system.rank: extra_zero})
            )
        if left != right:
            problems.append(f"({kind},{n}) symmetric square differs from the recursion")
        if weyl_dim(system, lam2) != freudenthal(system, lam2).total:
            problems.append(f"({kind},{n}) dimension formula disagrees with the recursion")
    if classify_type(build_root_system(_lat("D", 3))) != "A3":
        problems.append("(D,3) does not classify as A3")
    if classify_type(build_root_system(_lat("A", 3))) != "A3":
        problems.append("(A,3) does not classify as A3")
    pools = []
    for lat in _sweep_lattices():
        system = build_root_system(lat)
        if not is_weyl_invariant(system, line_weight_multiset(system)):
            problems.append(f"({lat.family.kind},{lat.family.n}) line module not reflection invariant")
        pools.append((lat, enumerate_roots(lat).classes))
    rng = random.Random(0)
    for _ in range(10_000):
        lat, roots = pools[rng.randrange(len(pools))]
        x = DivisorClass(tuple(rng.randint(-5, 5) for _ in range(lat.rank)))
        y = DivisorClass(tuple(rng.randint(-5, 5) for _ in range(lat.rank)))
        alpha = roots[rng.randrange(len(roots))]
        rx = reflect(lat, x, alpha)
        ry = reflect(lat, y, alpha)
        if pair(lat, rx, ry) != pair(lat, x, y):
            problems.append("reflection failed to preserve the pairing")
            break
        if reflect(lat, rx, alpha) != x:
            problems.append("reflection is not an involution")
            break
    return problems


class CheckResult(_Frozen):
    __slots__ = _fields = ("check_id", "passed", "details")


class Check(_Frozen):
    __slots__ = _fields = ("check_id", "description", "fn", "summary")

    def run(self) -> CheckResult:
        """Pass with the summary if ``fn`` returns no problem, else fail with
        the problems; a check that raises fails, naming the exception."""
        try:
            problems = self.fn()
        except Exception as exc:
            return CheckResult(self.check_id, False, f"raised {type(exc).__name__}: {exc}")
        return CheckResult(self.check_id, not problems, "; ".join(problems) or self.summary)


CHECKS: tuple[Check, ...] = (
    Check("C1", "enumeration counts for lines, rulings and roots", _check_enumeration_counts,
          "line/ruling/root counts match for all families; (E,8) reconciles 240 + 8 = 248"),
    Check("C2", "symmetric square splits off the doubled-line module", _check_sym2_decomposition,
          "symmetric squares split as predicted for all families, up to (E,8) with 30876 = 27000 + 3876"),
    Check("C3", "line orbits and line/ruling module identifications", _check_weight_lemma,
          "line orbits match enumeration; line/ruling modules identified for all E cases"),
    Check("C4", "D-family ring: generators, relations, graded dimensions", _check_dn_cox,
          "D-family rings: 2n generators, n-2 relations, graded dims equal section counts to degree 6"),
    Check("C5", "quadratic relation census per class", _check_census,
          "quadric counts per class: 1/2/3/4 per ruling for E4..E7, (28,3,25) at E7, (123,4,119) at E8"),
    Check("C6", "surface-to-cone embedding with membership certificate", _check_embedding,
          "cone quadric maps into the surface ideal with all-nonzero rescaling for n = 3, 4, 5"),
    Check("C7", "torus homogeneity and invariant-ray Hilbert functions", _check_torus_git,
          "relations are class- and weight-homogeneous; invariant rays give 1..k+1 (D) and all ones (A)"),
    Check("C8", "rank-drop tensor factorizations and Segre quadric", _check_appendix,
          "line modules factor as 3x2 for (E,3) and 2x2 for (D,2) with the Segre quadric in class f"),
    Check("C9", "independent oracles and randomized reflection properties", _check_oracles,
          "box-search, symmetric-square, classification and 10^4 reflection checks all agree"),
)


def run_selftest(stream=None) -> int:
    """Run all registered checks, print one row each, return 0 or 1."""
    out = stream if stream is not None else sys.stdout
    results = [check.run() for check in CHECKS]
    width = max(len(check.description) for check in CHECKS)
    for check, result in zip(CHECKS, results):
        status = "PASS" if result.passed else "FAIL"
        print(f"{check.check_id}  {status}  {check.description:<{width}}  {result.details}", file=out)
    passed = sum(1 for r in results if r.passed)
    print(f"selftest: {passed}/{len(results)} checks passed", file=out)
    return 0 if passed == len(results) else 1
