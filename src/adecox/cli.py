"""Command line entry points.

Four subcommands: ``enumerate`` lists curve classes, ``verify`` reruns one
named identity and reports the integers compared, ``quadrics`` emits the
explicit polynomial systems for the D family and the two rank-drop cases,
and ``selftest`` runs the full check registry.

Output is deterministic: JSON is serialized with sorted keys, rationals are
rendered as ``p/q`` strings, and divisor classes as integer arrays in the
fixed basis order.  CSV is available only for the flat tables (enumeration
and the invariant-ray dimensions).  Exit codes: 0 all checks pass, 1 a
mathematical comparison failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .cox import (
    SurfaceConfigD,
    cox_presentation,
    dn_ideal,
    git_hilbert,
    relation_census,
    verify_hilbert,
)
from .curves import ENUMERATORS, enumerate_lines, enumerate_rulings
from .flag import QuadricSystem, appendix_tensor_check, cone_quadric_D, embed_cox_into_cone_D
from .lattice import DivisorClass, IntersectionLattice, SurfaceFamily, basis_class, build_lattice
from .roots import build_root_system, weyl_orbit
from .selftest import _census_predictions, run_selftest
from .weights import decompose_sym2, line_highest_class, verify_weight_lemma


def _build_lattice_from(args) -> IntersectionLattice:
    return build_lattice(SurfaceFamily(args.family, args.n))


def _config_from(args) -> SurfaceConfigD | None:
    """The fiber positions given by ``--points``, or None without it."""
    if args.points is None:
        return None
    text = args.points
    try:
        points = tuple(Fraction(token.strip()) for token in text.split(",") if token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse points {text!r}: {exc}") from exc
    return SurfaceConfigD(points)


def _system_doc(system: QuadricSystem) -> dict:
    doc = {
        "variables": [
            {
                "name": v.name,
                "class": list(v.cls.coords),
                "weight": list(v.weight),
            }
            for v in system.variables
        ],
        "quadrics": [
            {
                "terms": [
                    {"coeff": str(coeff), "monomial": list(mono)}
                    for coeff, mono in quad.terms
                ]
            }
            for quad in system.quadrics
        ],
    }
    if system.substitution is not None:
        doc["substitution"] = [
            {"from": src, "scalar": str(scalar), "to": dst}
            for src, scalar, dst in system.substitution
        ]
    return doc


def _emit(doc: dict, args, csv_rows=None) -> None:
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        if csv_rows is None:
            raise ValueError(
                "csv output is only available for flat tables "
                "(enumerate, verify --which git)"
            )
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args) -> int:
    lattice = _build_lattice_from(args)
    classes = ENUMERATORS[args.what](lattice)
    doc = {
        "command": "enumerate",
        "family": lattice.family.kind,
        "n": lattice.family.n,
        "results": [
            {
                "kind": args.what,
                "count": len(classes),
                "basis": list(lattice.basis_labels),
                "classes": [list(c.coords) for c in classes],
            }
        ],
    }
    csv_rows = [list(lattice.basis_labels)] + [list(c.coords) for c in classes]
    _emit(doc, args, csv_rows=csv_rows)
    return 0


def _verify_sym2(lattice: IntersectionLattice) -> list[dict]:
    system = build_root_system(lattice)
    _, _, report = decompose_sym2(system)
    ok = (
        report["w_matches_expected"]
        and report["sym2_total"] == report["v_total"] + report["w_total"]
    )
    entry = dict(report)
    entry["check"] = "sym2-decomposition"
    entry["pass"] = ok
    return [entry]


def _verify_weights(lattice: IntersectionLattice) -> list[dict]:
    system = build_root_system(lattice)
    orbit = weyl_orbit(system, line_highest_class(lattice))
    orbit_ok = orbit.as_set() == enumerate_lines(lattice).as_set()
    report = verify_weight_lemma(system)
    entry = dict(report)
    entry["check"] = "line-and-ruling-modules"
    entry["line_orbit_matches"] = orbit_ok
    entry["pass"] = bool(report["ok"] and orbit_ok)
    return [entry]


def _verify_hilbert(lattice: IntersectionLattice, args) -> list[dict]:
    presentation = cox_presentation(lattice, _config_from(args))
    report = verify_hilbert(presentation, lattice, args.max_degree)
    entry = dict(report)
    entry["check"] = "graded-vs-section-dimensions"
    entry["pass"] = report["ok"]
    return [entry]


def _census_entry(lattice: IntersectionLattice, check: str, target: DivisorClass) -> dict:
    census = relation_census(lattice, target)
    return {
        "check": check,
        "target": list(target.coords),
        "monomials": census.monomials,
        "sections": census.sections,
        "relations": census.relations,
    }


def _verify_census(lattice: IntersectionLattice) -> list[dict]:
    per_ruling, expected_total, classes = _census_predictions(lattice)
    entries: list[dict] = []
    if per_ruling is not None:
        for ruling in enumerate_rulings(lattice):
            entry = _census_entry(lattice, "ruling-census", ruling)
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
        entry = _census_entry(lattice, check, target)
        entry["expected"] = list(expected)
        entry["pass"] = (entry["monomials"], entry["sections"], entry["relations"]) == expected
        entries.append(entry)
    return entries


def _verify_git(lattice: IntersectionLattice, args) -> tuple[list[dict], list[list]]:
    fam = lattice.family
    max_k = args.max_degree
    if fam.kind == "D":
        ray = basis_class(lattice, "f")
        expected = list(range(1, max_k + 2))
    elif fam.kind == "A":
        ray = basis_class(lattice, "l1")
        expected = [1] * (max_k + 1)
    else:
        raise ValueError("git verification covers the A and D families")
    dims = git_hilbert(lattice, ray, max_k)
    entry = {
        "check": "invariant-ray-dimensions",
        "ray": list(ray.coords),
        "dims": dims,
        "expected": expected,
        "pass": dims == expected,
    }
    csv_rows = [["k", "dim"]] + [[k, dim] for k, dim in enumerate(dims)]
    return [entry], csv_rows


def cmd_verify(args) -> int:
    lattice = _build_lattice_from(args)
    csv_rows = None
    if args.which == "sym2":
        entries = _verify_sym2(lattice)
    elif args.which == "weights":
        entries = _verify_weights(lattice)
    elif args.which == "hilbert":
        entries = _verify_hilbert(lattice, args)
    elif args.which == "census":
        entries = _verify_census(lattice)
    else:
        entries, csv_rows = _verify_git(lattice, args)
    doc = {
        "command": "verify",
        "family": lattice.family.kind,
        "n": lattice.family.n,
        "results": entries,
    }
    _emit(doc, args, csv_rows=csv_rows)
    return 0 if all(entry["pass"] for entry in entries) else 1


def cmd_quadrics(args) -> int:
    lattice = _build_lattice_from(args)
    fam = lattice.family
    if fam.is_appendix_case:
        report, segre = appendix_tensor_check(lattice)
        result = dict(report)
        result["check"] = "tensor-factorization"
        result["pass"] = report["ok"]
        if segre is not None:
            result["segre"] = _system_doc(segre)
        doc = {
            "command": "quadrics",
            "family": fam.kind,
            "n": fam.n,
            "results": [result],
        }
        _emit(doc, args)
        return 0 if report["ok"] else 1
    if fam.kind != "D" or fam.n < 3:
        raise ValueError(
            "quadrics are emitted for the D family with n >= 3 and for "
            "the rank-drop cases (E,3) and (D,2)"
        )
    config = _config_from(args)
    if config is None:
        raise ValueError("this command needs --points for the D family")
    presentation = dn_ideal(lattice, config)
    cone = cone_quadric_D(lattice)
    embedded, report = embed_cox_into_cone_D(lattice, config)
    generators = [
        {"name": g.name, "class": list(g.cls.coords)} for g in presentation.generators
    ]
    relations = [
        {
            "class": list(rel.cls.coords),
            "terms": [
                {
                    "coeff": str(coeff),
                    "monomial": [presentation.generators[i].name for i in mono],
                }
                for coeff, mono in rel.terms
            ],
        }
        for rel in presentation.relations
    ]
    doc = {
        "command": "quadrics",
        "family": fam.kind,
        "n": fam.n,
        "results": [
            {
                "check": "surface-ideal-and-cone",
                "points": [str(t) for t in config.points],
                "generators": generators,
                "relations": relations,
                "cone": _system_doc(cone),
                "embedding": _system_doc(embedded),
                "certificate": report,
                "pass": report["certified"],
            }
        ],
    }
    _emit(doc, args)
    return 0 if report["certified"] else 1


def cmd_selftest(args) -> int:
    if args.format == "csv":
        raise ValueError("csv output is not available for selftest")
    buffer = io.StringIO()
    code = run_selftest(buffer)
    text = buffer.getvalue()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adecox",
        description="Exact lattice, weight and section-ring computations "
        "for marked rational surfaces of types A, D and E.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (csv only for flat tables)",
    )
    common.add_argument("--out", default=None, help="write output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", parents=[common], help="list roots, lines or rulings"
    )
    p_enum.add_argument("--family", required=True, choices=("A", "D", "E"))
    p_enum.add_argument("--n", required=True, type=int)
    p_enum.add_argument(
        "--what", required=True, choices=("roots", "lines", "rulings")
    )
    p_enum.set_defaults(handler=cmd_enumerate)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="rerun one verification and report it"
    )
    p_verify.add_argument("--family", required=True, choices=("A", "D", "E"))
    p_verify.add_argument("--n", required=True, type=int)
    p_verify.add_argument(
        "--which",
        required=True,
        choices=("sym2", "weights", "hilbert", "census", "git"),
    )
    p_verify.add_argument(
        "--points", default=None, help="comma separated rationals, e.g. 0,1,2"
    )
    p_verify.add_argument(
        "--max-degree",
        type=int,
        default=4,
        dest="max_degree",
        help="degree cap for hilbert, ray length for git",
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_quad = sub.add_parser(
        "quadrics", parents=[common], help="emit ideals, cone quadrics, embeddings"
    )
    p_quad.add_argument("--family", required=True, choices=("A", "D", "E"))
    p_quad.add_argument("--n", required=True, type=int)
    p_quad.add_argument(
        "--points", default=None, help="comma separated rationals, e.g. 0,1,2"
    )
    p_quad.set_defaults(handler=cmd_quadrics)

    p_self = sub.add_parser(
        "selftest", parents=[common], help="run the full check registry"
    )
    p_self.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
