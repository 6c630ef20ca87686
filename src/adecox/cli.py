"""Command line entry points.

Four subcommands: ``enumerate`` lists curve classes, ``verify`` reruns one
named identity and reports the integers compared, ``quadrics`` emits the
explicit polynomial systems for the D family and the two rank-drop cases,
and ``selftest`` runs the full check registry.

``verify --which X`` prints the entries of the per-surface check
``selftest.SURFACE_CHECKS[X]``, the same function the selftest sweeps call,
and ``quadrics`` prints the entry of ``selftest.quadrics_entries``, the one
C6 and C8 check.  Every ``pass`` printed comes from those functions.
Only ``hilbert`` and ``git`` take ``--points`` and ``--max-degree``; the
other checks refuse both.  ``git`` with points computes the ray dimensions
as standard-monomial counts on the presentation.

Output is deterministic: JSON is serialized with sorted keys, rationals are
rendered as ``p/q`` strings, and divisor classes as integer arrays in the
fixed basis order.  CSV is available only for the flat tables (enumeration
and the invariant-ray dimensions).  Exit codes: 0 all checks pass, 1 a
mathematical comparison failed, 2 invalid input or an ``--out`` file that
cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from .cox import SurfaceConfigD
from .curves import ENUMERATORS
from .lattice import IntersectionLattice, SurfaceFamily, build_lattice
from .selftest import SURFACE_CHECKS, quadrics_entries, run_selftest


# Largest n each command accepts; only A and D reach it, since E stops at 8.
# Each is the largest round n whose costliest run stays near 3 s cold and
# under 250 MB peak RSS (Python 3.11.7, 2 vCPU Intel Xeon): enumerate
# --what roots on D100 takes 2.3 s at 236 MB (D150: 7.1 s at 743 MB),
# verify --which sym2 on D100 2.8 s at 122 MB (D120: 4.7 s at 196 MB), and
# quadrics on D160 2.9 s at 159 MB (D200: 6.1 s at 275 MB).
N_LIMITS = {"enumerate": 100, "verify": 100, "quadrics": 160}


def _build_lattice_from(args) -> IntersectionLattice:
    family = SurfaceFamily(args.family, args.n)
    limit = N_LIMITS[args.command]
    if family.n > limit:
        raise ValueError(f"{args.command} accepts n <= {limit}, got {family.label}")
    return build_lattice(family)


def _config_from(args) -> SurfaceConfigD | None:
    """The fiber positions given by ``--points``, or None without it."""
    if args.points is None:
        return None
    text = args.points
    if not isinstance(text, str):  # argparse turns --points=-- into []
        raise ValueError("--points takes one comma separated list of rationals")
    tokens = [token.strip() for token in text.split(",")]
    # Fraction expands 1eN to 10**N with no bound on N; every other literal's
    # digits stay under int's 4,300-digit limit.
    if any("e" in token or "E" in token for token in tokens):
        raise ValueError(f"cannot parse points {text!r}: exponent notation is not accepted")
    for token in tokens:
        if not re.fullmatch(r"[+-]?[0-9]+([./][0-9]+)?", token):
            raise ValueError(f"cannot parse points {text!r}: {token!r} is not an integer, p/q or decimal")
    try:
        return SurfaceConfigD(tuple(Fraction(token) for token in tokens))
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot parse points {text!r}: {exc}") from exc


def _write_out(path: str, text: str) -> None:
    """Write ``text`` to the ``--out`` file; a path that cannot be written is
    invalid input."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def _emit(args, lattice: IntersectionLattice, results: list[dict], csv_rows=None) -> None:
    """Write the ``{command, family, n, results}`` document, or ``csv_rows``."""
    if args.format == "json":
        doc = {
            "command": args.command,
            "family": lattice.family.kind,
            "n": lattice.family.n,
            "results": results,
        }
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
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args) -> int:
    lattice = _build_lattice_from(args)
    classes = ENUMERATORS[args.what](lattice)
    result = {
        "kind": args.what,
        "count": len(classes),
        "basis": list(lattice.basis_labels),
        "classes": [list(c.coords) for c in classes],
    }
    csv_rows = [list(lattice.basis_labels)] + [list(c.coords) for c in classes]
    _emit(args, lattice, [result], csv_rows=csv_rows)
    return 0


def cmd_verify(args) -> int:
    lattice = _build_lattice_from(args)
    check = SURFACE_CHECKS[args.which]
    if args.which in ("hilbert", "git"):
        max_degree = 4 if args.max_degree is None else args.max_degree
        entries = check(lattice, _config_from(args), max_degree)
    elif args.points is not None or args.max_degree is not None:
        raise ValueError(f"verify --which {args.which} takes neither --points nor --max-degree")
    else:
        entries = check(lattice)
    csv_rows = None
    if args.which == "git":
        csv_rows = [["k", "dim"]] + [[k, dim] for k, dim in enumerate(entries[0]["dims"])]
    _emit(args, lattice, entries, csv_rows=csv_rows)
    return 0 if all(entry["pass"] for entry in entries) else 1


def cmd_quadrics(args) -> int:
    lattice = _build_lattice_from(args)
    fam = lattice.family
    if fam.is_appendix_case and args.points is not None:
        raise ValueError(f"quadrics on {fam.label} takes no --points")
    # Points are parsed only where they are used, so other surfaces are
    # refused for the family first.
    config = _config_from(args) if fam.kind == "D" and fam.n >= 3 else None
    entries = quadrics_entries(lattice, config)
    _emit(args, lattice, entries)
    return 0 if all(entry["pass"] for entry in entries) else 1


def cmd_selftest(args) -> int:
    if args.format == "csv":
        raise ValueError("csv output is not available for selftest")
    if args.out:
        # Refuse an unwritable path before the checks run.
        _write_out(args.out, "")
    buffer = io.StringIO()
    code = run_selftest(buffer)
    text = buffer.getvalue()
    if args.out:
        _write_out(args.out, text)
    sys.stdout.write(text)
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
    surface = argparse.ArgumentParser(add_help=False)
    surface.add_argument("--family", required=True, choices=("A", "D", "E"))
    surface.add_argument("--n", required=True, type=int)
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", parents=[common, surface], help="list roots, lines or rulings"
    )
    p_enum.add_argument(
        "--what", required=True, choices=("roots", "lines", "rulings")
    )
    p_enum.set_defaults(handler=cmd_enumerate)

    p_verify = sub.add_parser(
        "verify", parents=[common, surface], help="rerun one verification and report it"
    )
    p_verify.add_argument("--which", required=True, choices=tuple(SURFACE_CHECKS))
    p_verify.add_argument(
        "--points", default=None, help="comma separated rationals, e.g. 0,1,2 (hilbert, git)"
    )
    p_verify.add_argument(
        "--max-degree",
        type=int,
        default=None,
        dest="max_degree",
        help="degree cap for hilbert, ray length for git (default 4)",
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_quad = sub.add_parser(
        "quadrics", parents=[common, surface], help="emit ideals, cone quadrics, embeddings"
    )
    p_quad.add_argument(
        "--points", default=None, help="comma separated rationals, e.g. 0,1,2 (D with n >= 3)"
    )
    p_quad.set_defaults(handler=cmd_quadrics)

    p_self = sub.add_parser(
        "selftest", parents=[common], help="run the full check registry"
    )
    p_self.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value starting with "-" for an option, so a point list
    # such as -1,0,2 is joined to its flag first.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--points" and not argv[i + 1].startswith("--"):
            argv[i : i + 2] = [f"--points={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
