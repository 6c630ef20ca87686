"""Seeded op lists for the cold workloads and the exact checks on their results.

An op is a JSON-ready dict that ``worker.py`` runs in a fresh interpreter.
One *cycle* is the fixed list of ops a workload repeats.  The seed picks the
fiber positions, the sizes of the cheap ops and the order; the sizes of the
expensive ops are fixed, so every seed asks for the same amount of work and
the run-to-run spread stays small.

The checks compare each result by exact equality with invariants the package
states (selftest count tables, closed-form section dimensions, the sym2 and
module totals).  They are written out here, independently of the package
code, so a wrong number cannot be checked against itself.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# adecox.cox.MONOMIAL_CAP when this benchmark was defined, and the guard
# message of cox._degree_buckets.  Only a graded piece whose monomial count
# is past this cap may be refused with that message; see ``past_cap``.
MONOMIAL_CAP = 200_000
CAP_REFUSAL = "exceeds the cap"

LINES = {"E": {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}}
RULINGS = {"E": {3: 3, 4: 5, 5: 10, 6: 27, 7: 126, 8: 2160}}
# E3..E5 are A2xA1, A4 and D5 with 8, 20 and 40 roots.
ROOTS = {"E": {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}}
E_SYM2 = {
    3: (21, 18, 3),
    4: (55, 50, 5),
    5: (136, 126, 10),
    6: (378, 351, 27),
    7: (1596, 1463, 133),
    8: (30876, 27000, 3876),
}
# Total of the module generated by the highest line weight: the lines, plus
# the eight zero weights of (E, 8).
E_LINE_MODULE = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 248}
# Module generated by the h - l1 weight: the rulings for n <= 6, plus seven
# zero weights at n = 7, the 3875-dimensional module at n = 8.
E_RULING_MODULE = {3: 3, 4: 5, 5: 10, 6: 27, 7: 133, 8: 3875}
E_CENSUS_PER_RULING = {4: 1, 5: 2, 6: 3, 7: 4}
E_CENSUS_TOTAL = {4: 5, 5: 20, 6: 81, 7: 504}


class Mismatch(Exception):
    """A result differs from its exact expected value."""


def count(kind: str, family: str, n: int) -> int:
    if family == "E":
        return {"lines": LINES, "rulings": RULINGS, "roots": ROOTS}[kind]["E"][n]
    if family == "D":
        return {"lines": 2 * n, "rulings": 1, "roots": 2 * n * (n - 1)}[kind]
    return {"lines": n + 1, "rulings": 0, "roots": n * (n + 1)}[kind]


def sym2_totals(family: str, n: int) -> tuple[int, int, int]:
    """(sym2 total, top module total, complement total) of the line weights."""
    if family == "E":
        return E_SYM2[n]
    if family == "D":
        return n * (2 * n + 1), 2 * n * n + n - 1, 1
    t = (n + 1) * (n + 2) // 2
    return t, t, 0


def line_module_total(family: str, n: int) -> int:
    return E_LINE_MODULE[n] if family == "E" else count("lines", family, n)


def positions(rng: random.Random, n: int) -> list[str]:
    """n pairwise-distinct rational fiber positions p/q with 2 <= q <= 9."""
    seen: set[Fraction] = set()
    out = []
    while len(out) < n:
        q = rng.randint(2, 9)
        t = Fraction(rng.randint(-4 * q, 4 * q), q)
        if t not in seen:
            seen.add(t)
            out.append(str(t))
    return out


def d_classes(n: int, max_degree: int):
    """Classes of D-family monomials of degree <= max_degree, with dimensions.

    A monomial with x-exponents a_i and y-exponents b_i has class
    ``B f + sum c_i l_i`` with ``c_i = a_i - b_i`` and ``B = sum b_i``, so
    the classes of degree d are the c with ``|c|_1 <= d`` and
    ``sum c = d (mod 2)``, at ``B = (d - sum c) / 2``.  Their section
    dimension is ``(d - |c|_1) / 2 + 1``.  Yields (coords, degree, dim).
    """

    def vectors(m: int, budget: int):
        if m == 0:
            yield ()
            return
        for c in range(-budget, budget + 1):
            for tail in vectors(m - 1, budget - abs(c)):
                yield (c,) + tail

    for c in vectors(n, max_degree):
        norm = sum(abs(x) for x in c)
        for d in range(norm, max_degree + 1, 2):
            yield ((d - sum(c)) // 2, 0, *c), d, (d - norm) // 2 + 1


def past_cap(op: dict) -> bool:
    """True for a graded piece at k*f of D_n with more than MONOMIAL_CAP
    monomials: degree 2k in 2n variables, C(2n + 2k - 1, 2k) of them."""
    if op["kind"] != "graded_piece_dim":
        return False
    n, k = op["n"], op["k"]
    return math.comb(2 * n + 2 * k - 1, 2 * k) > MONOMIAL_CAP


def _cold(kind: str, **fields) -> dict:
    return {"kind": kind, **fields}


def ring_cycle(rng: random.Random) -> list[dict]:
    """Section-ring ops: monomial bucketing and exact rank do the work."""
    ops = []
    for n, degree in ((4, 6), (5, 6), (6, 6), (7, 5)):
        ops.append(_cold("verify_hilbert", n=n, degree=degree, points=positions(rng, n)))
    # D5 at 6f and D7 at 4f need 293,930 and 203,490 monomials, just past
    # MONOMIAL_CAP = 200,000.
    for n, ks in ((4, (3, 4, 5, 6)), (5, (3, 4, 5, 6)), (7, (4,))):
        for k in ks:
            ops.append(_cold("graded_piece_dim", n=n, k=k, points=positions(rng, n)))
    for n, max_k in ((3, 6), (4, 5)):
        ops.append(_cold("git_hilbert", n=n, max_k=max_k, points=positions(rng, n)))
    for lo, hi in ((3, 8), (9, 16), (17, 24), (3, 24)):
        n = rng.randint(lo, hi)
        ops.append(_cold("embed", n=n, points=positions(rng, n)))
    for _ in range(4):
        n = rng.randint(3, 10)
        # --points=... because a position may start with a minus sign.
        argv = ["quadrics", "--family", "D", "--n", str(n), "--points=" + ",".join(positions(rng, n))]
        ops.append(_cold("cli", argv=argv))
    for check in ("C4", "C6", "C7"):
        ops.append(_cold("selftest", check=check))
    rng.shuffle(ops)
    return ops


def _small(rng: random.Random, families=("E", "D", "A")) -> tuple[str, int]:
    """A seeded member whose ops cost little beyond interpreter start."""
    family = rng.choice(families)
    n = {"E": rng.randint(3, 7), "D": rng.randint(2, 12), "A": rng.randint(1, 20)}[family]
    return family, n


def weyl_cycle(rng: random.Random) -> list[dict]:
    """Curve, root and weight ops: no cox monomials and no exact rank.

    The members whose ops cost more than interpreter start are fixed (E8,
    D16, D24, A27, A40, and root enumeration on A100 and D80); the seed
    picks the cheap members, so it moves no op across the percentiles.
    """
    ops = []
    for family, n in [("E", n) for n in range(3, 9)] + [
        _small(rng, ("D",)), ("D", 16), ("D", 24), _small(rng, ("A",)), ("A", 27), ("A", 40),
    ]:
        ops.append(_cold("sym2", family=family, n=n))
    for family, n in (("E", rng.randint(3, 8)), _small(rng, ("D",)), _small(rng, ("A",)), ("D", 24), ("A", 40)):
        ops.append(_cold("weight_lemma", family=family, n=n))
    for family, n in (("E", 8), ("D", 24), ("A", 40), _small(rng, ("E",)), _small(rng, ("D",)), _small(rng, ("A",))):
        ops.append(_cold("weyl_dim", family=family, n=n))
    for family, n in (("E", rng.randint(3, 8)), _small(rng, ("D",)), _small(rng, ("A",))):
        ops.append(_cold("orbit", family=family, n=n, which="lines"))
    for n in (8, rng.randint(3, 7)):
        ops.append(_cold("orbit", family="E", n=n, which="rulings"))
    for what in ("roots", "lines", "rulings"):
        family, n = _small(rng)
        ops.append(_cold("enumerate", family=family, n=n, what=what))
    ops.append(_cold("enumerate", family="A", n=100, what="roots"))
    ops.append(_cold("enumerate", family="D", n=80, what="roots"))
    for _ in range(2):
        family, n = _small(rng)
        what = rng.choice(("roots", "lines", "rulings"))
        ops.append(_cold("cli", argv=["enumerate", "--family", family, "--n", str(n), "--what", what]))
    census = rng.choice([("E", 4), ("E", 5), ("E", 6), ("E", 8)] + [("D", n) for n in range(3, 9)])
    for which, (family, n) in (
        ("sym2", ("E", 8)),
        ("sym2", _small(rng, ("D", "A"))),
        ("weights", _small(rng)),
        ("census", ("E", 7)),
        ("census", census),
    ):
        ops.append(_cold("cli", argv=["verify", "--family", family, "--n", str(n), "--which", which]))
    for check in ("C1", "C2", "C3", "C5", "C8", "C9"):
        ops.append(_cold("selftest", check=check))
    rng.shuffle(ops)
    return ops


CYCLES = {"ring": ring_cycle, "weyl": weyl_cycle}


def label(op: dict) -> str:
    """Short human-readable name of an op, for reports and the trace file."""
    kind = op["kind"]
    if kind == "cli":
        argv = op["argv"]
        fam = argv[argv.index("--family") + 1] + argv[argv.index("--n") + 1]
        extra = argv[argv.index("--which") + 1] if "--which" in argv else ""
        return f"cli.{argv[0]}{'.' + extra if extra else ''}:{fam}"
    if kind == "selftest":
        return f"selftest:{op['check']}"
    fam = op.get("family", "D") + str(op["n"])
    if kind == "graded_piece_dim":
        return f"graded_piece_dim:{fam}:{op['k']}f"
    if kind == "verify_hilbert":
        return f"verify_hilbert:{fam}:deg{op['degree']}"
    return f"{kind}:{fam}"


# ---------------------------------------------------------------- checks


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _check_embedding(n: int, points: list[str], c: list[str], ranks) -> None:
    """The rescaling must be all-nonzero and lie in the relation row space.

    Every relation row is orthogonal to (1, ..., 1) and to (t_1, ..., t_n),
    and the n - 2 rows span exactly that complement, so c is in the row
    space iff ``sum c_j = 0`` and ``sum c_j t_j = 0``.
    """
    cs = [Fraction(x) for x in c]
    ts = [Fraction(x) for x in points]
    _expect("rescaling length", len(cs), n)
    if any(x == 0 for x in cs):
        raise Mismatch(f"rescaling has a zero coefficient: {c}")
    _expect("sum of rescaling", sum(cs), 0)
    _expect("rescaling paired with positions", sum(a * b for a, b in zip(cs, ts)), 0)
    _expect("rank before and after", tuple(ranks), (n - 2, n - 2))


def _check_census_doc(family: str, n: int, entries: list[dict]) -> None:
    if family == "D":
        e = entries[0]
        _expect(f"D{n} census", (e["monomials"], e["sections"], e["relations"]), (n, 2, n - 2))
        return
    got: dict[str, list] = {}
    for e in entries:
        got.setdefault(e["check"], []).append(e)
    if n in E_CENSUS_PER_RULING:
        per = [e["relations"] for e in got["ruling-census"]]
        _expect(f"E{n} rulings in census", len(per), RULINGS["E"][n])
        _expect(f"E{n} relations per ruling", set(per), {E_CENSUS_PER_RULING[n]})
        _expect(f"E{n} relation total", got["ruling-census-total"][0]["relations_total"], E_CENSUS_TOTAL[n])
    triple = lambda e: (e["monomials"], e["sections"], e["relations"])  # noqa: E731
    if n == 7:
        _expect("E7 anticanonical census", triple(got["anticanonical-census"][0]), (28, 3, 25))
    if n == 8:
        _expect("E8 anticanonical census", triple(got["anticanonical-census"][0]), (2, 2, 0))
        _expect("E8 doubled census", triple(got["doubled-anticanonical-census"][0]), (123, 4, 119))


def _check_cli(op: dict, out: dict) -> None:
    argv = op["argv"]
    _expect(f"exit code of {' '.join(argv)}", out["exit"], 0)
    try:
        doc = json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        raise Mismatch(f"cli output is not JSON: {exc}") from exc
    family = argv[argv.index("--family") + 1]
    n = int(argv[argv.index("--n") + 1])
    results = doc["results"]
    if argv[0] == "enumerate":
        what = argv[argv.index("--what") + 1]
        want = count(what, family, n)
        _expect(f"{what} count of {family}{n}", results[0]["count"], want)
        _expect(f"{what} listed for {family}{n}", len(results[0]["classes"]), want)
    elif argv[0] == "quadrics":
        r = results[0]
        _expect("quadrics pass", r["pass"], True)
        _expect("generators", len(r["generators"]), 2 * n)
        _expect("relations", len(r["relations"]), n - 2)
        cert = r["certificate"]
        _check_embedding(n, argv[-1].split("=", 1)[1].split(","), cert["c"],
                         (cert["rank_before"], cert["rank_after"]))
    else:
        which = argv[argv.index("--which") + 1]
        _expect(f"verify {which} pass flags", [e["pass"] for e in results], [True] * len(results))
        if which == "sym2":
            r = results[0]
            _expect(f"sym2 totals of {family}{n}", (r["sym2_total"], r["v_total"], r["w_total"]),
                    sym2_totals(family, n))
        elif which == "weights":
            r = results[0]
            _expect(f"line module of {family}{n}", r["line_module_total"], line_module_total(family, n))
            _expect("line orbit equals enumeration", r["line_orbit_matches"], True)
        else:
            _check_census_doc(family, n, results)


def check(op: dict, out: dict) -> str:
    """Classify a worker result as "ok", "refused" or "failed".

    ``out`` is what the worker printed.  A refusal counts as "refused" only
    for an op past the documented monomial cap, refused at that guard; any
    other refusal is "failed".  A wrong answer raises Mismatch.
    """
    kind = op["kind"]
    if "refused" in out:
        return "refused" if past_cap(op) and CAP_REFUSAL in out["refused"] else "failed"
    r = out["result"]
    if kind == "verify_hilbert":
        n, degree = op["n"], op["degree"]
        want = {coords: dim for coords, _, dim in d_classes(n, degree)}
        got = {tuple(row[:-1]): row[-1] for row in r["graded"]}
        _expect("hilbert ok flag", (r["ok"], r["mismatches"]), (True, 0))
        _expect(f"classes checked in D{n} to degree {degree}", r["classes_checked"], len(want))
        if got != want:
            bad = next(c for c in sorted(set(want) | set(got)) if got.get(c) != want.get(c))
            raise Mismatch(f"graded dimension at {bad}: got {got.get(bad)}, expected {want.get(bad)}")
    elif kind == "graded_piece_dim":
        _expect(f"dimension at {op['k']}f of D{op['n']}", r, op["k"] + 1)
    elif kind == "git_hilbert":
        _expect(f"invariant dims of D{op['n']}", r, list(range(1, op["max_k"] + 2)))
    elif kind == "embed":
        _expect("certified", r["certified"], True)
        _check_embedding(op["n"], op["points"], r["c"], (r["rank_before"], r["rank_after"]))
    elif kind == "cli":
        _check_cli(op, r)
    elif kind == "selftest":
        _expect(f"selftest {op['check']}", r, True)
    elif kind == "sym2":
        _expect("complement matches prediction", r["w_matches_expected"], True)
        _expect(f"sym2 totals of {op['family']}{op['n']}", (r["sym2_total"], r["v_total"], r["w_total"]),
                sym2_totals(op["family"], op["n"]))
    elif kind == "weight_lemma":
        family, n = op["family"], op["n"]
        _expect("weight lemma ok", r["ok"], True)
        _expect(f"line module of {family}{n}", r["line_module_total"], line_module_total(family, n))
        if family == "E":
            _expect(f"ruling module of E{n}", r["ruling_module_total"], E_RULING_MODULE[n])
            _expect(f"ruling count of E{n}", r["ruling_count"], RULINGS["E"][n])
    elif kind == "weyl_dim":
        want = sym2_totals(op["family"], op["n"])[1]
        _expect(f"Weyl dimension of 2 lambda on {op['family']}{op['n']}", r["weyl_dim"], want)
        _expect("Freudenthal total", r["freudenthal_total"], want)
    elif kind == "orbit":
        want = count(op["which"], op["family"], op["n"])
        _expect(f"{op['which']} orbit of {op['family']}{op['n']}", (r["size"], r["enumerated"], r["equal"]),
                (want, want, True))
    elif kind == "enumerate":
        want = count(op["what"], op["family"], op["n"])
        _expect(f"{op['what']} of {op['family']}{op['n']}", (r["count"], r["distinct"]), (want, want))
    else:
        raise Mismatch(f"unknown op kind {kind}")
    return "ok"
