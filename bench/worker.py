"""One cold op in a fresh interpreter: ``worker.py SRC TRACE OP_JSON``.

``run.py`` starts this once per op, so each op pays interpreter start and
``import adecox`` as a CLI call does.  ``OP_JSON`` is ``setup`` to stop right
after the import (the set-up measurement).  The worker prints one JSON line:
``{"result": ...}`` or ``{"refused": message}``, plus ``"spans"`` when TRACE
is 1.  The checks run in the parent, outside the op's time.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

from spans import Tracer


def _load(src: str):
    sys.path.insert(0, src)
    import adecox

    if os.path.dirname(os.path.abspath(adecox.__file__)) != os.path.join(src, "adecox"):
        raise SystemExit(f"adecox imported from {adecox.__file__}, not from {src}")
    return adecox


def _lattice(t, A, family: str, n: int):
    return t.call("lattice.build", A.build_lattice, A.SurfaceFamily(family, n))


def _config(A, op: dict):
    return A.SurfaceConfigD(tuple(Fraction(p) for p in op["points"]))


def _system(t, A, lat):
    return t.call("roots.build", A.build_root_system, lat, count=lambda s: len(s.positive_roots))


def _enumerate(t, A, what: str, lat):
    fn = {"roots": A.enumerate_roots, "lines": A.enumerate_lines, "rulings": A.enumerate_rulings}[what]
    return t.call("curves.enumerate", fn, lat, count=len)


def run_op(A, t, op: dict):
    kind = op["kind"]
    if kind == "selftest":
        check = next(c for c in A.CHECKS if c.check_id == op["check"])
        return t.call(f"selftest.{check.check_id}", check.run).passed
    if kind == "cli":
        from adecox import cli

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = t.call("cli.main", cli.main, op["argv"],
                          count=lambda _: len(buffer.getvalue().encode()))
        return {"exit": code, "stdout": buffer.getvalue()}
    lat = _lattice(t, A, op.get("family", "D"), op["n"])
    if kind in ("verify_hilbert", "graded_piece_dim", "git_hilbert"):
        pres = t.call("cox.dn_ideal", A.dn_ideal, lat, _config(A, op))
        f = A.basis_class(lat, "f")
        if kind == "verify_hilbert":
            rep = t.call("cox.verify_hilbert", A.verify_hilbert, pres, lat, op["degree"],
                         count=lambda r: r["classes_checked"])
            return {
                "ok": rep["ok"],
                "classes_checked": rep["classes_checked"],
                "mismatches": len(rep["mismatches"]),
                "graded": [e["class"] + [e["graded"]] for e in rep["classes"]],
            }
        if kind == "graded_piece_dim":
            return t.call("cox.graded_piece_dim", A.graded_piece_dim, pres, lat, f * op["k"])
        return t.call("cox.git", A.git_hilbert, lat, f, op["max_k"], pres)
    if kind == "embed":
        _, report = t.call("flag.embed", A.embed_cox_into_cone_D, lat, _config(A, op))
        return report
    if kind == "enumerate":
        classes = _enumerate(t, A, op["what"], lat)
        return {"count": len(classes), "distinct": len(set(classes.classes))}
    system = _system(t, A, lat)
    if kind == "sym2":
        _enumerate(t, A, "lines", lat)
        t.call("weights.line_multiset", A.line_weight_multiset, system, count=lambda m: m.total)
        _, _, report = t.call("weights.sym2", A.decompose_sym2, system,
                              count=lambda r: r[2]["sym2_total"])
        return report
    if kind == "weight_lemma":
        _enumerate(t, A, "lines", lat)
        return t.call("weights.lemma", A.verify_weight_lemma, system)
    if kind == "weyl_dim":
        line = A.line_highest_class(lat)
        lam2 = tuple(2 * x for x in t.call("weights.weight_of", A.weight_of, system, line))
        dim = t.call("weights.weyl_dim", A.weyl_dim, system, lam2)
        module = t.call("weights.freudenthal", A.freudenthal, system, lam2, count=lambda m: m.total)
        return {"weyl_dim": dim, "freudenthal_total": module.total}
    if kind == "orbit":
        start = (A.line_highest_class if op["which"] == "lines" else A.ruling_highest_class)(lat)
        orbit = t.call("roots.orbit", A.weyl_orbit, system, start, count=len)
        listed = _enumerate(t, A, op["which"], lat)
        return {"size": len(orbit), "enumerated": len(listed), "equal": orbit.as_set() == listed.as_set()}
    raise ValueError(f"unknown op kind {kind!r}")


def main(argv: list[str]) -> int:
    src, trace, payload = argv[1], argv[2] == "1", argv[3]
    A = _load(src)
    if payload == "setup":
        return 0
    op = json.loads(payload)
    tracer = Tracer(trace)
    if trace:
        from adecox import cox, flag

        tracer.wrap_rank(cox, flag)
    out: dict = {}
    try:
        out["result"] = run_op(A, tracer, op)
    except ValueError as exc:
        if op["kind"] != "graded_piece_dim":
            raise
        out["refused"] = str(exc)
    if trace:
        out["spans"] = tracer.spans
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
