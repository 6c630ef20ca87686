"""Mutation runner: each committed mutant of the package must fail its tests.

For each mutant it copies ``src`` and ``tests`` into a fresh temporary
directory, replaces one exact piece of text in one package file, and runs
the tests the mutant names against that copy under a timeout, one mutant at
a time.  A mutant is killed when pytest finishes with failing tests (exit
code 1) and survives when they pass; a timeout or any other exit code is
an error.  The named tests first run once on an unmutated copy, which must
pass, so a broken test cannot pass for a kill.  Stdlib only (pytest runs
the tests)::

    python tests/mutants.py

Exits 0 when every mutant is killed, 1 otherwise.
``test_source.py`` checks in tier-1 that each old text occurs exactly once.
A change that cites a mutation adds it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

# ``path`` is relative to src/adecox; ``tests`` are pytest node ids.
Mutant = namedtuple("Mutant", "name path old new tests")

_VALIDATE = "tests/test_value_classes.py::test_constructors_validate_with_the_same_messages[<lambda>-{}]"

MUTANTS = (
    # Three of the refusals of `_check_relations`, which `CoxPresentation` and
    # `QuadricSystem` both call.
    Mutant(
        "presentation-keeps-an-empty-relation",
        "cox.py",
        '        if not rel.terms:\n            raise ValueError("relation with no terms")\n',
        "",
        (_VALIDATE.format("relation with no terms"),),
    ),
    Mutant(
        "presentation-keeps-a-zero-coefficient",
        "cox.py",
        '            if coeff == 0:\n                raise ValueError("relation carries a zero coefficient")\n',
        "",
        (_VALIDATE.format("relation carries a zero coefficient"),),
    ),
    Mutant(
        "presentation-keeps-an-inhomogeneous-relation",
        "cox.py",
        '            if total != rel.cls:\n                raise ValueError("relation is not homogeneous")\n',
        "",
        (_VALIDATE.format("relation is not homogeneous"),),
    ),
    # The certificate behind every graded dimension: without the coprimality
    # refusal a presentation whose relations need not be a Groebner basis is
    # kept; with the smallest term as leading monomial, the D relations all
    # lead with x1 y1 (from n = 4 on), which that refusal catches.
    Mutant(
        "presentation-keeps-non-coprime-leads",
        "cox.py",
        '            if seen.intersection(lead):\n'
        '                raise ValueError("leading monomials are not pairwise coprime")\n',
        "",
        (
            "tests/test_value_classes.py::test_constructors_validate_with_the_same_messages"
            "[_d3_relations_sharing_x3_y3-leading monomials are not pairwise coprime]",
        ),
    ),
    Mutant(
        "leading-monomial-is-the-smallest-term",
        "cox.py",
        "max(tuple(sorted(mono)) for _, mono in rel.terms)",
        "min(tuple(sorted(mono)) for _, mono in rel.terms)",
        (
            "tests/test_cox.py::test_graded_piece_dim_matches_the_standard_monomials[4]",
            "tests/test_acceptance.py::test_acceptance[C4]",
        ),
    ),
    # A quadric system that skips the shared check keeps an empty or a
    # class-inhomogeneous quadric.
    Mutant(
        "quadric-system-skips-the-relation-check",
        "flag.py",
        "        _check_relations(self.variables, self.quadrics)\n",
        "",
        (
            "tests/test_value_classes.py::test_constructors_validate_with_the_same_messages"
            "[_empty_quadric_system-relation with no terms]",
            "tests/test_flag.py::test_quadric_system_rejects_inhomogeneous_weights",
        ),
    ),
    Mutant(
        "quadric-system-keeps-a-zero-scalar",
        "flag.py",
        'raise ValueError("substitution scalar must be nonzero")',
        "pass",
        (_VALIDATE.format("substitution scalar must be nonzero"),),
    ),
    # C4 fails on the presentation's zero-coefficient refusal.
    Mutant(
        "dn-ideal-zero-coefficient",
        "cox.py",
        "(t[1] - t[i - 1], (0, n)),",
        "(t[1] - t[1], (0, n)),",
        ("tests/test_acceptance.py::test_acceptance[C4]",),
    ),
    # C4 reads the ray 0f..3f through git_hilbert.
    Mutant(
        "git-ray-reversed",
        "cox.py",
        "    return dims[::-1]\n",
        "    return dims\n",
        ("tests/test_acceptance.py::test_acceptance[C4]",),
    ),
    Mutant(
        "ruling-module-zero-count",
        "weights.py",
        "_zero_multiset(system, 7))",
        "_zero_multiset(system, 6))",
        ("tests/test_acceptance.py::test_acceptance[C2]", "tests/test_acceptance.py::test_acceptance[C3]"),
    ),
    # The square of a weight is paired with itself once: without the
    # m(tau / 2) term every sym2 value at tau = 2 mu is short, and so is the
    # total.
    Mutant(
        "sym2-drops-the-half-weight-term",
        "weights.py",
        "acc += m.get(tuple(t // 2 for t in tau), 0)",
        "acc += 0",
        (
            "tests/test_weights.py::test_decompose_sym2_e8",
            "tests/test_weights.py::test_dominant_sym2_character_expands_to_the_full_square[D-4]",
        ),
    ),
    # A walk that never pushes a neighbour stops at a weight that is not
    # dominant, and the recursion reads 0 there.
    Mutant(
        "dominant-walk-stops-early",
        "roots.py",
        "                    todo.append(j)\n",
        "                    pass\n",
        (
            "tests/test_weights.py::test_dominant_walk_matches_the_rescanning_reference[E-8]",
            "tests/test_weights.py::test_weight_kernel_matches_fraction_reference[E-8]",
        ),
    ),
    # y_k numbered as x_k: the monomials of a class name the wrong generators.
    Mutant(
        "class-monomials-y-numbering",
        "cox.py",
        "ys + (fam.n + k,) * b",
        "ys + (k,) * b",
        (
            "tests/test_cox.py::test_new_monomial_sources_match_the_old_bucketing",
            "tests/test_cox.py::test_graded_piece_dim_matches_the_standard_monomials",
        ),
    ),
    # Only the first pass runs: a row whose smallest column already has a
    # pivot is dropped instead of reduced.  The dense relation rows of the
    # cone embedding show it.
    Mutant(
        "rank-skips-deferred-rows",
        "linalg.py",
        "if pivots[min(vec)] is vec:",
        "if vec:",
        (
            "tests/test_linalg.py::test_rank_matches_dense_reference_on_dense_and_dict_rows",
            "tests/test_flag.py::test_embed_with_generic_points_still_certifies",
        ),
    ),
    # The dataclass the value classes replaced hashed the tuple of fields.
    Mutant(
        "divisor-class-hash-unwrapped",
        "lattice.py",
        "return hash((self.coords,))",
        "return hash(self.coords)",
        ("tests/test_value_classes.py::test_repr_hash_and_equality_match_the_dataclass",),
    ),
    Mutant(
        "divisor-class-order-not-strict",
        "lattice.py",
        "return self.coords < other.coords",
        "return self.coords <= other.coords",
        ("tests/test_value_classes.py::test_divisor_classes_sort_and_compare_as_the_dataclass",),
    ),
    # C9's box search solves two coordinates by Cramer's rule; a flipped sign
    # finds other classes than the full-box scan.
    Mutant(
        "box-search-cramer-sign",
        "selftest.py",
        "divmod(rk * gc[q] - gk[q] * rc, minor)",
        "divmod(gk[q] * rc - rk * gc[q], minor)",
        ("tests/test_curves.py::test_box_search_matches_full_box_and_enumerators",),
    ),
    # _Frozen.__init__ already binds the fields; a value class does not
    # write out a constructor that only stores them.
    Mutant(
        "generator-stores-its-fields",
        "cox.py",
        'class Generator(_Frozen):\n    __slots__ = _fields = ("name", "cls")\n',
        'class Generator(_Frozen):\n    __slots__ = _fields = ("name", "cls")\n\n'
        "    def __init__(self, name, cls):\n        super().__init__(name, cls)\n",
        ("tests/test_source.py::test_no_value_class_writes_out_a_constructor_that_only_stores_its_fields",),
    ),
    # The D form's hyperbolic entry f.s = 1 with its sign flipped in row f:
    # the form is no longer symmetric and pairs f with s to -1.
    Mutant(
        "d-gram-f-s-sign",
        "lattice.py",
        "rows = (((1, 1),), ((0, 1),))",
        "rows = (((1, -1),), ((0, 1),))",
        (
            "tests/test_lattice.py::test_pair_and_covector_match_the_reference_gram[D4]",
            "tests/test_lattice.py::test_gram_is_symmetric_and_unimodular[D4]",
        ),
    ),
    # The highest root of D_k has height 2k - 3; one less names D4 as E4.
    Mutant(
        "type-d-height",
        "roots.py",
        "height == 2 * k - 3",
        "height == 2 * k - 4",
        (
            "tests/test_roots.py::test_classification[D-4-D4]",
            "tests/test_weights.py::test_positive_root_coeffs_carry_cartan_labels[D-4]",
        ),
    ),
    # A highest root is one with no label -1; the highest root of E8 has
    # labels 0 and is missed when no label 0 is asked for instead.
    Mutant(
        "type-maximality-label",
        "roots.py",
        "if -1 not in pairing:",
        "if 0 not in pairing:",
        ("tests/test_roots.py::test_classification[E-8-E8]",),
    ),
    # C1 compares the enumerated D roots with 2n(n - 1).
    Mutant(
        "d-root-count",
        "selftest.py",
        "2 * n * (n - 1)",
        "n * (n + 1)",
        ("tests/test_acceptance.py::test_acceptance[C1]",),
    ),
)


def _pytest(mutant: Mutant | None, tests) -> int | None:
    """pytest's exit code on ``tests`` in a fresh copy with ``mutant``
    applied (none if None), or None if the run timed out."""
    with tempfile.TemporaryDirectory(prefix="adecox-mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        if mutant is not None:
            target = tree / "src" / "adecox" / mutant.path
            target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        path = os.pathsep.join(p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        try:
            return subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return None


def _status(mutant: Mutant) -> str:
    count = (ROOT / "src" / "adecox" / mutant.path).read_text(encoding="utf-8").count(mutant.old)
    if count != 1:
        return f"error: old text occurs {count} times in {mutant.path}"
    code = _pytest(mutant, mutant.tests)
    if code is None:
        return f"error: no result within {TIMEOUT_S} s"
    return {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest exit code {code}")


def main() -> int:
    code = _pytest(None, sorted({t for m in MUTANTS for t in m.tests}))
    if code != 0:
        print(f"the named tests do not pass on the unmutated source (pytest exit code {code})")
        return 1
    killed = 0
    for mutant in MUTANTS:
        status = _status(mutant)
        killed += status == "killed"
        print(f"{mutant.name}: {status}", flush=True)
    print(f"mutants: {killed}/{len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
