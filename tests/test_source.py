"""Properties of the package source itself."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import adecox
from adecox.lattice import _Frozen
from mutants import MUTANTS

PACKAGE = Path(__file__).parent.parent / "src" / "adecox"


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so an invariant guarded by one
    # would vanish without any check failing; the package raises instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names_used(tree):
    """``(name, line)`` of every name, attribute and from-import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _uses(wanted: str) -> list[str]:
    """The package module of each use of the name or attribute ``wanted``."""
    return [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for name, _ in _names_used(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if name == wanted
    ]


def test_only_roots_runs_the_positive_root_closure():
    # build_root_system runs the closure once per root system and keeps it;
    # the weight routines read what it kept and do not import the closure.
    assert _uses("_positive_root_coeffs") == ["roots.py"]


def test_only_lattice_reads_the_gram_rows():
    # The lattice keeps its intersection form once; every other module
    # pairs through pair or covector, so no second copy of the form grows.
    assert set(_uses("gram_rows")) == {"lattice.py"}


def test_every_top_level_definition_is_used_or_exported():
    # Code that only the tests need lives under tests/: each top-level
    # function and class is in adecox.__all__ or used outside its own body.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    uses = [
        (module, name, line) for module, tree in trees.items() for name, line in _names_used(tree)
    ]
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in adecox.__all__
        and not any(
            name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, name, line in uses
        )
    ]
    assert unused == []


def _frozen_subclasses():
    """Every subclass of ``_Frozen`` the package's modules define; a test's
    own subclass is left out."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        importlib.import_module(f"adecox.{path.stem}")
    found, todo = [], [_Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("adecox."):
                found.append(sub)
    return found


def test_every_slot_of_a_value_class_is_read():
    # A value class keeps only what the package reads: each slot name is
    # loaded as an attribute somewhere in the package, so data that is
    # derived, stored and never read does not stay behind.
    read = {
        node.attr
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls.__name__}.{name}"
        for cls in _frozen_subclasses()
        for name in cls.__dict__.get("__slots__", ())
        if name != "__dict__" and name not in read
    ]
    assert unread == []


def _loaded_by_import(*modules: str) -> list[str]:
    """Which of ``modules`` a cold ``import adecox`` loads; -S -E keeps site
    and PYTHON* variables from loading modules first."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import adecox; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code, str(PACKAGE.parent), *modules],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout.split()


def test_import_loads_no_dataclasses_inspect_or_typing():
    # Every CLI call is a cold process, so import cost is part of every
    # answer; dataclasses (with inspect) once made up most of it.
    assert _loaded_by_import("dataclasses", "inspect", "typing") == []


def test_import_loads_no_random():
    # Only the selftest's C9 draws random numbers; it imports random itself.
    assert _loaded_by_import("random") == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_changes_one_place_in_the_source(mutant):
    # tests/mutants.py applies each replacement to a copy and runs the named
    # tests; an old text that moved or repeats would mutate nothing or the
    # wrong place, and a test that is gone would fail the run only there.
    # The full run stays out of tier-1.
    assert (PACKAGE / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.tests:
        path, name = test.split("[")[0].split("::")
        tree = ast.parse((PACKAGE.parent.parent / path).read_text(encoding="utf-8"))
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test


def _stores_only_its_parameters(init: ast.FunctionDef) -> bool:
    """Whether the body of ``init`` is one call passing on its parameters.

    ``self._set(a=a)``, ``super().__init__(a)`` and
    ``object.__setattr__(self, "a", a)`` all qualify: each only stores what
    the base ``_Frozen.__init__`` already binds.
    """
    params = {arg.arg for arg in init.args.args + init.args.kwonlyargs}
    body = init.body[1:] if ast.get_docstring(init) is not None else init.body
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    values = call.args + [keyword.value for keyword in call.keywords]
    return all(
        (isinstance(value, ast.Name) and value.id in params)
        or (isinstance(value, ast.Constant) and isinstance(value.value, str))
        for value in values
    )


def test_no_value_class_writes_out_a_constructor_that_only_stores_its_fields():
    # _Frozen.__init__ binds _fields from positional and keyword arguments;
    # a subclass writes __init__ only to validate, convert or derive.
    # DivisorClass keeps its one-line constructor: classes are built in the
    # inner loops, where packing arguments and looping over fields costs.
    subclasses, boilerplate = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or not any(
                isinstance(base, ast.Name) and base.id == "_Frozen" for base in node.bases
            ):
                continue
            subclasses.append(node.name)
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"
                    and node.name != "DivisorClass"
                    and _stores_only_its_parameters(item)
                ):
                    boilerplate.append(f"{path.name}:{node.name}")
    assert len(subclasses) == 15
    assert boilerplate == []
