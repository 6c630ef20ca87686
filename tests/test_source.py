"""Properties of the package source itself."""

import ast
from pathlib import Path

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
