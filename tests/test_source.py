import ast
from pathlib import Path

import lieposet

PACKAGE = Path(lieposet.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check of the package may
    # rest on one; raise an error from lieposet.errors instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
