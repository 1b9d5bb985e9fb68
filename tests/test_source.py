"""Rules about the package source itself."""

import ast
import pathlib

import wildrep

PACKAGE_DIR = pathlib.Path(wildrep.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no certification step may
    # rely on one: checks that must hold raise explicitly
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert "exactfield.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
