"""Checks on the package source itself."""

import ast
from pathlib import Path

import lensdirac

PACKAGE_DIR = Path(lensdirac.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so correctness guards must raise instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
