"""Checks on the package source itself."""

import ast
import re
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


def test_exported_names_are_documented_and_importable():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    undocumented = [name for name in lensdirac.__all__
                    if not re.search(rf"\b{name}\b", library)]
    assert not undocumented, f"exported but not in README's Library: {undocumented}"
    missing = [name for name in lensdirac.__all__ if not hasattr(lensdirac, name)]
    assert not missing, f"in __all__ but not importable: {missing}"
