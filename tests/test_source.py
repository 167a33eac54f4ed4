"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import lensdirac

PACKAGE_DIR = Path(lensdirac.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so correctness guards must raise instead;
    # the same holds for the reference helpers the tests compare against
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")) + [Path(__file__).with_name("reference.py")]:
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


def _uses(tree: ast.AST, skip: ast.AST = None, bench: bool = False) -> set:
    """The names a module reads outside the subtree skip: its names,
    attributes and imported names.  For a benchmark file, whose own
    variables do not count, only its attributes, its imported names and
    the parts of its "lensdirac.x.y" wrap-site strings."""
    out, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not bench:
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif (bench and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("lensdirac.")):
            out.update(node.value.split("."))
        todo.extend(ast.iter_child_nodes(node))
    return out


def test_package_names_have_a_caller():
    # a public function or class of the package must be used by the
    # package outside its own definition, named in README.md's code, or
    # used by perfbench; helpers only tests use live in tests/reference.py
    root = Path(__file__).resolve().parents[1]
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    readme = (root / "README.md").read_text()
    outside = set(re.findall(r"\w+", " ".join(
        re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S))))
    for path in sorted((root / "perfbench").glob("*.py")):
        outside |= _uses(ast.parse(path.read_text(), filename=str(path)), bench=True)
    unused = []
    for name, tree in trees.items():
        others = set().union(*(_uses(t) for n, t in trees.items() if n != name))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in others | outside | _uses(tree, skip=node)):
                unused.append(f"{name}:{node.name}")
    assert not unused, f"package names with no caller outside the tests: {unused}"


# numpy's Python-level helpers cost tens of microseconds each on a cold
# call, more than the small arrays they touch; the table kernel, the
# verdict gate and the census reductions keep to C-level steps
_SLOW_NUMPY = {"tile", "repeat", "stack", "array_equal", "unique", "where", "zeros_like"}
_HOT_PATHS = {
    "lattice.py": {"_half_table", "_add_image", "_check_reflection", "_limbs",
                   "_parity_sums", "_serial_blas", "_contract", "_full_table",
                   "_sketch_sums", "_shared", "sketch_survivors"},
    "lens.py": {"_image", "_below"},
}


def test_hot_paths_call_no_python_level_numpy_helpers():
    found, seen = [], set()
    for name, functions in _HOT_PATHS.items():
        tree = ast.parse((PACKAGE_DIR / name).read_text(), filename=name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in functions:
                seen.add(node.name)
                found += [f"{name}:{call.lineno} np.{call.attr} in {node.name}"
                          for call in ast.walk(node)
                          if isinstance(call, ast.Attribute) and call.attr in _SLOW_NUMPY
                          and isinstance(call.value, ast.Name) and call.value.id == "np"]
    assert seen == set().union(*_HOT_PATHS.values())
    assert not found, found
