"""Every definition in the package has a caller outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matdisc"

# Public entry points with no caller in the package: the suite of
# acceptance criterion 02 runs only from the tests.
ALLOWED = {"cli.verify_oracles"}


def definitions(tree):
    """Names of every module-level function and class and every method not
    named ``__*__``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name


def references(tree):
    """Every name that code refers to: ``ast.Name`` ids and ``ast.Attribute``
    attributes. Docstrings, comments and other strings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    used = {name for tree in trees.values() for name in references(tree)}
    # entry points named in the package metadata
    used |= set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    uncalled = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in definitions(tree)
        if name not in used and f"{path.stem}.{name}" not in ALLOWED
    ]
    assert uncalled == []
