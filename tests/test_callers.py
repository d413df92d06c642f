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
    """(name, line) of every module-level function and class and every
    method not named ``__*__``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item.lineno


def test_every_definition_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "pyproject.toml"]
    texts = {path: path.read_text().splitlines() for path in sources}
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in definitions(ast.parse("\n".join(texts[path]))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(text)
                for src, lines in texts.items()
                for i, text in enumerate(lines, 1)
                if not (src == path and i == line)
            )
            if not used and f"{path.stem}.{name}" not in ALLOWED:
                uncalled.append(f"{path.stem}.{name}")
    assert uncalled == []
