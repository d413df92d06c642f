"""Every definition and every constant in the package has a reader outside
the tests."""

import ast
import importlib
import importlib.util
import re
import sys
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


def constants(tree):
    """Names of module-level ``UPPER_CASE`` assignments (a leading underscore
    allowed)."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                yield target.id


def reads(tree):
    """Every name that code loads: ``ast.Name`` ids and ``ast.Attribute``
    attributes in load context, so an assignment is not a read. Docstrings,
    comments and other strings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def parsed_sources():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in sources}


def test_every_definition_has_a_caller():
    trees = parsed_sources()
    used = {name for tree in trees.values() for name in reads(tree)}
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


def test_every_constant_is_read():
    trees = parsed_sources()
    read = {name for tree in trees.values() for name in reads(tree)}
    unread = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in constants(tree)
        if name not in read
    ]
    assert unread == []


def callers(name):
    """The functions (``module.function`` or ``module.Class.method``) whose
    bodies call ``name``, as a plain name or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    found.add(".".join(scope))
            inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            visit(child, inner)

    for path, tree in parsed_sources().items():
        visit(tree, (path.stem,))
    return found


def test_one_dispatch_site():
    # the engine is the one place that picks a route and runs it; the
    # compounds of a tail are built only by the engine and the walk
    for route in ("_sign_ypolys", "_subset_ypolys"):
        assert callers(route) == {"disc._expected_ypolys"}, route
    assert callers("_tail_terms") == {"disc._expected_ypolys", "witness.QEvaluator._subset_sums"}


def test_one_evaluation_site():
    # every walk point is evaluated by its certification, which also
    # returns the barriers there
    assert callers("eval_many") == {"witness.certify_above_roots"}


def matdisc_chains(tree):
    """Every dotted name that code reads through an imported ``matdisc``
    module, as ``(module, attribute chain)`` pairs: ``from matdisc import
    cli`` makes ``cli.sweep_rank_one`` the pair ``("matdisc.cli",
    ("sweep_rank_one",))``, and ``from matdisc.errors import X`` makes
    ``("matdisc.errors", ("X",))``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "matdisc":
            for alias in node.names:
                if node.module == "matdisc":
                    aliases[alias.asname or alias.name] = f"matdisc.{alias.name}"
                else:
                    yield node.module, (alias.name,)
        elif isinstance(node, ast.Import):
            aliases.update({a.name.split(".")[0]: "matdisc" for a in node.names if a.name.split(".")[0] == "matdisc"})
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            yield aliases[node.id], tuple(reversed(chain))


def load_perfbench(name):
    """The module ``perfbench/<name>.py``, loaded by path: tier-1 does not
    run perfbench/tests, whose conftest clashes with this directory's."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_perfbench_names_resolve():
    # a rename that breaks the benchmark's layer trace or its workloads
    # fails here
    layertrace = load_perfbench("layertrace")
    missing = [name for name, owner, attr, _ in layertrace.TARGETS if not hasattr(owner, attr)]
    chains = {pair for path in sorted((ROOT / "perfbench").glob("*.py")) for pair in matdisc_chains(ast.parse(path.read_text()))}
    assert ("matdisc.cli", ("sweep_rank_one",)) in chains
    assert ("matdisc.model", ("DiscreteRandomVariable", "rademacher")) in chains
    for module, chain in sorted(chains):
        obj = importlib.import_module(module)
        for attr in chain:
            if not hasattr(obj, attr):
                missing.append(".".join((module,) + chain))
                break
            obj = getattr(obj, attr)
    assert missing == []


def test_perfbench_workloads_run_once(tmp_path):
    # the shapes the benchmark unpacks: one block of items per workload,
    # its first item and its lowest ladder rung must each come out correct
    workloads = load_perfbench("workloads")
    for name, w in workloads.WORKLOADS.items():
        work_dir = tmp_path / name
        items, _ = w.make_items(701, 1, work_dir)
        assert w.run_item(items[0], work_dir) is True, name
        assert w.run_rung(701, w.ladder_floor) is True, name
