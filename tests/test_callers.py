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
        if name not in used
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
    # the tail's engine call is the one place that picks a route and runs
    # it, and only disc builds compounds, for the engine and the walk alike
    for route in ("_sign_ypolys", "_subset_ypolys"):
        assert callers(route) == {"disc._Tail.ypolys"}, route
    for helper in ("_compounds", "_unitary_compounds", "_dim_tables", "_colex_tables"):
        assert {caller.split(".")[0] for caller in callers(helper)} == {"disc"}, helper


def test_one_planning_site():
    # the greedy plans its descent once, and only the planner prices engine
    # calls: the route of one call and the blocks of the descent
    assert callers("_plan_descent") == {"disc.greedy_interlacing_solve"}
    assert callers("_engine_seconds") == {"disc._plan_route", "disc._block_seconds"}


def test_one_evaluation_site():
    # every walk point is evaluated by its certification, which also
    # returns the barriers there
    assert callers("eval_many") == {"witness.certify_above_roots"}


def test_one_root_rule():
    # only rpoly deflates origin roots and extracts roots, so its rule for
    # multiple roots is the package's
    for name in ("_real_roots", "deflate_zero_roots"):
        assert {caller.split(".")[0] for caller in callers(name)} == {"rpoly"}, name


def test_roots_go_through_traced_names():
    # the benchmark's layer trace wraps rpoly.real_roots, so the greedy's
    # and the interlacing suite's root extraction is timed as rpoly's
    assert {"disc._lambda_max_y", "cli.verify_interlacing"} <= callers("real_roots")


def test_one_check_per_solver():
    # the sweeps and the single-instance commands share one check each
    def in_cli(name):
        return {caller for caller in callers(name) if caller.startswith("cli.")}

    assert in_cli("greedy_interlacing_solve") == {"cli._greedy_check", "cli.verify_interlacing"}
    assert in_cli("replay_barrier_walk") == {"cli._walk_check"}


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
