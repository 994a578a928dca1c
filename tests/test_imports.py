"""Every name a package module imports is used in that module, every
private helper of the package has a caller, and every public function,
class and method of the package is read by the package or its benchmark,
apart from a few named exemptions that only tests read; and no package
module loads networkx until the oracle or `isomorphic` needs it."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crossnum"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
READERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + BENCH

# public names that no solver or benchmark code reads, each kept on purpose
TEST_ONLY = {
    "complete_bipartite": "a named graph family",
    "complete_graph": "a named graph family",
    "format_edge_list": "the writing half of the edge-list text format",
    "format_compressed": "the writing half of the compressed text format",
    "drawing_from_text": "the reading half of the drawing text format",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in {
                getattr(t, "id", None) for t in node.targets}:
            used |= set(ast.literal_eval(node.value))
    assert sorted(imported - used) == []


def _named(tree) -> Counter:
    """How often each name is read as a variable or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _attrs(tree) -> Counter:
    """How often each name is read as an attribute (`.name`)."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


DEF_KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defs(tree):
    """Module-level functions and classes, and methods."""
    return [n for n in tree.body if isinstance(n, DEF_KINDS)] + _methods(tree)


def _methods(tree):
    """The defs in the bodies of the module's classes."""
    return [n for c in tree.body if isinstance(c, ast.ClassDef)
            for n in c.body if isinstance(n, DEF_KINDS)]


def _unread_public(path, readers, exempt=()):
    """The public defs of `path` that no other code in `readers` reads: a
    module-level def by its name, a method only as an attribute `.name`,
    so that a function or variable of the same name does not count."""
    trees = [ast.parse(p.read_text()) for p in readers]
    named = sum(map(_named, trees), Counter())
    attrs = sum(map(_attrs, trees), Counter())
    tree = ast.parse(path.read_text())
    methods = set(map(id, _methods(tree)))
    unread = []
    for d in _defs(tree):
        reads, own = (attrs, _attrs(d)) if id(d) in methods else (
            named, _named(d))
        if (not d.name.startswith("_") and d.name not in exempt
                and reads[d.name] == own[d.name]):
            unread.append(d.name)
    return unread


def _private_defs(tree):
    """The defs whose names start with one underscore."""
    return [n for n in _defs(tree)
            if n.name.startswith("_") and not n.name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_helper_has_a_caller(path):
    named = sum((_named(ast.parse(p.read_text())) for p in MODULES), Counter())
    uncalled = [
        d.name for d in _private_defs(ast.parse(path.read_text()))
        if named[d.name] == _named(d)[d.name]
    ]
    assert uncalled == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_name_is_read(path):
    assert _unread_public(path, READERS) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_name_is_read_outside_tests(path):
    """A public name that only tests read is a second way to do a job
    the solver does some other way.  Reads are matched by name, not by
    owner, so a benchmark field of the same name counts: perfbench's
    `inst.lift` would keep a function or method `lift` from being
    flagged."""
    assert _unread_public(path, MODULES + BENCH, TEST_ONLY) == []


def _import_time_imports(node):
    """The modules that importing `node`'s module imports: every import
    statement outside a function body (class bodies and `if` or `try`
    blocks run at import)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from (a.name for a in child.names)
        elif isinstance(child, ast.ImportFrom) and child.module:
            yield child.module
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
            yield from _import_time_imports(child)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_networkx_is_not_imported_at_module_level(path):
    """networkx is only for the oracle and `isomorphic`; a module-level
    import would make every solve pay for loading it."""
    tops = _import_time_imports(ast.parse(path.read_text()))
    assert [m for m in tops if m.split(".")[0] == "networkx"] == []


def test_solve_loads_no_networkx_and_the_oracle_does(tmp_path):
    """In a fresh process: importing the package and the CLI, and a
    default solve, leave networkx unloaded; the oracle loads it."""
    p = tmp_path / "k3e18.txt"
    p.write_text("3\nh 7 1000000000000000000\n")
    code = (
        "import sys\n"
        "import crossnum, crossnum.cli\n"
        "print('networkx' in sys.modules)\n"
        f"print(crossnum.cli.main([{str(p)!r}, '--format', 'compressed']))\n"
        "print('networkx' in sys.modules)\n"
        "from crossnum.graphs import complete_bipartite\n"
        "print(crossnum.oracle_cr(complete_bipartite(3, 3)),"
        " 'networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "False", "249999999999999999500000000000000000", "0", "False",
        "1 True", ""]
