"""Every name a package module imports is used in that module, every
private helper of the package has a caller, and every public function,
class and method of the package is read by the package or its benchmark,
apart from a few named exemptions that only tests read."""

import ast
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


def _defs(tree):
    """Module-level functions and classes, and methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    tops = [n for n in tree.body if isinstance(n, kinds)]
    return tops + [n for c in tops if isinstance(c, ast.ClassDef)
                   for n in c.body if isinstance(n, kinds)]


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
    named = sum((_named(ast.parse(p.read_text())) for p in READERS), Counter())
    unread = [
        d.name for d in _defs(ast.parse(path.read_text()))
        if not d.name.startswith("_") and named[d.name] == _named(d)[d.name]
    ]
    assert unread == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_name_is_read_outside_tests(path):
    """A public name that only tests read is a second way to do a job
    the solver does some other way.  Reads are matched by name alone, so
    a benchmark field of the same name counts: perfbench's `inst.lift`
    would keep a function `lift` from being flagged."""
    named = sum((_named(ast.parse(p.read_text())) for p in MODULES + BENCH),
                Counter())
    unread = [
        d.name for d in _defs(ast.parse(path.read_text()))
        if not d.name.startswith("_") and d.name not in TEST_ONLY
        and named[d.name] == _named(d)[d.name]
    ]
    assert unread == []
