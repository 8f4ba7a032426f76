"""No module of the package imports a name at module level that it never
uses. `__init__.py` re-exports, and a line marked `# noqa` is exempt.
Every exception class of `errors.py` is named by another module, and every
top-level function or class is reached from code other than the tests. No
graph class of `graphs.py` overrides lower_neighbors or has_edge under a
dense_step it inherits from a class that steps its own walk."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streamgraphs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Definitions that no shipped code reaches, kept on purpose.
UNREACHED_ON_PURPOSE = {
    "find_is_via_cn": "induced finding through C_N; golden library entries",
    "cn_by_stabilization": "the C_N oracle find_is_via_cn's golden entries use",
    "find_f2k2": "golden library entries",
    "restrict_to_connected": "golden library entry",
    "CustomGraph": "the tests' graph with hand-written rules",
}


def unused_imports(text):
    """(line, name) of each module-level import binding that no name in
    the module reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in lines[n - 1]
               for n in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                out.append((node.lineno, name))
    return out


def names_in(tree):
    """Every name the syntax tree names, as a name, an imported name or an
    attribute."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.alias):
            named.add(node.name)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def unnamed_classes(defining, others):
    """The classes defined at the top of the text `defining` that none of
    the texts `others` names."""
    named = set().union(*(names_in(ast.parse(text)) for text in others))
    return [node.name for node in ast.parse(defining).body
            if isinstance(node, ast.ClassDef) and node.name not in named]


def unreached(modules, users, allowed=()):
    """The top-level functions and classes of the texts `modules` that
    nothing reaches. The texts `users`, the `allowed` names and the
    module-level statements of `modules` other than definitions and
    imports reach what they name, and a reached definition reaches what
    its body names."""
    defs = {}
    todo = set(allowed).union(*(names_in(ast.parse(text)) for text in users))
    for text in modules:
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo |= names_in(node)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo |= names_in(node)
    return sorted(set(defs) - reached)


def test_checker_finds_unused_names():
    text = ("import os\nimport sys  # noqa\n"
            "from json import (dumps,\n    loads)\n"
            "from . import graphs as G\n"
            "def f():\n    return dumps(G.OMEGA)\n")
    assert unused_imports(text) == [(1, "os"), (3, "loads")]


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "decide.py", "search.py",
                                         "spaces.py", "trees.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_unnamed_classes():
    defining = ("class Base(Exception):\n    pass\n"
                "class Imported(Base):\n    pass\n"
                "class Attribute(Base):\n    pass\n"
                "class Dead(Base):\n    pass\n")
    others = ["from .errors import Imported as I\n",
              "from . import errors\ndef f():\n"
              "    try:\n        raise errors.Attribute()\n"
              "    except Base:\n        pass\n"]
    assert unnamed_classes(defining, others) == ["Dead"]


def test_every_error_class_is_named():
    others = [p.read_text(encoding="utf-8")
              for p in PACKAGE.glob("*.py") if p.name != "errors.py"]
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert unnamed_classes(errors, others) == []


def test_checker_finds_unreached_definitions():
    modules = ["from .x import helper\n"
               "def shipped():\n    return _used()\n"
               "def _used():\n    return 1\n"
               "def dead():\n    return _dead_helper()\n"
               "def _dead_helper():\n    return helper\n"
               "class Kept:\n    pass\n"
               "TABLE = {'s': shipped}\n",
               "def helper():\n    return 2\n"]
    assert unreached(modules, [], allowed=["Kept"]) == ["_dead_helper",
                                                        "dead", "helper"]
    assert unreached(modules, ["import m\nm.dead()\n"],
                     allowed=["Kept"]) == []


def test_every_definition_is_reached():
    users = [p.read_text(encoding="utf-8")
             for folder in ("bench", "demos")
             for p in sorted((ROOT / folder).rglob("*.py"))]
    modules = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unreached(modules, users, UNREACHED_ON_PURPOSE) == []


def unguarded_steps(text):
    """The classes defined at the top of the text that define
    lower_neighbors or has_edge while they inherit dense_step from a class
    other than CountableGraph: that step walks its class's own rule, so it
    would not follow theirs. Bases are searched depth-first, left to right;
    an assignment `dense_step = ...` counts as a definition."""
    classes = {node.name: node for node in ast.parse(text).body
               if isinstance(node, ast.ClassDef)}

    def defined(node):
        return ({n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                | {t.id for n in node.body if isinstance(n, ast.Assign)
                   for t in n.targets if isinstance(t, ast.Name)})

    def step_owner(name):
        node = classes.get(name)
        if node is None or "dense_step" in defined(node):
            return name if node is not None else None
        owners = (step_owner(b.id) for b in node.bases
                  if isinstance(b, ast.Name))
        return next((o for o in owners if o is not None), None)

    return [name for name, node in classes.items()
            if step_owner(name) not in (name, "CountableGraph", None)
            and defined(node) & {"lower_neighbors", "has_edge"}]


def test_checker_finds_unguarded_steps():
    text = ("class CountableGraph:\n    def dense_step(self):\n        pass\n"
            "class Walk(CountableGraph):\n    def dense_step(self):\n"
            "        pass\n    def has_edge(self, a, b):\n        pass\n"
            "class Plain(CountableGraph):\n    def has_edge(self, a, b):\n"
            "        pass\n"
            "class Bad(Walk):\n    def lower_neighbors(self, v):\n"
            "        pass\n"
            "class Worse(Bad):\n    def has_edge(self, a, b):\n        pass\n"
            "class Reset(Walk):\n    dense_step = CountableGraph.dense_step\n"
            "    def has_edge(self, a, b):\n        pass\n"
            "class Quiet(Walk):\n    def degree(self, v):\n        pass\n")
    assert unguarded_steps(text) == ["Bad", "Worse"]


def test_no_graph_overrides_what_its_step_skips():
    text = (PACKAGE / "graphs.py").read_text(encoding="utf-8")
    assert unguarded_steps(text) == []
