"""No module of the package imports a name at module level that it never
uses. `__init__.py` re-exports, and a line marked `# noqa` is exempt.
Every exception class of `errors.py` is named by another module."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "streamgraphs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def unnamed_classes(defining, others):
    """The classes defined at the top of the text `defining` that none of
    the texts `others` names, as a name, an imported name or an
    attribute."""
    named = set()
    for text in others:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [node.name for node in ast.parse(defining).body
            if isinstance(node, ast.ClassDef) and node.name not in named]


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
