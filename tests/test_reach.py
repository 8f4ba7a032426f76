"""Reach check: every function of the listed modules runs in the shipped
cases.

A `sys.settrace` hook records the code object of every Python call event
(no line events) while the golden CLI and library cases of test_golden.py
and every acceptance suite at seed 0 run. The run happens in a fresh
interpreter traced from before the package is imported, so calls made at
import count and no cache filled by an earlier test hides a call. A
function or method defined in one of MODULES whose body never starts there
is either dead or reached only by its own tests, and fails the check unless
EXEMPT names it with a one-line reason. Dunders and stubs whose body is
`raise NotImplementedError` are exempt. Later changes extend MODULES
toward the whole package.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys

from test_golden import CLI_CASES, LIBRARY_CASES, run_cli

from streamgraphs.errors import StreamGraphsError
from streamgraphs.suites import SUITES, run_suite

MODULES = ["trees", "problems", "spaces", "decide", "search", "specs",
           "suites"]

# Qualified names (a class name covers its methods) left unreached on
# purpose, each with the reason.
EXEMPT = {
    "LimitTower": "library-only tower instances for the lim problems",
    "DisjointTreeUnion.children": "no spec builds a DisjointTreeUnion, and "
                                  "CyclesBox's wrap reads only contains",
    "_prepend": "C_Cantor and C_Baire on a DisjointTreeUnion, which only "
                "library callers build",
    "IotaTrace.abandoned": "read only by the benchmark's f_convert answer "
                           "check, which no shipped case runs",
}

_TRACED_RUN = """
import json, sys
seen = set()
def tracer(frame, event, arg):
    seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.settrace(tracer)
import test_reach
test_reach.run_shipped_cases()
sys.settrace(None)
print(json.dumps(sorted(seen)))
"""


def run_shipped_cases():
    for argv in CLI_CASES:
        run_cli(argv)
    for fn in LIBRARY_CASES.values():
        try:
            fn()
        except StreamGraphsError:
            pass
    with contextlib.redirect_stdout(io.StringIO()):
        for name in SUITES:
            run_suite(name, seed=0)


def reached():
    """(file name, first line) of every code object called while the
    shipped cases run in a fresh traced interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path
                                                      if p))
    out = subprocess.run([sys.executable, "-c", _TRACED_RUN], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    return {tuple(pair) for pair in json.loads(out)}


def _is_stub(node):
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def functions(text):
    """(qualname, first line of the code object) of every def in the
    source text that is neither a dunder nor a NotImplementedError stub."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                dunder = child.name.startswith("__") and \
                    child.name.endswith("__")
                if not dunder and not _is_stub(child):
                    out.append((name, first))
                visit(child, name + ".<locals>.")
    visit(ast.parse(text), "")
    return out


def _source(module):
    return importlib.import_module("streamgraphs." + module).__file__


def _defined(module):
    return functions(pathlib.Path(_source(module)).read_text())


def _exempt(qualname):
    return any(qualname == key or qualname.startswith(key + ".")
               for key in EXEMPT)


def test_every_function_is_reached():
    seen = reached()
    unreached = []
    for module in MODULES:
        path = _source(module)
        unreached += ["%s.py:%d %s" % (module, line, name)
                      for name, line in _defined(module)
                      if (path, line) not in seen and not _exempt(name)]
    assert unreached == []


def test_exemptions_name_real_definitions():
    names = {name for module in MODULES
             for name, _ in _defined(module)}
    for key in EXEMPT:
        assert any(n == key or n.startswith(key + ".") for n in names), key


def test_functions_skips_dunders_and_stubs():
    text = ("class A:\n"
            "    def __init__(self):\n        pass\n"
            "    def stub(self):\n        '''doc'''\n"
            "        raise NotImplementedError\n"
            "    @property\n    def live(self):\n"
            "        def inner():\n            return 1\n"
            "        return inner()\n")
    assert functions(text) == [("A.live", 7), ("A.live.<locals>.inner", 9)]
