"""Where a certificate starts is decided in `streams.py` only: no other module
of the package calls len() on a `.head` attribute. It reads `cert_start`
or `zero_from` instead."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "streamgraphs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "streams.py")


def head_lengths(text):
    """Sorted line numbers of the len(<x>.head) calls in the text."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "len" and len(node.args) == 1
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "head")


def test_checker_finds_head_lengths():
    text = ("n = len(s.head)\n"
            "k = len(head) + len(s.period)\n"
            "h = s.head\n"
            "def f(x):\n"
            "    return [len(x.name.stream.head) + 1]\n")
    assert head_lengths(text) == [1, 5]


def test_every_module_but_streams_is_checked():
    names = {p.name for p in MODULES}
    assert names >= {"decide.py", "gadgets.py", "problems.py", "spaces.py",
                     "suites.py"}
    assert "streams.py" not in names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_head_length_outside_streams(path):
    assert head_lengths(path.read_text(encoding="utf-8")) == []
