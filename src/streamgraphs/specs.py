"""Textual spec mini-language for streams, trees, graphs and space names.

Stream specs use the stream module's format directly:
    ec:[1,0,1];0        eventually constant
    per:[1];[0,1]       eventually periodic

Graph expressions (case-insensitive):
    ray | l | komega | fbt          one-way ray, two-way ray, K_omega, 2^<N
    r5 | c3 | k4                    finite path / cycle / complete families
    t1 | f2                         the T_n / F_n standard families
    omega(<graph>)                  omega disjoint copies
    du(<graph>,...) / cu(<graph>,...)   disjoint / connected union
    l1(<tree>,<graph>) / l2(...)    layered constructions
    <file>.json                     finite graph {"v":[...],"e":[[a,b],...]}

Tree expressions:
    path(<stream>)                  single branch given by a stream
    fulltree                        the full binary tree
    fintree:[[],[0],[1]]            explicit finite tree (list of nodes)

Name specs prefix a graph expression with its space:
    gr:<graph>  |  egr:<graph>  |  egr(SEED,STUTTER):<graph>
"""

import json
import os
import re

from .errors import ParseError
from .graphs import (FinGraph, OmegaCopies, connected_union,
                     construction, disjoint_union, standard)
from .spaces import SpaceName, name_of
from .streams import Staged, parse_stream
from .trees import FiniteTree, FullBinary, SinglePath


def _split_args(text):
    """Split on top-level commas (respecting (), [] nesting)."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if current or parts:
        parts.append("".join(current).strip())
    return parts


def _call_form(text):
    """Return (head, argstring) for `head(...)` expressions, else None."""
    m = re.match(r"^([a-z][a-z0-9]*)\((.*)\)$", text, re.IGNORECASE)
    if m is None:
        return None
    return m.group(1).lower(), m.group(2)


def parse_tree(text):
    text = text.strip()
    low = text.lower()
    if low == "fulltree":
        return FullBinary()
    if low.startswith("fintree:"):
        try:
            nodes = [tuple(n) for n in json.loads(text[len("fintree:"):])]
        except ValueError as exc:
            raise ParseError("bad fintree literal: %s" % exc)
        return FiniteTree(nodes)
    call = _call_form(text)
    if call and call[0] == "path":
        return SinglePath(parse_stream(call[1]))
    raise ParseError("cannot parse tree spec %r" % text)


_FAMILIES = {"r": "RayN", "c": "CycleN", "k": "CompleteN",
             "t": "TreeT", "f": "ForestF"}

_ATOMS = {"ray": "Ray", "l": "TwoWayRay", "komega": "CompleteOmega",
          "fbt": "FullBinaryTree"}


def parse_graph(text):
    text = text.strip()
    low = text.lower()
    if low.endswith(".json"):
        if not os.path.exists(text):
            raise ParseError("no such file %r" % text)
        with open(text) as fh:
            return FinGraph.from_json(fh.read())
    if low in _ATOMS:
        return standard(_ATOMS[low])
    m = re.match(r"^([rckft])(\d+)$", low)
    if m:
        return standard(_FAMILIES[m.group(1)], int(m.group(2)))
    call = _call_form(text)
    if call:
        head, args = call
        if head == "omega":
            return OmegaCopies(parse_graph(args))
        if head in ("du", "cu"):
            parts = [parse_graph(a) for a in _split_args(args)]
            if not parts:
                raise ParseError("%s needs at least one part" % head)
            return (disjoint_union if head == "du"
                    else connected_union)(parts)
        if head in ("l1", "l2"):
            parts = _split_args(args)
            if len(parts) != 2:
                raise ParseError("%s takes (tree, graph)" % head)
            return construction(head.upper(), parse_tree(parts[0]),
                                parse_graph(parts[1]))
    raise ParseError("cannot parse graph spec %r" % text)


def _dense_egr_name(g):
    """EGr name emitting each vertex at its enumeration index, with edges
    to earlier vertices interleaved right after (no idle padding): one
    stage per vertex.

    A new vertex's edges come from g.lower_neighbors: every neighbour
    emitted before it has a smaller code (CountableGraph.iter_vertices), so
    the listed ones already emitted are all of them, emitted in the order
    they came. Where g cannot list them, the new vertex is tested against
    every earlier one. Codes are pair(min, max) + 1, computed inline."""
    has_edge = g.has_edge

    def stages():
        index = {}     # emitted vertex -> its emission index, in order
        for v in g.iter_vertices():
            lower = g.lower_neighbors(v)
            if lower is None:
                ws = [w for w in index if has_edge(v, w)]
            else:
                ws = [w for w in lower if w in index]
                if len(ws) > 1:
                    ws.sort(key=index.__getitem__)
            index[v] = len(index)
            ws.insert(0, v)   # pair(v, v) first
            yield [(w + v) * (w + v + 1) // 2 + (w if w > v else v) + 1
                   for w in ws]

    return SpaceName("EGr", Staged(stages().__next__), meta={"denotes": g})


def parse_name(text):
    """Parse `gr:...` / `egr:...` into a SpaceName."""
    text = text.strip()
    m = re.match(r"^(gr|egr)(\((\d+),([0-9.]+)\))?:(.*)$", text,
                 re.IGNORECASE)
    if m is None:
        raise ParseError("name spec must start with gr: or egr:")
    space = m.group(1).lower()
    body = m.group(5)
    graph = parse_graph(body)
    schedule = None
    if m.group(2):
        if space != "egr":
            raise ParseError("schedules apply to egr names only")
        try:
            stutter = float(m.group(4))
        except ValueError:
            raise ParseError("bad stutter %r" % m.group(4))
        if not 0 <= stutter < 1:
            raise ParseError("stutter must lie in [0, 1), got %r"
                             % m.group(4))
        schedule = ("random", int(m.group(3)), stutter)
    if space == "egr" and schedule is None and not isinstance(
            graph, FinGraph):
        try:
            infinite = not graph.is_finite()
        except Exception:
            infinite = False
        if infinite:
            return _dense_egr_name(graph)
    return name_of("Gr" if space == "gr" else "EGr", graph, schedule)


def parse_pattern(text):
    """A finite pattern graph: JSON file or a finite graph expression."""
    g = parse_graph(text)
    if isinstance(g, FinGraph):
        return g
    try:
        return g.materialize()
    except Exception:
        raise ParseError("pattern %r is not a finite graph" % text)


def clique_order(text):
    """n for the complete pattern spec kn (n >= 1), read before any of its
    n(n-1)/2 edges is built; None for every other spec."""
    m = re.match(r"^k([1-9][0-9]*)$", text.strip(), re.IGNORECASE)
    return int(m.group(1)) if m else None
