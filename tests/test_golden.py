"""Byte-identity guard for the "same output for fixed argv" contract.

Each case is either a fixed `sgraph` argv (stdout and exit code are
recorded; every argv that takes a fuel names it, so the default fuel plays
no part) or a library-only solver whose output is recorded.
The expected values live in golden.json next to this file. After an
intended contract change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py --write

and name every changed entry in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys

from streamgraphs import cli
from streamgraphs import gadgets as GD
from streamgraphs import search as S
from streamgraphs import specs
from streamgraphs.errors import StreamGraphsError
from streamgraphs.graphs import OMEGA, standard
from streamgraphs.spaces import name_of, truncate
from streamgraphs.streams import parse_stream

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")

CLI_CASES = [
    ["truncate", "--in", "egr:komega", "--fuel", "60"],
    ["truncate", "--in", "gr:c5", "--fuel", "40"],
    ["truncate", "--in", "egr(7,0.5):du(c4,k3)", "--fuel", "50"],
    ["export", "json", "--in", "egr:omega(c4)", "--fuel", "50"],
    ["export", "json", "--in", "gr:l", "--fuel", "30"],
    ["export", "json", "--in", "egr:omega(l)", "--fuel", "400"],
    ["truncate", "--in", "egr:omega(k3)", "--fuel", "1000"],
    ["truncate", "--in", "egr:cu(c4,ray)", "--fuel", "120"],
    ["decide", "--pattern", "k3", "--host", "egr:komega", "--fuel", "100"],
    ["decide", "--pattern", "c4", "--host", "gr:omega(c4)", "--fuel", "200"],
    ["decide", "--pattern", "k3", "--host", "egr:l", "--fuel", "80"],
    ["decide", "--pattern", "c4", "--host", "egr:du(c5,k4,ray)",
     "--fuel", "1000"],
    ["decide", "--pattern", "r3", "--host", "egr:c5", "--mode", "is",
     "--fuel", "100"],
    ["decide", "--pattern", "r4", "--host", "gr:omega(c5)", "--mode", "is",
     "--fuel", "300"],
    ["decide", "--pattern", "r3", "--host", "egr(11,0.3):du(r3,c5)",
     "--mode", "is", "--fuel", "30"],
    ["search", "--solver", "finds", "--pattern", "c4",
     "--host", "egr:omega(c4)", "--fuel", "200"],
    ["search", "--solver", "finds", "--pattern", "k3", "--host", "egr:l",
     "--fuel", "40"],
    ["search", "--solver", "rayfollow:L", "--host", "egr:l", "--fuel", "500"],
    ["search", "--solver", "rayfollow:c3", "--host", "egr:cu(c3,ray)",
     "--fuel", "2000", "--steps", "6"],
    ["search", "--solver", "rayfollow:fbt", "--host", "gr:fbt",
     "--fuel", "1000", "--steps", "5"],
    ["search", "--solver", "embray", "--host", "gr:ray", "--fuel", "400",
     "--steps", "8"],
    ["gadget", "--name", "sigma1", "--in", "ec:[0,0,1];0", "--pattern", "k2",
     "--fuel", "30"],
    ["gadget", "--name", "acc", "--in", "ec:[0,0,0,3];0", "--decode",
     "--fuel", "40"],
    ["compose", "--gadget", "lim2", "--oracle", "embray",
     "--in", "ec:[0,0,0];1", "--fuel", "1000"],
    ["oracle", "--problem", "ccantor", "--in", "path(ec:[1,0];1)",
     "--fuel", "100"],
    ["oracle", "--problem", "cbaire", "--in", "path(ec:[3,0,2];1)",
     "--fuel", "100"],
    ["convert", "--f", "--in", "egr:komega", "--fuel", "500"],
    ["convert", "--f", "--in", "egr:omega(c4)", "--fuel", "1000"],
    ["convert", "--f", "--in", "egr(7,0.3):du(c5,k4,r3)", "--fuel", "400"],
    ["convert", "--in", "gr:komega", "--fuel", "300"],
    ["suite", "search-witnesses", "--seed", "0"],
    ["suite", "f-convert", "--seed", "0"],
    ["suite", "gadget-soundness", "--seed", "0"],
    ["validate", "--in", "egr:omega(c4)", "--fuel", "100"],
    ["validate", "--in", "gr:c5", "--fuel", "60"],
    ["gadget", "--name", "sigma2", "--in", "ec:[0,1];0", "--pattern", "r3",
     "--fuel", "60"],
    ["gadget", "--name", "forests", "--in", "ec:[0,1];0", "--fuel", "10"],
    ["gadget", "--name", "lim2", "--in", "ec:[0,0,1];1", "--decode",
     "--fuel", "60"],
    ["gadget", "--name", "cyclesbox", "--in", "path(ec:[1,0];1)",
     "--fuel", "30"],
    ["gadget", "--name", "enuminf", "--in", "[0,1,2]", "--decode",
     "--fuel", "8"],
    ["gadget", "--name", "s11choice", "--in", "fulltree,path(ec:[0];0)",
     "--fuel", "10"],
    ["oracle", "--problem", "lpo", "--in", "ec:[0,0,1];0", "--fuel", "100"],
    ["oracle", "--problem", "lim", "--in", "ec:[3,1];2", "--fuel", "100"],
    ["oracle", "--problem", "cn", "--in", "ec:[1,3];0", "--fuel", "100"],
    ["oracle", "--problem", "wf", "--in", "fintree:[[],[0],[1]]",
     "--fuel", "100"],
    ["compose", "--gadget", "sigma1", "--oracle", "contains",
     "--in", "ec:[0,1];0", "--pattern", "k2", "--fuel", "200"],
    ["compose", "--gadget", "l1", "--oracle", "findsray",
     "--in", "path(ec:[1,0];1)", "--fuel", "100"],
    ["search", "--solver", "t3", "--host", "egr:komega", "--fuel", "100"],
    ["decide", "--pattern", "k4", "--host", "egr:c5", "--fuel", "100"],
    ["search", "--solver", "rayfollow:k1", "--host", "egr:l", "--fuel", "20"],
    ["truncate", "--in", "egr:fbt", "--fuel", "100"],
    ["truncate", "--in", "egr:l1(fulltree,l)", "--fuel", "100"],
    ["convert", "--in", "gr:du(c4,k3)", "--fuel", "80"],
    ["oracle", "--problem", "ccantor", "--in", "fulltree", "--fuel", "20"],
    ["oracle", "--problem", "cbaire", "--in", "fulltree", "--fuel", "20"],
    ["oracle", "--problem", "ccantor", "--in", "fintree:[[],[0]]",
     "--fuel", "10"],
    ["oracle", "--problem", "wf", "--in", "path(ec:[];0)", "--fuel", "10"],
    ["oracle", "--problem", "lpo^(n)", "--in", "ec:[0,0,1];0",
     "--fuel", "100"],
    ["search", "--solver", "t3", "--host", "egr:fbt", "--fuel", "50"],
    ["gadget", "--name", "s11choice", "--in", "fintree:[[]]", "--fuel", "10"],
    ["truncate", "--in", "egr:cu(l1(fintree:[[],[0],[0,0]],ray),"
     "l1(path(ec:[];0),ray))", "--fuel", "20"],
    ["truncate", "--in", "gr:du(c4,ray)", "--fuel", "60"],
    ["decide", "--pattern", "r3", "--host", "egr:omega(c5)", "--mode", "is",
     "--fuel", "100"],
    ["search", "--solver", "t3", "--host", "egr:du(c4,komega)",
     "--fuel", "50"],
    ["truncate", "--in", "egr:l1(fulltree,k3)", "--fuel", "20"],
]


def _components():
    host = specs.parse_name("egr:omega(k3)")
    sol = S.find_s_components([(specs.parse_pattern("k2"), OMEGA)], host)
    return sol.name.stream.prefix(60)


def _components_exceptional():
    host = specs.parse_name("egr:du(k3,omega(k1))")
    sol = S.find_s_components([(specs.parse_pattern("k3"), 1),
                               (specs.parse_pattern("k1"), OMEGA)], host)
    return sol.name.stream.prefix(40)


def _connected():
    host = specs.parse_name("egr:du(c4,ray)")
    return S.restrict_to_connected(host, 0).stream.prefix(80)


def _is_via_cn(host, stage_cap):
    def run():
        sol = S.find_is_via_cn(specs.parse_pattern("r3"),
                               specs.parse_name(host),
                               S.cn_by_stabilization, stage_cap=stage_cap)
        return sol.inclusion_pairs()
    return run


def _t3(graph):
    return lambda: S.find_t3(specs.parse_graph(graph)).name.stream.prefix(40)


def _f2k2(host, k):
    return lambda: S.find_f2k2(host, k).name.stream.prefix(60)


def _sigma2(p, pattern):
    def run():
        name = GD.sigma2_gadget(parse_stream(p), specs.parse_pattern(pattern))
        return {"prefix": name.stream.prefix(80),
                "stable_fuel": name.meta.get("sigma2_stable_fuel")}
    return run


def _cycles_box_window():
    tree = specs.parse_tree("path(ec:[1,0];1)")
    return truncate(name_of("EGr", GD.cycles_box(tree)), 300).to_dict()


LIBRARY_CASES = {
    "find_s_components k2 in egr:omega(k3)": _components,
    "find_s_components k3+omega(k1) in egr:du(k3,omega(k1))":
        _components_exceptional,
    "restrict_to_connected egr:du(c4,ray) at 0": _connected,
    "find_is_via_cn r3 in egr:du(k2,r3)": _is_via_cn("egr:du(k2,r3)", 40),
    "find_is_via_cn r3 in egr(4,0.3):du(k2,r3)":
        _is_via_cn("egr(4,0.3):du(k2,r3)", 60),
    "find_is_via_cn r3 in egr:du(k3,c5), all rejected":
        _is_via_cn("egr:du(k3,c5)", 40),
    "find_t3 t1": _t3("t1"),
    "find_t3 komega": _t3("komega"),
    "find_f2k2 k=1 in f1": _f2k2(standard("ForestF", 1), 1),
    "find_f2k2 k=1 in t2": _f2k2(standard("TreeT", 2), 1),
    "find_f2k2 k=0 in omega(k1)": _f2k2(specs.parse_graph("omega(k1)"), 0),
    "sigma2_gadget r3, ones at 1 and 3": _sigma2("ec:[0,1,0,1];0", "r3"),
    "sigma2_gadget c4, ones every other stage": _sigma2("per:[];[0,1]", "c4"),
    "sigma2_gadget r3, no ones": _sigma2("ec:[];0", "r3"),
    "truncate(name_of EGr, cycles_box path(ec:[1,0];1)), 300":
        _cycles_box_window,
}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def current():
    got = {" ".join(argv): run_cli(argv) for argv in CLI_CASES}
    for key, fn in LIBRARY_CASES.items():
        try:
            got[key] = json.loads(json.dumps(fn()))
        except StreamGraphsError as exc:
            got[key] = {"raises": "%s: %s" % (type(exc).__name__, exc)}
    return got


def test_matches_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = current()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    with open(GOLDEN, "w") as fh:
        json.dump(current(), fh, indent=1, sort_keys=True)
        fh.write("\n")
