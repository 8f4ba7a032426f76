import contextlib
import io
import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from streamgraphs import cli, decide, spaces
from streamgraphs import gadgets as GD
from streamgraphs import specs
from streamgraphs.decide import Embedding, semidecide_s
from streamgraphs.errors import ParseError
from streamgraphs.graphs import FinGraph, Layered, OmegaCopies, TwoWayRay
from helpers import reference_parser
from test_spaces import _FINITE, _infinite


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def k2_file(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"v":[0,1],"e":[[0,1]]}')
    return str(path)


class TestSpecLanguage:
    def test_families(self):
        assert specs.parse_graph("k3").materialize() == FinGraph(
            [0, 1, 2], [(0, 1), (0, 2), (1, 2)])
        assert isinstance(specs.parse_graph("L"), TwoWayRay)
        assert isinstance(specs.parse_graph("omega(k2)"), OmegaCopies)

    def test_layered(self):
        g = specs.parse_graph("l2(path(ec:[0];0), ray)")
        assert isinstance(g, Layered)
        assert g.mode == "L2"

    def test_json_roundtrip(self):
        fin = FinGraph([0, 1, 2], [(0, 1), (1, 2)])
        again = FinGraph.from_json(fin.to_json())
        assert again == fin

    def test_bad_spec(self):
        with pytest.raises(ParseError):
            specs.parse_graph("definitely not a graph")
        with pytest.raises(ParseError):
            specs.parse_name("c3")  # missing space prefix

    def test_stutter_outside_unit_interval(self):
        with pytest.raises(ParseError):
            specs.parse_name("egr(1,1.0):c3")
        with pytest.raises(ParseError):
            specs.parse_name("egr(1,1.2.3):c3")
        specs.parse_name("egr(1,0.5):c3")

    def test_dense_egr_name_is_valid(self):
        from streamgraphs import spaces as SP
        name = specs.parse_name("egr:ray")
        assert SP.validate_name(name, horizon=300) == "ok"


class TestScheduleOnInfiniteHost:
    @pytest.mark.parametrize("host", ["egr(5,0.3):ray", "egr(9,0.9):l"])
    def test_refused_with_one_line(self, capsys, host):
        code = cli.main(["truncate", "--in", host])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("BadParam: ")


class TestDecide:
    def test_k2_in_c3_found(self, capsys, tmp_path):
        code, out = run(capsys, "decide", "--pattern", k2_file(tmp_path),
                        "--host", "egr:c3", "--mode", "s", "--fuel", "50")
        assert code == 0
        assert json.loads(out)["verdict"] == "found"

    def test_unknown_when_absent_without_certificate(self, capsys):
        code, out = run(capsys, "decide", "--pattern", "k3",
                        "--host", "egr:ray", "--fuel", "60")
        assert code == 2
        assert json.loads(out)["verdict"] == "unknown"

    def test_refuted_on_certified_host(self, capsys):
        code, out = run(capsys, "decide", "--pattern", "k3",
                        "--host", "egr:c4", "--fuel", "60")
        assert code == 0
        assert json.loads(out)["verdict"] == "refuted"

    @pytest.mark.parametrize("host, mode, fuel", [
        ("egr:c3", "s", 1000), ("egr:c3", "is", 1000), ("egr:c3", "s", 3),
        ("gr:c3", "is", 1000), ("egr:komega", "s", 1000)])
    def test_oversized_clique_is_not_built(self, capsys, monkeypatch, host,
                                           mode, fuel):
        """k200 has more vertices than the host can show: the answer is the
        engine's, and no FinGraph of 200 vertices gets built, neither by the
        constructor nor as a host window by spaces._Window."""
        want = semidecide_s(specs.parse_pattern("k200"),
                            specs.parse_name(host), induced=mode == "is",
                            fuel=fuel)
        sizes, windows = [], []
        init, window = FinGraph.__init__, cli._spaces._Window

        def counting(self, vertices, edges=()):
            init(self, vertices, edges)
            sizes.append(len(self.vertices))

        def counting_window(pairs):
            g = window(pairs)
            windows.append(len(g.vertices))
            return g

        monkeypatch.setattr(FinGraph, "__init__", counting)
        monkeypatch.setattr(cli._spaces, "_Window", counting_window)
        code, out = run(capsys, "decide", "--pattern", "k200", "--host", host,
                        "--mode", mode, "--fuel", str(fuel))
        report = json.loads(out)
        assert (report["verdict"], report.get("reason")) == (want.kind,
                                                             want.reason)
        assert windows and max(sizes + windows) < 200

    def test_is_witness_beyond_fuel_on_certified_host(self, capsys):
        # the copy lies beyond the fuel; the witness comes from the
        # certificate's window and is a real induced copy
        host = "egr(372612,0.827):du(r3,r5,c5)"
        code, out = run(capsys, "decide", "--pattern", "r4", "--host", host,
                        "--mode", "is", "--fuel", "50")
        report = json.loads(out)
        assert code == 0 and report["verdict"] == "found"
        emb = Embedding(report["witness"])
        assert emb.check(specs.parse_pattern("r4"),
                         specs.parse_graph("du(r3,r5,c5)").materialize(),
                         induced=True)


class TestGadgetThenDecide:
    def test_sigma1_all_zero(self, capsys, tmp_path):
        code, out = run(capsys, "gadget", "--name", "sigma1",
                        "--in", "ec:[0];0", "--pattern", k2_file(tmp_path))
        assert code == 0
        assert json.loads(out)["contains"] is False

    def test_sigma1_hit(self, capsys, tmp_path):
        code, out = run(capsys, "gadget", "--name", "sigma1",
                        "--in", "ec:[0,1];0", "--pattern", k2_file(tmp_path))
        assert code == 0
        assert json.loads(out)["contains"] is True

    def test_lim2_decode(self, capsys):
        code, out = run(capsys, "gadget", "--name", "lim2",
                        "--in", "ec:[1];0", "--decode")
        assert code == 0
        assert json.loads(out)["decoded"] == 0

    def test_acc_decode_avoids_removed_number(self, capsys):
        for spec, removed in (("ec:[0,0,0,3];0", 2), ("ec:[2];0", 1),
                              ("ec:[0];0", None), ("ec:[1];0", 0),
                              ("per:[0];[0,0,4]", 3)):
            code, out = run(capsys, "gadget", "--name", "acc", "--in", spec,
                            "--decode", "--fuel", "20")
            assert code == 0
            decoded = json.loads(out)["decoded"]
            assert decoded != removed and decoded >= 1, spec

    def test_enuminf_decode(self, capsys):
        code, out = run(capsys, "gadget", "--name", "enuminf",
                        "--in", "[0,1,0]", "--decode")
        assert code == 0
        assert json.loads(out)["decoded"][:3] == [1, 0, 1]

    def test_enuminf_refuses_huge_elements_before_decoding(self, capsys,
                                                           monkeypatch):
        """Elements past the int-to-text limit are refused at once, with
        --decode as without it: the check comes before the factoring,
        which would take minutes on such elements."""
        def never(*args):
            raise AssertionError("decoded before the printability check")

        monkeypatch.setattr(GD, "enuminf_decode", never)
        errs = []
        for spec, extra in (("[2000]", []), ("[2000]", ["--decode"]),
                            ("[20000]", ["--decode"])):
            code = cli.main(["gadget", "--name", "enuminf", "--in", spec]
                            + extra)
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("BadParam: too long to print")
            errs.append(captured.err)
        assert errs[0] == errs[1] != errs[2]

    def test_enuminf_rejects_bad_tables(self, capsys):
        for spec in ("[", "[]", "{}", '["a"]', "[-1]", "[true]", "[1.5]",
                     "3", "[0, null]"):
            code = cli.main(["gadget", "--name", "enuminf", "--in", spec,
                             "--fuel", "8"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == "", spec
            assert captured.err.count("\n") == 1, spec
            assert captured.err.startswith("ParseError: "), spec


class TestSearch:
    def test_rayfollow_l(self, capsys):
        code, out = run(capsys, "search", "--solver", "rayfollow:L",
                        "--host", "egr:L", "--fuel", "100")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 10

    def test_finds(self, capsys, tmp_path):
        code, out = run(capsys, "search", "--solver", "finds",
                        "--host", "egr:c3", "--pattern", k2_file(tmp_path),
                        "--fuel", "50")
        assert code == 0
        inc = json.loads(out)["inclusion"]
        assert len(inc) == 2

    def test_unknown_solver(self, capsys):
        code, _ = run(capsys, "search", "--solver", "nosuch",
                      "--host", "egr:c3")
        assert code == 1


class TestOracle:
    def test_lpo(self, capsys):
        code, out = run(capsys, "oracle", "--problem", "lpo",
                        "--in", "ec:[0];0", "--fuel", "50")
        assert code == 0
        assert json.loads(out)["answer"] == 1

    def test_wf(self, capsys):
        code, out = run(capsys, "oracle", "--problem", "wf",
                        "--in", "path(ec:[0];0)", "--fuel", "50")
        assert code == 0
        assert json.loads(out)["answer"] == 0

    def test_cbaire_unknown_on_fuel(self, capsys):
        code, out = run(capsys, "oracle", "--problem", "cbaire",
                        "--in", "fulltree", "--fuel", "50")
        # full binary tree has a certificate: answered exactly
        assert code == 0
        assert json.loads(out)["answer"][:3] == [0, 0, 0]


class TestCompose:
    def test_sigma1_contains(self, capsys):
        code, out = run(capsys, "compose", "--gadget", "sigma1",
                        "--oracle", "contains", "--in", "ec:[0];0",
                        "--pattern", "k2", "--fuel", "200")
        assert code == 0
        assert json.loads(out)["answer"] == 0

    def test_lim2_embray(self, capsys):
        code, out = run(capsys, "compose", "--gadget", "lim2",
                        "--oracle", "embray", "--in", "ec:[0,0,1];1")
        assert code == 0
        assert json.loads(out)["answer"] == 1

    @pytest.mark.parametrize("spec", ["per:[];[0,1]", "per:[];[1,0]",
                                      "per:[1];[0,1,1]", "ec:[];2"])
    def test_lim2_embray_refuses_what_lim2_refuses(self, capsys, spec):
        """An oscillating or non-binary driver exits 1 with the one stderr
        line that `oracle --problem lim2` prints on the same input."""
        code = cli.main(["compose", "--gadget", "lim2", "--oracle", "embray",
                         "--in", spec])
        composed = capsys.readouterr()
        assert code == 1 and composed.out == ""
        assert composed.err.count("\n") == 1
        assert cli.main(["oracle", "--problem", "lim2", "--in", spec]) == 1
        assert capsys.readouterr().err == composed.err

    def test_bad_pair(self, capsys):
        code, _ = run(capsys, "compose", "--gadget", "acc",
                      "--oracle", "embray", "--in", "ec:[0];0")
        assert code == 1


class TestFuel:
    def test_negative_fuel_rejected(self, capsys):
        for argv in (["truncate", "--in", "egr:c4"],
                     ["decide", "--pattern", "k2", "--host", "egr:c4"],
                     ["search", "--solver", "finds", "--pattern", "k2",
                      "--host", "egr:c4"]):
            code = cli.main(argv + ["--fuel", "-5"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.count("\n") == 1 and "-5" in captured.err

    def test_negative_default_fuel_rejected(self, capsys, monkeypatch):
        """The default fuel is the constant 1000: no environment variable
        makes it negative. Fuel 0 is given by --fuel and reads nothing."""
        monkeypatch.setenv("WG_FUEL_DEFAULT", "-3")
        code, out = run(capsys, "truncate", "--in", "egr:c4")
        assert code == 0 and json.loads(out)["fuel_spent"] == 1000
        code, out = run(capsys, "truncate", "--in", "egr:c4", "--fuel", "0")
        assert code == 0
        assert json.loads(out)["graph"] == {"e": [], "v": []}


class TestJsonPartInComposites:
    """A JSON file names a finite graph inside omega, du and cu as well as
    alone: each name reads as the one with the equal spec graph r3 in its
    place."""

    @staticmethod
    def r3_file(tmp_path):
        path = tmp_path / "r3.json"
        path.write_text('{"v":[0,1,2],"e":[[0,1],[1,2]]}')
        return str(path)

    @pytest.mark.parametrize("form", ["egr:du({},c3)", "egr:omega({})",
                                      "egr:cu({},ray)", "gr:du({},c3)"])
    def test_truncate(self, capsys, tmp_path, form):
        path = self.r3_file(tmp_path)
        code, out = run(capsys, "truncate", "--in", form.format(path),
                        "--fuel", "300")
        assert code == 0 and out.count("\n") == 1
        _, want = run(capsys, "truncate", "--in", form.format("r3"),
                      "--fuel", "300")
        assert json.loads(out) == json.loads(want)

    def test_decide_pattern(self, capsys, tmp_path):
        pattern = "du({},k1)".format(self.r3_file(tmp_path))
        code, out = run(capsys, "decide", "--pattern", pattern,
                        "--host", "egr:ray", "--fuel", "50")
        assert code == 0
        _, want = run(capsys, "decide", "--pattern", "du(r3,k1)",
                      "--host", "egr:ray", "--fuel", "50")
        assert json.loads(out) == json.loads(want)
        assert json.loads(out)["verdict"] == "found"


class TestJsonVertices:
    """A JSON graph file is input from outside the program: a vertex that
    is not a non-negative int, a bool included, is refused as a ParseError
    wherever the file is read, never read as some other vertex."""

    @pytest.mark.parametrize("text", [
        '{"v":[-1,2],"e":[[-1,2]]}', '{"v":[1.5],"e":[]}',
        '{"v":["a"],"e":[]}', '{"v":[true,3],"e":[]}'])
    @pytest.mark.parametrize("argv", [
        ["truncate", "--in", "gr:{}"], ["truncate", "--in", "egr:{}"],
        ["decide", "--pattern", "{}", "--host", "egr:komega"]])
    def test_refused(self, capsys, tmp_path, text, argv):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = cli.main([a.format(path) for a in argv] + ["--fuel", "20"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("ParseError: ")


class TestParserReuse:
    def test_calls_share_no_state(self, capsys):
        # r3 sits in C3 as a subgraph but not as an induced subgraph
        code, out = run(capsys, "decide", "--pattern", "r3",
                        "--host", "egr:c3", "--mode", "is", "--fuel", "50")
        assert code == 0 and json.loads(out)["verdict"] == "refuted"
        code, out = run(capsys, "decide", "--pattern", "r3",
                        "--host", "egr:c3", "--fuel", "50")
        assert code == 0 and json.loads(out)["verdict"] == "found"
        for fuel in (7, 9):
            code, out = run(capsys, "truncate", "--in", "egr:komega",
                            "--fuel", str(fuel))
            assert code == 0 and json.loads(out)["fuel_spent"] == fuel
        code, out = run(capsys, "truncate", "--in", "egr:komega")
        assert code == 0 and json.loads(out)["fuel_spent"] == 1000


class TestConvert:
    def test_f_convert_reports_forced_stages(self, capsys):
        code, out = run(capsys, "convert", "--f", "--in", "egr:komega",
                        "--fuel", "20")
        report = json.loads(out)
        assert code == 0
        assert report["image"] == [1, 2, 6]
        assert report["injuries"] == [[0, 0], [1, 0], [2, 1]]


class TestSuiteCommand:
    def test_f_convert_passes(self, capsys):
        code, out = run(capsys, "suite", "f-convert")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_unknown_suite(self, capsys):
        code, _ = run(capsys, "suite", "nosuch")
        assert code == 1

    def test_deterministic_bytes(self, capsys):
        _, first = run(capsys, "suite", "roundtrip", "--seed", "7")
        _, second = run(capsys, "suite", "roundtrip", "--seed", "7")
        assert first == second


class TestExport:
    def test_json_k3(self, capsys):
        code, out = run(capsys, "export", "json", "--in", "gr:k3",
                        "--fuel", "200")
        assert code == 0
        assert json.loads(out) == {"v": [0, 1, 2],
                                   "e": [[0, 1], [0, 2], [1, 2]]}

    def test_dot_sorted(self, capsys, tmp_path):
        target = tmp_path / "out.dot"
        code, _ = run(capsys, "export", "dot",
                      "--in", "egr:l2(path(ec:[0];0), ray)",
                      "--fuel", "20", "--out", str(target))
        assert code == 0
        text = target.read_text()
        edge_lines = [l for l in text.splitlines() if "--" in l]
        assert edge_lines == sorted(
            edge_lines, key=lambda l: [int(x) for x in
                                       l.strip(" ;").split(" -- ")])

    def test_parse_error(self, capsys):
        code, _ = run(capsys, "export", "json", "--in", "gr:nosuchthing")
        assert code == 1


class TestInternalErrors:
    def test_unexpected_exception_is_one_line_exit_1(self, capsys,
                                                     monkeypatch):
        def boom(*_args):
            raise RuntimeError("broken\nhandler")

        monkeypatch.setattr(cli._spaces, "truncate", boom)
        code = cli.main(["truncate", "--in", "egr:c4", "--fuel", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: broken handler\n"
        assert "Traceback" not in captured.err

    def test_fault_in_a_pattern_is_not_a_parse_error(self, capsys,
                                                     monkeypatch):
        """A pattern whose materialize fails for a reason other than being
        infinite reports the fault, not "is not a finite graph"."""
        def boom(_graph):
            raise AttributeError("no such field")

        monkeypatch.setattr(type(specs.parse_graph("c4")), "materialize",
                            boom)
        code = cli.main(["decide", "--pattern", "c4", "--host", "egr:l",
                         "--fuel", "20"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("internal error: AttributeError: "
                                "no such field\n")

    @pytest.mark.parametrize("spec", [
        "ray", "komega", "l", "fbt", "omega(c4)", "cu(c4,ray)",
        "l1(fulltree,l)", "l2(fulltree,l)", "du(k1,ray)", "t1", "f1"])
    def test_infinite_pattern_is_a_parse_error(self, capsys, spec):
        code = cli.main(["decide", "--pattern", spec, "--host", "egr:l",
                         "--fuel", "20"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("ParseError: pattern %r is not a finite "
                                "graph\n" % spec)

    @pytest.mark.parametrize("command", [["truncate"], ["export", "json"],
                                         ["export", "dot"]])
    def test_code_too_long_to_print_is_refused(self, capsys, command):
        """The window's largest code has 118,714 bits, past Python's 4,300
        digit int-to-text limit: a BadParam that names its size."""
        code = cli.main(command + ["--in", "egr:l1(path(ec:[0];1),omega(k2))",
                                   "--fuel", "27"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("BadParam: too long to print: a vertex code "
                                "of 118714 bits has more than %d decimal "
                                "digits\n" % sys.get_int_max_str_digits())

    @pytest.mark.parametrize("command", [["decide"],
                                         ["search", "--solver", "finds"]])
    def test_witness_too_long_to_print_is_refused(self, capsys, command):
        """Eight disjoint edges map onto window codes past the int-to-text
        limit: the report is refused with a BadParam, not printed."""
        code = cli.main(command + ["--pattern", "du(%s)" % ",".join(["k2"] * 8),
                                   "--host", "egr:l1(path(ec:[0];1),omega(k2))",
                                   "--fuel", "30"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("BadParam: too long to print: a vertex code "
                                "of 29680 bits has more than %d decimal "
                                "digits\n" % sys.get_int_max_str_digits())


class TestUsageErrors:
    """Every parse error is one stderr line and exit 1, returned, not
    raised; a help request prints the usage and exits 0."""

    @pytest.mark.parametrize("argv", [
        ["decide", "--host", "egr:l"],                       # missing option
        ["decide", "--pattern", "c3", "--host", "egr:l", "--fuel", "abc"],
        ["decide", "--pattern", "c3", "--host", "egr:l", "--mode", "x"],
        ["truncate", "--in", "egr:l", "--nosuch"],           # unknown option
        ["decide", "--h", "egr:l", "--pattern", "c3"],       # ambiguous
        ["truncate", "--in"],                                # missing value
        ["truncate", "--in", "-h x"],                        # -h, not a value
        ["suite", "f-convert", "stray"],                     # extra positional
        ["export", "xml", "--in", "gr:k3"],                  # bad positional
        ["convert", "--f=1", "--in", "gr:k3"],               # flag with value
        ["frobnicate"],                                      # unknown command
        [],                                                  # no command
    ])
    def test_one_line_exit_1(self, capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            pytest.fail("SystemExit(%r) raised" % exc.code)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("sgraph")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, first", [
        (["-h"], "usage: sgraph validate --in IN [--fuel FUEL]"),
        (["--he"], "usage: sgraph validate --in IN [--fuel FUEL]"),
        (["decide", "--help"], "usage: sgraph decide --pattern PATTERN "
                               "--host HOST [--mode {is,s}] [--fuel FUEL]"),
        (["export", "--in", "gr:k3", "-h"],
         "usage: sgraph export {dot,json} --in IN [--fuel FUEL] [--out OUT]"),
    ])
    def test_help_exits_0(self, capsys, argv, first):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            pytest.fail("SystemExit(%r) raised" % exc.code)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.startswith(first + "\n")
        assert captured.out.count("usage: sgraph") == (
            len(cli.COMMANDS) if len(argv) == 1 else 1)

    def test_options_read_as_argparse_did(self, capsys):
        """Prefixes, '=' forms, the last of a repeat and a positional after
        the options all reach the handler as before."""
        _, want = run(capsys, "decide", "--pattern", "c3", "--host", "egr:l",
                      "--fuel", "50")
        for argv in (["decide", "--host=egr:l", "--pa", "c3", "--fu=50"],
                     ["decide", "--pattern", "k2", "--fuel", "9", "--ho",
                      "egr:l", "--pattern=c3", "--fuel", "50"]):
            code, out = run(capsys, *argv)
            assert (code, out) == (2, want)
        _, want = run(capsys, "export", "json", "--in", "gr:k3", "--fuel",
                      "20")
        code, out = run(capsys, "export", "--in", "gr:k3", "--f", "20",
                        "--", "json")
        assert (code, out) == (0, want)


class TestInputErrors:
    def test_finds_without_pattern(self, capsys):
        code = cli.main(["search", "--solver", "finds", "--host", "egr:l"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "sgraph search: finds needs --pattern\n"

    @pytest.mark.parametrize("command, flag", [
        (["truncate"], "--dot"), (["export", "dot"], "--out"),
        (["export", "json"], "--out")])
    def test_unwritable_path(self, capsys, tmp_path, command, flag):
        path = str(tmp_path / "missing" / "out.txt")
        code = cli.main(command + ["--in", "gr:k3", "--fuel", "20",
                                   flag, path])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("BadParam: cannot write %r: No such file or "
                                "directory\n" % path)


def _options(table):
    return [key for key in table if key[0] == "-"] + ["--help"]


def _prefixes(key, options):
    """The texts that name option `key` among `options`: itself and every
    prefix of it that no other option shares."""
    return [key[:n] for n in range(3, len(key) + 1)
            if key[:n] == key or key[:n] not in options and
            [o for o in options if o.startswith(key[:n])] == [key]]


_STR = (st.sampled_from(["egr:l", "k3", "ec:[0];0", "", "-", "-5", "-1.5",
                         "a b", "-x y", "--in x", "x=y"])
        | st.text(max_size=5).filter(lambda t: not t.startswith("-")))
_INT = (st.integers(-10 ** 6, 10 ** 6).map(str)
        | st.sampled_from([" 7", "+3", "1_000", "007", "-0", "\u0663"]))
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


@st.composite
def _table_argv(draw):
    """A command and its option groups, drawn from `cli.COMMANDS`: every
    required option and some others, a repeat here and there, each as
    `--opt value`, `--opt=value` or a unique prefix, in shuffled order; a
    last positional may follow `--`, which ends the options."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    table = cli.COMMANDS[command][2]
    options = _options(table)
    groups = []
    for key, (kind, default) in table.items():
        if default is not cli.REQUIRED and draw(st.booleans()):
            continue
        for _ in range(1 if key[0] != "-" else draw(st.integers(1, 2))):
            value = draw(_INT if kind is int else st.sampled_from(kind)
                         if isinstance(kind, tuple) else _STR)
            if key[0] != "-":
                groups.append((key, [value]))
                continue
            name = draw(st.sampled_from(_prefixes(key, options)))
            if kind is bool:
                groups.append((key, [name]))
            elif (value[:1] == "-" and len(value) > 1 and " " not in value
                  and not _NEGATIVE.match(value) or draw(st.booleans())):
                groups.append((key, [name + "=" + value]))
            else:
                groups.append((key, [name, value]))
    groups = draw(st.permutations(groups))
    if groups and groups[-1][0][0] != "-" and draw(st.booleans()):
        groups[-1] = (groups[-1][0], ["--"] + groups[-1][1])
    return command, groups


def _flat(command, groups):
    return [command] + [token for _, tokens in groups for token in tokens]


@st.composite
def _malformed_argv(draw):
    """A drawn argv with one fault that argparse rejected: a required
    option dropped, a bad int or choice, an unknown or ambiguous option, a
    value missing, a stray positional or an unknown command."""
    command, groups = draw(_table_argv())
    table = cli.COMMANDS[command][2]
    options = _options(table)
    required = [key for key, (_, d) in table.items() if d is cli.REQUIRED]
    ints = [key for key, (kind, _) in table.items() if kind is int]
    choices = [key for key, (kind, _) in table.items()
               if isinstance(kind, tuple)]
    ambiguous = ["--=x"] + [key[:n] for key in options
                            for n in range(3, len(key))
                            if key[:n] not in options and sum(
                                o.startswith(key[:n]) for o in options) > 1]
    faults = ["unknown option", "missing value", "stray", "command"]
    faults += ["drop"] * bool(required) + ["int"] * bool(ints)
    faults += ["choice"] * bool(choices) + ["ambiguous"] * (len(ambiguous) > 1)
    fault = draw(st.sampled_from(faults))
    at = draw(st.integers(0, len(groups)))
    if fault == "drop":
        key = draw(st.sampled_from(required))
        groups = [g for g in groups if g[0] != key]
    elif fault == "int":
        key = draw(st.sampled_from(ints))
        junk = draw(st.sampled_from(["abc", "1.5", "", "0x10", "1e3", "½"]))
        groups.insert(at, (key, [key, junk]))
    elif fault == "choice":
        key = draw(st.sampled_from(choices))
        bad = draw(st.sampled_from(["x", "S", "", "JSON"]))
        if key[0] == "-":
            groups.insert(at, (key, [key, bad]))
        else:
            groups = [(k, t[:-1] + [bad] if k == key else t)
                      for k, t in groups]
    elif fault == "unknown option":
        groups.insert(at, (None, [draw(st.sampled_from(
            ["--zzz", "-x", "--nosuch=1", "-q", "---in"]))]))
    elif fault == "ambiguous":
        groups.insert(at, (None, [draw(st.sampled_from(ambiguous)), "k3"]))
    elif fault == "missing value":   # at the end, or before no value
        groups.append((None, [draw(st.sampled_from(
            [key for key in options if table.get(key, (bool,))[0]
             is not bool]))] + draw(st.sampled_from(
                 [[], ["--"], ["--", "k3"], ["-h x"]]))))
    elif fault == "stray":
        groups.insert(at, (None, ["stray"]))
    else:
        command = draw(st.sampled_from(["frobnicate", "", "Decide",
                                        "sgraph"]))
    return _flat(command, groups)


def _reference(argv):
    """The argparse namespace of argv as a dict, or SystemExit's code."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(reference_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


class TestTableParser:
    """The command table's parser against the argparse parser it replaced
    (`helpers.reference_parser`)."""

    @settings(max_examples=400, deadline=None)
    @given(_table_argv())
    def test_same_values_as_argparse(self, drawn):
        argv = _flat(*drawn)
        want = _reference(argv)
        assert isinstance(want, dict), argv
        assert vars(cli._parse(argv)) == want

    @settings(max_examples=400, deadline=None)
    @given(_malformed_argv())
    def test_rejects_what_argparse_rejected(self, argv):
        assert _reference(argv) == 2
        with pytest.raises(cli._Usage):
            cli._parse(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().count("\n") == 1


_HOST = (st.builds("{}:{}".format, st.sampled_from(["gr", "egr"]),
                   _infinite(2) | _FINITE)
         | st.builds("egr({},{}):{}".format, st.integers(0, 99),
                     st.sampled_from(["0", "0.3"]), _FINITE))
_PATTERN = _FINITE | st.sampled_from(["k1", "k2", "r2", "k40"])
_ARGV = (st.tuples(st.sampled_from(["validate", "truncate", "convert"]),
                   st.just("--in"), _HOST)
         | st.tuples(st.just("convert"), st.just("--f"), st.just("--in"),
                     _HOST)
         | st.tuples(st.just("export"), st.just("json"), st.just("--in"),
                     _HOST)
         | st.tuples(st.just("decide"), st.just("--pattern"), _PATTERN,
                     st.just("--host"), _HOST, st.just("--mode"),
                     st.sampled_from(["s", "is"]))
         | st.tuples(st.just("search"), st.just("--solver"),
                     st.just("finds"), st.just("--pattern"), _PATTERN,
                     st.just("--host"), _HOST))


class TestInducedVerdicts:
    """An EGr window can lack an edge that arrives later, so an induced
    copy in the window need not be one in the host."""

    @pytest.mark.parametrize("argv", [
        ["--pattern", "r3", "--host", "egr:omega(komega)"],
        ["--pattern", "r3", "--host", "egr:du(komega,l)", "--fuel", "8"],
        ["--pattern", "du(k1,k1)", "--host", "egr:cu(k4,ray)",
         "--fuel", "2"]])
    def test_window_copy_broken_later_is_unknown(self, capsys, argv):
        code, out = run(capsys, "decide", *argv, "--mode", "is")
        assert code == 2 and json.loads(out)["verdict"] == "unknown"

    def test_confirmed_window_copy(self, capsys):
        """The least window copy is broken later; the next one holds."""
        code, out = run(capsys, "decide", "--pattern", "r3", "--host",
                        "egr:du(komega,l)", "--mode", "is", "--fuel", "13")
        assert code == 0
        assert json.loads(out)["witness"] == [[0, 4], [1, 1], [2, 8]]

    def test_certified_host_is_read_and_searched_once(self, capsys,
                                                      monkeypatch):
        """The fuel window and the certified whole graph come from one
        view, and the whole graph's copy, searched once to rule out a
        refutation, is the witness when no window copy is confirmed: one
        view and two searches (three of each when each was its own)."""
        views, searches = [], []
        init, search = spaces.HostView.__init__, decide.fin_subgraph

        def counting_init(view, name):
            views.append(name)
            init(view, name)

        def counting_search(g, h, *args, **kwargs):
            searches.append(h)
            return search(g, h, *args, **kwargs)

        monkeypatch.setattr(spaces.HostView, "__init__", counting_init)
        monkeypatch.setattr(decide, "fin_subgraph", counting_search)
        code, out = run(capsys, "decide", "--pattern", "r3", "--host",
                        "egr(11,0.3):du(c4,k3,r5)", "--mode", "is",
                        "--fuel", "8")
        assert code == 0
        assert json.loads(out)["witness"] == [[0, 0], [1, 2], [2, 5]]
        assert len(views) == 1 and len(searches) == 2

    @settings(max_examples=300, deadline=None)
    @given(_PATTERN | st.sampled_from(["du(k1,k1)", "du(k1,k2)",
                                       "du(k2,k1,k1)"]),
           _HOST, st.sampled_from(["s", "is"]), st.integers(0, 12))
    def test_found_witnesses_hold_in_the_denoted_graph(self, pattern, host,
                                                        mode, fuel):
        """Every found witness is a copy in the denoted graph, and more
        fuel keeps the answer found. The fuel stays at most 20: the vertex
        codes of some l2 names double in length at every position."""
        g = specs.parse_pattern(pattern)
        denoted = specs.parse_name(host).meta["denotes"]
        verdicts = []
        for f in (fuel, fuel + 8):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["decide", "--pattern", pattern, "--host",
                                 host, "--mode", mode, "--fuel", str(f)])
            assert code in (0, 2)
            report = json.loads(out.getvalue())
            verdicts.append(report["verdict"])
            if report["verdict"] == "found":
                assert Embedding(report["witness"]).check(
                    g, denoted, induced=mode == "is")
        assert verdicts[0] != "found" or verdicts[1] == "found"


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_ARGV, st.integers(0, 30))
    def test_spec_grammar(self, argv, fuel):
        """Any command on any spec name answers with an exit code of the
        CLI, no traceback, and one sorted JSON report when it answers."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv) + ["--fuel", str(fuel)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code in (0, 2):
            line = out.getvalue()
            assert line.count("\n") == 1 and line.endswith("\n")
            assert json.dumps(json.loads(line), sort_keys=True) == line[:-1]

    @settings(max_examples=150, deadline=None)
    @given(_ARGV, st.integers(0, 30), st.data())
    def test_malformed(self, argv, fuel, data):
        """The same argv with a required option dropped, a junk fuel or a
        stray token: an exit code of the CLI, no traceback, and exit 1 with
        one stderr line for a parse error."""
        argv = list(argv) + ["--fuel", str(fuel)]
        fault = data.draw(st.sampled_from(["drop", "junk", "stray"]))
        if fault == "drop":
            at = data.draw(st.sampled_from(
                [i for i, token in enumerate(argv)
                 if token in ("--in", "--pattern", "--host", "--solver")]))
            del argv[at:at + 2]
        elif fault == "junk":
            argv[-1] = data.draw(
                st.sampled_from(["abc", "1.5", "", "0x1f", "- 3", "-x", "--"])
                | st.text("ab1.-x ", max_size=4))
        else:
            argv.insert(data.draw(st.integers(1, len(argv))), data.draw(
                st.sampled_from(["stray", "-x", "--", "--zz", "-5", "--f",
                                 "-h"]) | st.text("ab-= ", max_size=4)))
        with contextlib.redirect_stdout(io.StringIO()):   # help prints
            try:
                cli._parse(argv)
                parse_error = False
            except cli._Usage:
                parse_error = True
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if parse_error:
            assert (code, out.getvalue()) == (1, "")
            assert err.getvalue().count("\n") == 1


class TestDeterminism:
    def test_truncate_reports_identical(self, capsys):
        _, a = run(capsys, "truncate", "--in", "egr:c4", "--fuel", "30")
        _, b = run(capsys, "truncate", "--in", "egr:c4", "--fuel", "30")
        assert a == b

    def test_validate_roundtrips_own_output(self, capsys):
        code, out = run(capsys, "validate", "--in", "egr:komega",
                        "--fuel", "100")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True and report["space"] == "EGr"
