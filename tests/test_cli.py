import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from streamgraphs import cli
from streamgraphs import specs
from streamgraphs.decide import Embedding, semidecide_s
from streamgraphs.errors import ParseError
from streamgraphs.graphs import FinGraph, Layered, OmegaCopies, TwoWayRay
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
        engine's, and no FinGraph of 200 vertices gets built."""
        want = semidecide_s(specs.parse_pattern("k200"),
                            specs.parse_name(host), induced=mode == "is",
                            fuel=fuel)
        sizes = []
        init = FinGraph.__init__

        def counting(self, vertices, edges=()):
            init(self, vertices, edges)
            sizes.append(len(self.vertices))

        monkeypatch.setattr(FinGraph, "__init__", counting)
        code, out = run(capsys, "decide", "--pattern", "k200", "--host", host,
                        "--mode", mode, "--fuel", str(fuel))
        report = json.loads(out)
        assert (report["verdict"], report.get("reason")) == (want.kind,
                                                             want.reason)
        assert sizes and max(sizes) < 200

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
        monkeypatch.setenv("WG_FUEL_DEFAULT", "-3")
        code, out = run(capsys, "truncate", "--in", "egr:c4")
        assert code == 1 and out == ""
        monkeypatch.setenv("WG_FUEL_DEFAULT", "0")
        code, out = run(capsys, "truncate", "--in", "egr:c4")
        assert code == 0
        assert json.loads(out)["graph"] == {"e": [], "v": []}


class TestParserReuse:
    def test_calls_share_no_state(self, capsys, monkeypatch):
        # r3 sits in C3 as a subgraph but not as an induced subgraph
        code, out = run(capsys, "decide", "--pattern", "r3",
                        "--host", "egr:c3", "--mode", "is", "--fuel", "50")
        assert code == 0 and json.loads(out)["verdict"] == "refuted"
        code, out = run(capsys, "decide", "--pattern", "r3",
                        "--host", "egr:c3", "--fuel", "50")
        assert code == 0 and json.loads(out)["verdict"] == "found"
        for fuel in (7, 9):
            monkeypatch.setenv("WG_FUEL_DEFAULT", str(fuel))
            code, out = run(capsys, "truncate", "--in", "egr:komega")
            assert code == 0 and json.loads(out)["fuel_spent"] == fuel


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
