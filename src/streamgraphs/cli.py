"""Command-line front door.

Every subcommand prints one RunReport as sorted JSON on stdout and exits
0 when the query was decided / the object was produced, 2 when the answer
is Unknown (fuel ran out, a semidecision did not settle, an oracle refused),
and 1 on usage or parse errors.  Reports are deterministic for fixed argv.

`COMMANDS` is the one table of commands and their options, and `_parse`
reads argv with it: `--opt value` or `--opt=value`, any unique prefix of an
option (`--help` counts, so `--h` is ambiguous where `--host` exists), the
last of a repeated option, positionals anywhere, and `--` to end the
options. `-h` / `--help` prints the usage to stdout and exits 0; every
usage error is one line on stderr and exit 1.
"""

import json
import re
import sys
import types

from . import gadgets as _gadgets
from . import problems as _problems
from . import search as _search
from . import spaces as _spaces
from . import specs as _specs
from . import suites as _suites
from .errors import (BadParam, FuelExhausted, OracleRefused, ParseError,
                     PatternNeverSeen, StreamGraphsError, UnknownSuite)
from .graphs import check_printable
from .streams import parse_stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
DEFAULT_FUEL = 1000


def _emit(report):
    try:
        text = json.dumps(report, sort_keys=True)
    except ValueError:  # an int past the int-to-text limit, named below
        check_printable(max(_ints(report), default=0))
        raise
    print(text)


def _ints(obj):
    """The absolute values of the ints inside a report."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _ints(x)
    elif isinstance(obj, int):
        yield abs(obj)


# ---------------------------------------------------------------------------
# Subcommand bodies: each returns (its report keys, exit code); main adds
# the keys every report shares. Keys None means nothing to print.
# ---------------------------------------------------------------------------

def cmd_validate(args):
    name = _specs.parse_name(getattr(args, "in"))
    verdict = _spaces.validate_name(name, horizon=args.fuel)
    return {"space": name.space, "verdict": verdict,
            "ok": verdict == "ok"}, EXIT_OK


def cmd_convert(args):
    name = _specs.parse_name(getattr(args, "in"))
    if args.f:
        out, trace = _spaces.f_convert(name)
        prefix = out.stream.prefix(args.fuel)  # runs the stages it reads
        return {"conversion": "egr-to-gr",
                "image": sorted(trace.image()),
                "injuries": sorted((v, trace.injury_count(v))
                                   for v in trace.first_emission),
                "prefix": prefix}, EXIT_OK
    out = _spaces.gr_to_egr(name)
    return {"conversion": "gr-to-egr",
            "prefix": out.stream.prefix(args.fuel)}, EXIT_OK


def cmd_truncate(args):
    name = _specs.parse_name(getattr(args, "in"))
    fin = _spaces.truncate(name, args.fuel)
    keys = {"graph": fin.to_dict()}
    if args.dot:
        _write(args.dot, fin.to_dot())
        keys["artifacts"] = [args.dot]
    return keys, EXIT_OK


def _verdict_keys(verdict):
    keys = {"verdict": verdict.kind}
    if verdict.kind == "found":
        keys["witness"] = sorted(verdict.witness.pairs())
    if verdict.kind == "refuted":
        keys["reason"] = verdict.reason
    return keys, (EXIT_OK if verdict.kind in ("found", "refuted")
                  else EXIT_UNKNOWN)


def cmd_decide(args):
    n = _specs.clique_order(args.pattern)
    pattern = n or _specs.parse_pattern(args.pattern)
    from .decide import decide
    return _verdict_keys(decide(pattern, _specs.parse_name(args.host),
                                induced=(args.mode == "is"), fuel=args.fuel))


def cmd_search(args):
    spec = args.solver.split(":", 1)
    solver, param = spec[0].lower(), (spec[1] if len(spec) > 1 else None)
    host = _specs.parse_name(args.host)
    if solver == "rayfollow":
        kind = _ray_kind(param)
        return {"vertices": _search.ray_follow(
            kind, host, fuel=args.fuel, steps=args.steps)}, EXIT_OK
    if solver == "finds":
        if args.pattern is None:
            raise _Usage("sgraph search: finds needs --pattern")
        pattern = _specs.parse_pattern(args.pattern)
        sol = _search.find_s_finite(pattern, host, fuel=args.fuel)
        return {"inclusion": sol.inclusion_pairs()}, EXIT_OK
    if solver == "embray":
        return {"vertices": _search.emb_ray_r(
            host, lambda q: q.eval(max(args.fuel // 8, 8)),
            fuel=args.fuel, steps=args.steps)}, EXIT_OK
    if solver == "t3":
        graph = _specs.parse_graph(args.host.split(":", 1)[-1])
        sol = _search.find_t3(graph, scan=args.fuel)
        pairs = sol.inclusion_pairs() if not callable(sol.inclusion) \
            else [(i, sol.inclusion(i)) for i in range(args.steps)]
        return {"inclusion": pairs}, EXIT_OK
    raise _Usage("unknown solver %r" % args.solver)


def _ray_kind(param):
    if param is None:
        raise _Usage("rayfollow needs a parameter, e.g. rayfollow:L")
    p = param.lower()
    if p == "l":
        return "TwoWayRay"
    if p == "fbt":
        return "FullBinaryTree"
    if p.startswith("c") and p[1:].isdigit():
        return ("CycleTailRay", int(p[1:]))
    if p.startswith("k") and p[1:].isdigit():
        return ("CompleteTailRay", int(p[1:]))
    raise _Usage("unknown rayfollow kind %r" % param)


_GADGETS = ("sigma1", "sigma2", "forests", "acc", "lim2", "cyclesbox",
            "enuminf", "s11choice")


def cmd_gadget(args):
    name = args.name.lower()
    if name not in _GADGETS:
        raise _Usage("unknown gadget %r" % args.name)
    keys = {}
    spec = getattr(args, "in")
    fuel = args.fuel
    if name == "sigma1":
        p = parse_stream(spec)
        out = _gadgets.sigma1_gadget(
            p, _specs.parse_pattern(args.pattern or "k2"))
        keys["prefix"] = out.stream.prefix(fuel)
        if args.pattern:
            from .decide import fin_subgraph
            fin = _spaces.gr_window(out, 20)
            emb = fin_subgraph(_specs.parse_pattern(args.pattern), fin,
                               induced=True)
            keys["contains"] = emb is not None
    elif name == "sigma2":
        p = parse_stream(spec)
        out = _gadgets.sigma2_gadget(
            p, _specs.parse_pattern(args.pattern or "r3"))
        keys["prefix"] = out.stream.prefix(min(fuel, 300))
        if args.pattern:
            from .decide import decide_is_egr_noncomplete
            keys["contains"] = decide_is_egr_noncomplete(
                _specs.parse_pattern(args.pattern), out)
    elif name == "forests":
        p = parse_stream(spec)
        forest = _gadgets.forests_lift(p)
        from .decide import predicate_tf
        keys["predicate_t1"] = predicate_tf("T", 1, forest)
    elif name == "acc":
        p = parse_stream(spec)
        out = _gadgets.acc_gadget(p)
        keys["prefix"] = out.name.stream.prefix(min(fuel, 200))
        if args.decode:
            keys["decoded"] = _gadgets.acc_decode(
                _gadgets.acc_canonical_solution(p))
    elif name == "lim2":
        q = parse_stream(spec)
        out = _gadgets.lim2_to_embR(q)
        keys["prefix"] = out.stream.prefix(min(fuel, 200))
        if args.decode:
            keys["decoded"] = _gadgets.embR_decode(
                _gadgets.embR_canonical_solution(q))
    elif name == "cyclesbox":
        from .trees import coinfinite_wrap
        tree = coinfinite_wrap(_specs.parse_tree(spec))
        box = _gadgets.cycles_box(tree)
        fin = box.window(min(fuel, 40))
        keys["graph"] = fin.to_dict()
    elif name == "enuminf":
        lam_table = _lam_table(spec)
        a = _gadgets.CertifiedPiSet(
            lambda n, t=lam_table: t[n % len(t)])
        enum = _gadgets.enuminf_encode(a)
        keys["elements"] = enum.prefix(min(fuel, 8))
        # refuse before decoding: factoring a huge element takes minutes
        check_printable(max(keys["elements"], default=0))
        if args.decode:
            chi = _gadgets.enuminf_decode(enum)
            keys["decoded"] = chi.prefix(13)
    elif name == "s11choice":
        trees = [_specs.parse_tree(t)
                 for t in _specs._split_args(spec)]
        _gadgets.sigma11_choice_gadget(trees)
        keys["trees"] = len(trees)
    return keys, EXIT_OK


def _lam_table(spec):
    """The enuminf input: a non-empty JSON list of levels, repeated."""
    try:
        table = json.loads(spec)
    except ValueError as exc:
        raise ParseError("bad enuminf table: %s" % exc)
    if not (isinstance(table, list) and table and all(
            type(x) is int and x >= 0 for x in table)):
        raise ParseError("enuminf table must be a non-empty JSON list of "
                         "non-negative integers, got %r" % spec)
    return table


def cmd_oracle(args):
    problem = _problems.problem_by_name(args.problem)
    spec = getattr(args, "in")
    if problem.name in ("wf", "ccantor", "cbaire"):
        instance = _specs.parse_tree(spec)
    else:
        instance = parse_stream(spec)
    answer = _problems.oracle_call(problem, instance, args.fuel)
    if hasattr(answer, "prefix"):
        answer = answer.prefix(min(args.fuel, 12))
    return {"problem": problem.name, "answer": answer}, EXIT_OK


def cmd_compose(args):
    gadget = args.gadget.lower()
    oracle = args.oracle.lower()
    spec = getattr(args, "in")
    if gadget == "sigma1" and oracle == "contains":
        pattern = _specs.parse_pattern(args.pattern or "k2")
        harness = _problems.ReductionHarness(
            lambda p: _gadgets.sigma1_gadget(p, pattern),
            lambda _x, bit: bit)
        prob = _problems.subgraph_presence_problem(pattern, induced=True,
                                                   fuel=args.fuel)
        answer = _problems.compose(harness, prob, parse_stream(spec))
    elif gadget == "lim2" and oracle == "embray":
        harness = _problems.ReductionHarness(
            lambda q: _gadgets.lim2_to_embR(q),
            lambda _x, walk: _gadgets.embR_decode(walk))
        prob = _problems.ray_embedding_problem(fuel=args.fuel)
        answer = _problems.compose(harness, prob, parse_stream(spec))
    elif gadget == "l1" and oracle == "findsray":
        path = _problems.path_choice_roundtrip(_specs.parse_tree(spec))
        answer = path.prefix(10)
    else:
        raise _Usage("unsupported gadget/oracle pair %s/%s"
                     % (args.gadget, args.oracle))
    return {"answer": answer}, EXIT_OK


def cmd_suite(args):
    report = _suites.run_suite(args.name, seed=args.seed)
    return report, EXIT_OK if report["ok"] else EXIT_USAGE


def cmd_export(args):
    name = _specs.parse_name(getattr(args, "in"))
    fin = _spaces.truncate(name, args.fuel)
    text = fin.to_dot() if args.kind == "dot" else fin.to_json() + "\n"
    if not args.out:
        sys.stdout.write(text)
        return None, EXIT_OK
    _write(args.out, text)
    return {"artifacts": [args.out]}, EXIT_OK


def _write(path, text):
    """Write an artifact; a path that cannot be written is a BadParam."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParam("cannot write %r: %s" % (path, exc.strerror or exc))


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class _Usage(Exception):
    pass


REQUIRED = ...   # the default of an option that must be given
_MUST, _MAY, _FUEL = (str, REQUIRED), (str, None), (int, None)

# command -> (handler, help, {--option or POSITIONAL: (kind, default)}); a
# kind is str, int, bool (a flag) or a tuple of choices. main turns a fuel
# of None into DEFAULT_FUEL.
COMMANDS = {
    "validate": (cmd_validate, "check a name against its space",
                 {"--in": _MUST, "--fuel": _FUEL}),
    "convert": (cmd_convert, "convert between name spaces",
                {"--in": _MUST, "--f": (bool, False), "--fuel": _FUEL}),
    "truncate": (cmd_truncate, "finite window of a name",
                 {"--in": _MUST, "--fuel": _FUEL, "--dot": _MAY}),
    "decide": (cmd_decide, "fueled (induced-)subgraph query",
               {"--pattern": _MUST, "--host": _MUST,
                "--mode": (("is", "s"), "s"), "--fuel": _FUEL}),
    "search": (cmd_search, "produce a copy of a known pattern",
               {"--solver": _MUST, "--host": _MUST, "--pattern": _MAY,
                "--fuel": _FUEL, "--steps": (int, 10)}),
    "gadget": (cmd_gadget, "run a reduction gadget",
               {"--name": _MUST, "--in": _MUST, "--pattern": _MAY,
                "--decode": (bool, False), "--fuel": _FUEL}),
    "oracle": (cmd_oracle, "call a certified oracle problem",
               {"--problem": _MUST, "--in": _MUST, "--fuel": _FUEL}),
    "compose": (cmd_compose, "gadget -> oracle -> decode",
                {"--gadget": _MUST, "--oracle": _MUST, "--in": _MUST,
                 "--pattern": _MAY, "--fuel": _FUEL}),
    "suite": (cmd_suite, "run a self-check suite",
              {"NAME": _MUST, "--seed": (int, 0)}),
    "export": (cmd_export, "render a truncation",
               {"KIND": (("dot", "json"), REQUIRED), "--in": _MUST,
                "--fuel": _FUEL, "--out": _MAY}),
}
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match   # -5 is a value


def _lookup(token, options):
    """How a token reads: None for a positional, else the options it names
    (itself, else all it is a prefix of) and its text after '=' or None."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] == "-":
        name, eq, text = token.partition("=")
        hits = ([name] if name in options else
                [o for o in options if o.startswith(name)])
        return (hits, text if eq else None) if hits or " " not in token \
            else None
    if token.startswith("-h"):   # with any text glued on
        return ["--help"], token[2:] or None
    return None if _NUMBER(token) or " " in token else ([], None)


def _parse(argv):
    """argv's command and option values as a namespace, or None once the
    help it asks for is printed; _Usage on a parse error."""
    command = argv[0] if argv else None
    fn, _, table = COMMANDS.get(command, (None, None, {}))
    if not fn and (not argv or command == "--"
                   or not _lookup(command, ["--help"])):
        raise _Usage("sgraph: %s; choose from %s" % (
            "unknown command %r" % command if argv else "missing command",
            ", ".join(COMMANDS)))
    where = "sgraph " + command if fn else "sgraph"
    options = [key for key in table if key[0] == "-"] + ["--help"]
    positionals = [key for key in table if key[0] != "-"]
    values = {key: default for key, (_, default) in table.items()}
    i, dashed = (1 if fn else 0), False   # dashed: "--" ended the options
    while i < len(argv):
        token, i = argv[i], i + 1
        if token == "--" and not dashed:
            dashed = True
            continue
        hit = None if dashed else _lookup(token, options)
        if hit is None:
            if not positionals:
                raise _Usage("%s: unexpected argument %r" % (where, token))
            key, text = positionals.pop(0), token
        elif len(hit[0]) != 1:
            raise _Usage("%s: option %r is %s" % (where, token, (
                "ambiguous: " + ", ".join(hit[0]) if hit[0] else "unknown")))
        else:
            (key,), text = hit
            if table.get(key, (bool,))[0] is bool and text is not None:
                raise _Usage("%s: %s takes no value, got %r"
                             % (where, key, token))
            if key == "--help":
                print(_help([command] if fn else COMMANDS))
                return None
            if text is None and table[key][0] is not bool:
                if i == len(argv) or _lookup(argv[i], options) is not None:
                    raise _Usage("%s: %s needs a value" % (where, key))
                text, i = argv[i], i + 1
        kind = table[key][0]
        try:
            text = True if kind is bool else int(text) if kind is int else text
        except ValueError:
            raise _Usage("%s: %s: not an int: %r" % (where, key, text))
        if isinstance(kind, tuple) and text not in kind:
            raise _Usage("%s: %s: %r is not one of %s"
                         % (where, key, text, ", ".join(kind)))
        values[key] = text
    missing = [key for key, value in values.items() if value is REQUIRED]
    if missing:
        raise _Usage("%s: missing %s" % (where, ", ".join(missing)))
    return types.SimpleNamespace(command=command, fn=fn, **{
        key.strip("-").lower(): value for key, value in values.items()})


def _help(commands):
    """The usage line of each command, built from its table entry."""
    lines = []
    for command in commands:
        _, text, table = COMMANDS[command]
        words = [command]
        for key, (kind, default) in table.items():
            meta = ("{%s}" % ",".join(kind) if isinstance(kind, tuple)
                    else key.strip("-").upper())
            word = (key if kind is bool else key + " " + meta
                    if key[0] == "-" else meta)
            words.append(word if default is REQUIRED else "[%s]" % word)
        lines.append("usage: sgraph %s\n  %s" % (" ".join(words), text))
    return "\n".join(lines)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return EXIT_OK
        if hasattr(args, "fuel"):
            if args.fuel is None:
                args.fuel = DEFAULT_FUEL
            if args.fuel < 0:
                raise _Usage("fuel must be >= 0, got %d" % args.fuel)
        keys, code = args.fn(args)
        if keys is not None:
            report = {"command": args.command}
            if hasattr(args, "fuel"):
                report.update(artifacts=[], fuel_spent=args.fuel)
            report.update(keys)
            _emit(report)
        return code
    except (FuelExhausted, OracleRefused, PatternNeverSeen) as exc:
        _emit({"command": args.command, "verdict": "unknown",
               "reason": str(exc)})
        return EXIT_UNKNOWN
    except UnknownSuite as exc:
        print("unknown suite: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except _Usage as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except StreamGraphsError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program: one line, no traceback
        print("internal error: %s: %s" % (type(exc).__name__,
                                          " ".join(str(exc).split())),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
