"""Tracing from outside the program under test.

`Tracer.install()` replaces public functions and methods of the
streamgraphs modules with wrappers, including every module attribute that
re-imported a function by name (`truncate` in `decide` and `search`, `pair`
in `spaces`, ...). `uninstall()` puts the originals back. No file of the
package is edited.

Two kinds of wrapper:

* spans, at layer entry points: name, start, end, parent span and query id.
  A span's self time is its duration minus the time its child spans cover.
  Spans stay in memory; `write` writes them when the run ends.
* hot counters, at calls made millions of times (`has_edge`, `eval`,
  `pair`): a count and summed time, no span record. Their time stays in
  the self time of the span that made the call.

Streams a function returns lazily (the Gr name of `f_convert`, the solution
of `find_s_components`, ...) get their step function wrapped in a span of
the producing function, so stage work forced later lands on that module.
"""

import functools
import json
import sys
import time
from collections import defaultdict

from streamgraphs import errors

_perf = time.perf_counter

# (module, attribute, span name). Several functions may share a span name:
# `specs.parse` covers every parser of the spec text.
SPAN_FUNCTIONS = [
    ("spaces", "truncate", "spaces.truncate"),
    ("spaces", "f_convert", "spaces.f_convert"),
    ("spaces", "gr_to_egr", "spaces.gr_to_egr"),
    ("decide", "fin_subgraph", "decide.fin_subgraph"),
    ("decide", "semidecide_s", "decide.semidecide_s"),
    ("search", "find_s_finite", "search.find_s_finite"),
    ("search", "ray_follow", "search.ray_follow"),
    ("search", "find_s_components", "search.find_s_components"),
    ("search", "emb_ray_r", "search.emb_ray_r"),
    ("gadgets", "acc_decode", "gadgets.acc_decode"),
    ("gadgets", "enuminf_decode", "gadgets.enuminf_decode"),
    ("problems", "compose", "problems.compose"),
    ("problems", "oracle_call", "problems.oracle_call"),
    ("specs", "parse_name", "specs.parse"),
    ("specs", "parse_pattern", "specs.parse"),
    ("specs", "parse_graph", "specs.parse"),
    ("specs", "parse_tree", "specs.parse"),
    ("streams", "parse_stream", "specs.parse"),
    ("suites", "run_suite", "suites.run_suite"),
    ("cli", "main", "cli.main"),
]

# Spans whose returned stream is lazy: its step runs under the same span.
LAZY_RESULTS = {"spaces.f_convert", "spaces.gr_to_egr",
                "search.find_s_components", "gadgets.enuminf_decode"}

SEARCH_SPANS = {"search.find_s_finite", "search.ray_follow",
                "search.find_s_components", "search.emb_ray_r"}

# Honest "unknown" outcomes of a search call.
UNKNOWN_ERRORS = (errors.FuelExhausted, errors.PatternNeverSeen,
                  errors.OracleRefused)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "streamgraphs"
                                  or name.startswith("streamgraphs."))]


def _subclasses(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.hot_seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.incl_seconds = defaultdict(float)   # outermost calls only
        self.spans = []       # [name, start, end, parent index, query id]
        self.query_id = None
        self.active = False   # only calls made inside a query are traced
        self.query_incl = defaultdict(float)     # (query id, name) -> s
        self._stack = []      # [name, child seconds, span index]
        self._restore = []
        self._query_positions = 0
        self._query_longest = 0
        self._query_traces = []
        self.reread_positions = 0
        self.reread_longest = 0

    # -- query boundaries ---------------------------------------------

    def begin_query(self, qid):
        self.active = True
        self.query_id = qid
        self._query_positions = 0
        self._query_longest = 0
        self._query_traces = []

    def end_query(self):
        if self._query_longest:
            self.reread_positions += self._query_positions
            self.reread_longest += self._query_longest
        for trace in self._query_traces:
            self.counts["spaces.f_convert_stages"] += trace.stages_run
            self.counts["spaces.f_convert_injuries"] += len(trace.injuries)
        self._query_traces = []
        self.query_id = None
        self.active = False

    # -- wrappers -----------------------------------------------------

    def span(self, name, fn, record=True, after=None):
        """Wrap fn in a span; after(args, kwargs, result) sees each result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            outermost = all(frame[0] != name for frame in stack)
            index = None
            if record:
                index = len(tracer.spans)
                parent = stack[-1][2] if stack else None
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.query_id])
            frame = [name, 0.0, index]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            except UNKNOWN_ERRORS:
                if name in SEARCH_SPANS and not any(
                        f[0] in SEARCH_SPANS for f in stack[:-1]):
                    tracer.counts["search.unknown_count"] += 1
                raise
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                tracer.counts[name + ".calls"] += 1
                tracer.self_seconds[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if outermost:
                    tracer.incl_seconds[name] += duration
                    tracer.query_incl[(tracer.query_id, name)] += duration
                if record:
                    tracer.spans[index][1] = start
                    tracer.spans[index][2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def hot(self, name, fn):
        tracer, counts, seconds = self, self.counts, self.hot_seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += _perf() - start
                counts[name] += 1

        return wrapper

    # -- per-function hooks ---------------------------------------------

    def _after(self, name):
        if name == "spaces.truncate":
            def note(args, kwargs, _result):
                fuel = kwargs.get("fuel", args[1] if len(args) > 1 else 0)
                self._query_positions += fuel
                self._query_longest = max(self._query_longest, fuel)
            return note
        if name == "decide.fin_subgraph":
            def note(_args, _kwargs, result):
                if result is not None:
                    self.counts["decide.fin_subgraph_hits"] += 1
            return note
        if name in LAZY_RESULTS:
            def note(_args, _kwargs, result):
                self._wrap_lazy(name, result)
            return note
        return None

    def _wrap_lazy(self, name, result):
        if name == "spaces.f_convert":
            out, trace = result
            self._query_traces.append(trace)
            stream = out.stream
        elif name == "spaces.gr_to_egr":
            stream = result.stream
        elif name == "search.find_s_components":
            stream = result.name.stream
        else:
            stream = result
        step = getattr(stream, "step", None)
        if step is not None:
            stream.step = self.span(name, step, record=False)

    # -- install / uninstall -------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def _replace_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        # load every module, so each re-imported name gets replaced
        from streamgraphs import (  # noqa: F401
            cli, decide, gadgets, graphs, problems, search, spaces, specs,
            streams, suites)
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        wrapped = {}
        for mod_name, attr, name in SPAN_FUNCTIONS:
            original = getattr(mods[mod_name], attr)
            if original in wrapped:
                continue
            wrapped[original] = self.span(name, original,
                                          after=self._after(name))
            self._replace_everywhere(original, wrapped[original])
        for attr in ("pair", "unpair"):
            original = getattr(streams, attr)
            self._replace_everywhere(original,
                                     self.hot("streams.%s" % attr, original))
        for cls in _subclasses(streams.CertifiedStream):
            if "eval" in cls.__dict__:
                self._replace_method(cls, "eval",
                                     self.hot("streams.eval", cls.eval))
        fin = graphs.FinGraph
        self._replace_method(fin, "has_edge",
                             self.hot("graphs.has_edge", fin.has_edge))
        self._replace_method(fin, "neighbors", self.span(
            "graphs.neighbors", fin.neighbors, record=False))
        init = fin.__init__

        @functools.wraps(init)
        def counted_init(graph, *args, **kwargs):
            init(graph, *args, **kwargs)
            if not self.active:
                return
            self.counts["graphs.fingraph_builds"] += 1
            self.counts["graphs.fingraph_edges_built"] += len(graph.edges)

        self._replace_method(fin, "__init__", counted_init)
        for cls in _subclasses(graphs.CountableGraph):
            if "has_edge" in cls.__dict__:
                self._replace_method(cls, "has_edge", self.hot(
                    "graphs.countable_has_edge", cls.has_edge))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def write(self, spans_path, counters_path):
        """Write the spans (TSV) and every count and hot-call time (JSON)."""
        with open(counters_path, "w") as fh:
            json.dump({"counts": dict(sorted(self.counts.items())),
                       "hot_seconds": dict(sorted(self.hot_seconds.items()))},
                      fh, indent=1)
        with open(spans_path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for name, start, end, parent, qid in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%s\t%s\n" % (
                    name, start, end, "" if parent is None else parent, qid))
