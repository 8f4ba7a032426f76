"""Per-layer metrics from one traced pass.

Names are `<module>.<metric>`. `*_calls` and the other counts are work
counters that repeat exactly for a seed; `*_self_s` is span time minus child
span time; `*_s` without `self` is the inclusive time of outermost calls.
A metric of a layer the workload never enters reads 0.
"""

import statistics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, queries, swept):
    c, self_s, incl = tracer.counts, tracer.self_seconds, tracer.incl_seconds
    m = {}

    def count(name, value):
        m[name] = (value, "count", 1)

    def seconds(name, value):
        m[name] = (value, "s", 1)

    count("streams.eval_calls", c["streams.eval"])
    count("streams.pair_calls", c["streams.pair"])
    count("streams.unpair_calls", c["streams.unpair"])

    count("graphs.has_edge_calls", c["graphs.has_edge"])
    count("graphs.neighbors_calls", c["graphs.neighbors.calls"])
    seconds("graphs.neighbors_self_s", self_s["graphs.neighbors"])
    count("graphs.fingraph_builds", c["graphs.fingraph_builds"])
    count("graphs.fingraph_edges_built", c["graphs.fingraph_edges_built"])
    count("graphs.countable_has_edge_calls", c["graphs.countable_has_edge"])

    count("spaces.truncate_calls", c["spaces.truncate.calls"])
    count("spaces.truncate_positions", tracer.reread_positions)
    m["spaces.truncate_reread_ratio"] = (
        _ratio(tracer.reread_positions, tracer.reread_longest), "ratio", 1)
    seconds("spaces.truncate_self_s", self_s["spaces.truncate"])
    seconds("spaces.f_convert_s", incl["spaces.f_convert"])
    count("spaces.f_convert_stages", c["spaces.f_convert_stages"])
    count("spaces.f_convert_injuries", c["spaces.f_convert_injuries"])
    seconds("spaces.gr_to_egr_s", incl["spaces.gr_to_egr"])

    count("decide.fin_subgraph_calls", c["decide.fin_subgraph.calls"])
    m["decide.fin_subgraph_hit_ratio"] = (
        _ratio(c["decide.fin_subgraph_hits"],
               c["decide.fin_subgraph.calls"]), "ratio", 1)
    seconds("decide.fin_subgraph_self_s", self_s["decide.fin_subgraph"])
    seconds("decide.semidecide_s_self_s", self_s["decide.semidecide_s"])

    seconds("search.find_s_finite_self_s", self_s["search.find_s_finite"])
    seconds("search.ray_follow_self_s", self_s["search.ray_follow"])
    seconds("search.find_s_components_s", incl["search.find_s_components"])
    seconds("search.emb_ray_r_self_s", self_s["search.emb_ray_r"])
    count("search.unknown_count", c["search.unknown_count"])

    seconds("gadgets.acc_decode_s", incl["gadgets.acc_decode"])
    seconds("gadgets.enuminf_decode_s", incl["gadgets.enuminf_decode"])

    seconds("problems.compose_self_s", self_s["problems.compose"])
    seconds("problems.oracle_call_self_s", self_s["problems.oracle_call"])

    seconds("specs.parse_s", incl["specs.parse"])
    seconds("suites.run_suite_self_s", self_s["suites.run_suite"])
    seconds("cli.main_self_s", self_s["cli.main"])

    # median traced time of each swept function at each of its sizes, over
    # the queries tagged with that size
    for fn, sizes in swept.items():
        for size in sizes:
            times = [tracer.query_incl.get((qid, fn), 0.0)
                     for qid, q in enumerate(queries)
                     if q.sizes.get(fn) == size]
            m["%s.p50_ms.%d" % (fn, size)] = (
                statistics.median(times) * 1e3 if times else 0.0, "ms",
                len(times))
    return m
