"""What the traced run wraps, the extras it counts, and the per-layer
metrics it reports.

Each entry names a function as ``<module>.<qualname>`` inside ``hfree_mis``
and says which end-to-end metric a faster version of that layer should
move, and on which workload.  The hooks read only arguments and return
values, so the package needs no instrumentation of its own.
"""

from __future__ import annotations

from spans import Hook, Tracer


def _decided_by(method: str) -> str:
    if method.startswith("cluster"):
        return "cluster"
    if method.startswith("kernel r=") and method.endswith("+ exact"):
        return "kernel_exact"
    if method.startswith("kernel r="):
        return "kernel"
    if method.startswith("turing"):
        return "turing"
    if method.startswith("component count"):
        return "p3"
    return "expansion"


def _solve_after(t: Tracer, args, result, exc):
    if result is not None:
        t.count("solver.decided_by." + _decided_by(result.method))


def _induced_before(t: Tracer, args):
    if len(args) > 1:
        t.count("graph.Graph.induced.vertices", args[1].bit_count())
    return args


def _driver_before(t: Tracer, args):
    t.state["driver"] = t.state.get("driver", 0) + 1
    if len(args) < 4:
        return args
    inner = args[3]

    def expansion(*a, **kw):
        t.count("iterexp.iterexp_driver.expansions")
        return inner(*a, **kw)

    return (*args[:3], expansion, *args[4:])


def _driver_after(t: Tracer, args, result, exc):
    t.state["driver"] -= 1


def _greedy_after(t: Tracer, args, result, exc):
    if t.state.get("driver"):
        t.count("iterexp.iterexp_driver.memo_misses")


def _stage_after(t: Tracer, args, result, exc):
    if result is not None:
        t.count("iterexp.ramsey_extraction_stage.instances", len(result.instances))
        t.count("iterexp.ramsey_extraction_stage.early_sets", result.early_set is not None)


def _faug_after(name):
    def after(t: Tracer, args, result, exc):
        if exc is not None:
            t.count(name + ".errors")
        elif result is not None and result.found:
            t.count(name + ".hits")
    return after


def _paw_before(t: Tracer, args):
    if args:
        t.count("kernelize.kernel_paw_like.n_in", args[0].n)
    return args


def _paw_after(t: Tracer, args, result, exc):
    if result is None:
        return
    if result.solved:
        t.count("kernelize.kernel_paw_like.solved")
    elif result.graph is not None:
        t.count("kernelize.kernel_paw_like.n_out", result.graph.n)


def _turing_after(t: Tracer, args, result, exc):
    if result is not None:
        t.count("kernelize.turing_kernel_star.subinstances", len(result.subinstances))


def _cluster_after(t: Tracer, args, result, exc):
    if result is not None:
        t.count("cluster.solve_cluster_free.family_insertions", result.family_insertions)


def _alpha_after(t: Tracer, args, result, exc):
    if result is not None:
        t.count("oracle.alpha_exact.nodes", result.nodes_used)
    elif hasattr(exc, "nodes_used"):
        t.count("oracle.alpha_exact.nodes", exc.nodes_used)
        t.count("oracle.alpha_exact.budget_exceeded")


def _build_after(t: Tracer, args, result, exc):
    if result is not None:
        t.count("hardness.build_construction.vertices", result.graph.n)


def _found_after(t: Tracer, args, result, exc):
    if result is not None:
        t.count("induced.find_induced.found")


def _parse_before(t: Tracer, args):
    if args:
        t.count("io.parse_graph.bytes", len(args[0]))
    return args


FAUG = ("faug.solve_faug_gem", "faug.solve_faug_clique_minus_triangle",
        "faug.solve_faug_clique_minus_bipartite")

# name -> (hook, extras, what a faster version should move)
LAYERS: dict[str, tuple[Hook | None, tuple[str, ...], str]] = {
    "solver.solve_hfree": (Hook(after=_solve_after), (),
                           "yes_p50_ms on solve-mix (dispatch)"),
    "patterns.recognize_family": (None, (), "yes_p50_ms on solve-mix"),
    "graph.Graph.induced": (Hook(before=_induced_before), ("vertices",),
                            "no_p50_ms, no_tail_ms, ops_per_s on solve-mix; ~0 elsewhere"),
    "graph.Graph.connected_components": (None, (), "no_p50_ms on solve-mix"),
    "iterexp.iterexp_driver": (Hook(before=_driver_before, after=_driver_after),
                               ("expansions", "memo_misses"), "no_p50_ms, no_tail_ms on solve-mix"),
    "iterexp.ramsey_extraction_stage": (Hook(after=_stage_after), ("instances", "early_sets"),
                                        "no_p50_ms, no_tail_ms on solve-mix"),
    **{name: (Hook(after=_faug_after(name)), ("hits", "errors"),
              "no_* on solve-mix; predicted share ~0") for name in FAUG},
    "kernelize.kernel_paw_like": (Hook(before=_paw_before, after=_paw_after),
                                  ("n_in", "n_out", "solved"), "yes_tail_ms, no_tail_ms on solve-mix"),
    "kernelize.solve_via_turing": (None, (), "yes_tail_ms, no_tail_ms on solve-mix"),
    "kernelize.turing_kernel_star": (Hook(after=_turing_after), ("subinstances",),
                                     "yes_tail_ms, no_tail_ms on solve-mix"),
    "ramsey.ramsey_extract": (None, (), "yes_p50_ms on solve-mix"),
    "ramsey.eh_extract": (None, (), "yes_p50_ms on solve-mix"),
    "cluster.solve_cluster_free": (Hook(after=_cluster_after), ("family_insertions",),
                                   "no_p50_ms on solve-mix"),
    "oracle.alpha_exact": (Hook(after=_alpha_after), ("nodes", "budget_exceeded"),
                           "p50_ms, tail_ms, ops_per_s, failed on exact-alpha; setup_s on solve-mix"),
    "oracle.greedy_independent_set": (Hook(after=_greedy_after), (),
                                      "no_p50_ms on solve-mix"),
    "oracle.greedy_clique_cover": (None, (), "p50_ms on exact-alpha"),
    "oracle.alpha_decision": (None, (), "nothing: not on any benchmarked path"),
    "hardness.build_construction": (Hook(after=_build_after), ("vertices",),
                                    "p50_ms on exact-alpha; setup_s on pattern-check"),
    "hardness.construction_alpha_reaches": (None, (), "p50_ms, tail_ms on exact-alpha"),
    "hardness.verify_exclusions": (None, (), "tail_ms on pattern-check"),
    "induced.find_induced": (Hook(after=_found_after), ("found",),
                             "ops_per_s, yes_p50_ms, no_p50_ms, no_tail_ms on pattern-check; "
                             "setup_s on solve-mix"),
    "induced.is_isomorphic": (None, (), "yes_p50_ms on solve-mix"),
    "induced.contains_induced": (None, (), "nothing: not on any benchmarked path"),
    "classify.verdict": (None, (), "p50_ms on pattern-check"),
    "classify.find_clique_decomposition": (None, (), "ops_per_s, tail_ms on pattern-check"),
    "io.parse_graph": (Hook(before=_parse_before), ("bytes",), "p50_ms of CLI operations on solve-mix"),
    "cli.main": (None, (), "p50_ms of CLI operations on solve-mix"),
}

ROOT = "bench.op"


def targets() -> dict[str, Hook | None]:
    return {name: hook for name, (hook, _extras, _moves) in LAYERS.items()}


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, with its unit.  Names the package no
    longer defines read 0 here and ``absent`` in the printed table."""
    out: dict[str, tuple[float, str]] = {}
    for name, (_hook, extras, _moves) in LAYERS.items():
        calls, self_s, _total = tracer.agg.get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (self_s, "s")
        for extra in extras:
            out[f"{name}.{extra}"] = (tracer.counters.get(f"{name}.{extra}", 0), "count")
    for kind in ("cluster", "kernel", "kernel_exact", "turing", "expansion", "p3"):
        key = "solver.decided_by." + kind
        out[key] = (tracer.counters.get(key, 0), "count")
    calls = sum(tracer.agg.get(n, (0,))[0] for n in FAUG)
    hits = sum(tracer.counters.get(n + ".hits", 0) for n in FAUG)
    out["faug.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    alpha_total = tracer.agg.get("oracle.alpha_exact", (0, 0.0, 0.0))[2]
    nodes = tracer.counters.get("oracle.alpha_exact.nodes", 0)
    out["oracle.nodes_per_s"] = (nodes / alpha_total if alpha_total else 0.0, "1/s")
    out[ROOT + ".self_s"] = (tracer.agg.get(ROOT, (0, 0.0))[1], "s")
    out["trace.absent"] = (len(tracer.absent), "count")
    return out
