"""Paired in-process timing of one benchmark workload's operations, a parent
revision against the working tree.

    python3 tests/bench_ab.py --workload {exact-alpha,pattern-check} --parent HEAD
        [--seed 1] [--rounds 10] [--repeats 9] [--kinds TEXT ...] [--json out.json]

Run from the root of a checkout.  The parent's ``src/hfree_mis`` is exported
with ``git archive`` into a temporary directory; it and the working tree's
``src/hfree_mis`` are imported in this process under two package names (the
package uses only relative imports).  Inputs are those of the named
``perfbench`` workload for rounds 0 to ``--rounds`` - 1, drawn with
``perfbench/inputs.py`` and its seed streams from the settings in
``perfbench/workloads.json``.  Nothing under ``perfbench/`` is written, and
``inputs.py`` imports nothing from the package.

The kinds, as the workloads name them:

- exact-alpha: ``alpha G(n,p)`` (``alpha_exact``), and ``reach ...``
  (``build_construction`` and then ``construction_alpha_reaches``, per
  construction spec, planted and not);
- pattern-check: ``verdict n=5`` and ``verdict n=6``; ``find_induced n=40
  hit`` / ``miss`` and the same at n=80, over the workload's patterns and
  miss hosts; ``verify_exclusions p=1`` and ``p=2``.

``--kinds`` keeps the kinds whose name contains one of the given texts.
Every input runs on both sides, alternating which side goes first, and
each side builds its own arguments (graphs, patterns, constructions)
outside the timed call.  A ``verdict`` input runs once per side, each on
the workload's fresh relabelling of one of the 208 graphs on at most six
vertices: timed as best-of-N on one labelled graph, a side's plan cache
would hide what planning costs.  Every other input takes its best time
over ``--repeats`` runs.  Both sides must give the same answers (verdicts,
embeddings, exclusion reports, alphas, witnesses), and those answers must
pass the workload's own checks: the reference verdicts of
``perfbench/reference.json``, an induced copy exactly on planted hosts, a
clean exclusion report, alpha within the greedy and clique-cover bounds,
and reach answers that match ``inputs.feasible``.

Printed per kind: the summed times of each side, their ratio (second side /
first side), and the ratio of the per-input medians.  Then the same loop
with the working tree imported twice, the A/A line, whose distance from 1 is
the comparison's own lean.  Each side keeps whatever it caches per process
across inputs and repetitions, as one benchmark process does over its
rounds.  Standard library and git only; the file is not named ``test_*``,
so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

import inputs  # noqa: E402  (perfbench's generators, free of package imports)
from metrics import sub_seed  # noqa: E402

MODULES = ("classify", "graph", "hardness", "induced", "oracle", "patterns")

# pattern-check's miss hosts, with the parameters perfbench/workloads.py
# gives them (tests/test_bench_ab.py checks that both draw the same edges)
MISS_HOSTS = {
    "k4_free": lambda n, rng: inputs.k4_free(n, 0.3, rng),
    "multipartite_pieces": lambda n, rng: inputs.multipartite_pieces(n, 20, 4, rng),
    "complete_multipartite": lambda n, rng: inputs.complete_multipartite(n, 4, rng),
    "co_bipartite": lambda n, rng: inputs.co_bipartite(n, 0.5, rng),
    "split": lambda n, rng: inputs.split_graph(n, 0.3, rng),
}

TWO_CLAWS = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4)]


@dataclass
class Kind:
    """One kind of operation.  ``prepare(side, item)`` builds a side's
    argument untimed, ``op(side, arg)`` is the timed call, ``plain(side,
    arg, answer)`` turns the answer into side-free data (untimed), and
    ``check(item, plain)`` raises SystemExit when the workload's own check
    fails.  ``once``: each input runs once per side, not best-of-N."""

    items: list
    prepare: Callable
    op: Callable
    plain: Callable
    check: Callable
    once: bool = False


def load_package(name: str, path: str) -> SimpleNamespace:
    """The package at ``path`` imported as ``name``, with the modules the
    workloads call."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def export_package(rev: str, into: str) -> str:
    """``src/hfree_mis`` at ``rev``, unpacked under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/hfree_mis"],
                         cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(into)
    return os.path.join(into, "src", "hfree_mis")


def config(workload: str) -> dict:
    with open(os.path.join(BENCH, "workloads.json")) as fh:
        return json.load(fh)["workloads"][workload]


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(sub_seed(seed, *parts))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(message)


# -- exact-alpha -------------------------------------------------------------------


def exact_alpha_kinds(seed: int, rounds: int) -> dict[str, Kind]:
    cfg = config("exact-alpha")
    budget, p = cfg["node_budget"], cfg["p"]
    kinds = {}
    for n, dens in cfg["gnp"]:
        adjs = [inputs.adjacency(n, inputs.gnm(n, dens, _rng(seed, "exact-alpha", "gnp", n, dens, r)))
                for r in range(rounds)]

        def check(adj, got, label=f"alpha G({n},{dens})"):
            alpha, wit = got
            _expect(len(wit) == alpha and inputs.is_independent(adj, wit)
                    and inputs.greedy_lower(adj) <= alpha <= inputs.cover_upper(adj),
                    f"{label}: alpha {alpha}, witness {wit}")

        kinds[f"alpha G({n},{dens})"] = Kind(
            adjs, lambda side, adj: side.graph.Graph.from_adj(adj),
            lambda side, g: side.oracle.alpha_exact(g, budget),
            lambda side, g, res: (res.alpha, tuple(res.witness)), check)
    for k, m, n_t, variant in cfg["constructions"] + cfg["pooled_constructions"]:
        for planted in (True, False):
            drawn = []
            for r in range(rounds):
                rng = _rng(seed, "exact-alpha", "tiling", k, m, n_t, variant, planted, r)
                for _ in range(cfg["max_tries"]):
                    tiles = inputs.tiling(k, m, n_t, rng, planted)
                    if planted or not inputs.feasible(tiles, m):
                        break
                else:
                    raise RuntimeError("no infeasible tiling drawn")
                drawn.append(tiles)

            def reach(side, gt, variant=variant):
                return side.hardness.construction_alpha_reaches(
                    side.hardness.build_construction(gt, variant, p), budget)

            def witness(side, gt, answer, variant=variant):
                built = side.hardness.build_construction(gt, variant, p)
                return answer, side.hardness.alpha_reaches(built.graph, built.k_prime, budget,
                                                           built.cover)

            def check(tiles, got, m=m, label=f"reach k={k} m={m} n_t={n_t} {variant}"):
                _expect(got[0] == inputs.feasible(tiles, m), f"{label}: answered {got[0]}")

            name = f"reach k={k} m={m} n_t={n_t} {variant} {'yes' if planted else 'no'}"
            kinds[name] = Kind(drawn, lambda side, tiles, k=k, m=m: side.hardness.GridTiling(k, m, tiles),
                               reach, witness, check)
    return kinds


# -- pattern-check -----------------------------------------------------------------


def pattern_check_kinds(seed: int, rounds: int, patterns) -> dict[str, Kind]:
    """The workload's kinds; ``patterns`` (a side's module) names the
    patterns, whose copies the hit hosts plant, as the workload's does."""
    cfg = config("pattern-check")
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)["pattern-check"]["verdict"]
    kinds = {}

    verdicts: dict[int, list] = {5: [], 6: []}
    for r in range(rounds):
        rng = _rng(seed, "pattern-check", "relabel", r)
        for key, n, edges in inputs.small_graphs(6):
            perm = list(range(n))
            rng.shuffle(perm)
            if n in verdicts:
                verdicts[n].append((key, n, inputs.relabel(edges, perm)))

    def check_verdict(item, got):
        _expect(got == reference[item[0]], f"verdict {item[0]}: {got}, reference {reference[item[0]]}")

    for n, items in verdicts.items():
        kinds[f"verdict n={n}"] = Kind(
            items, lambda side, item: side.graph.Graph(item[1], item[2]),
            lambda side, g: side.classify.verdict(g),
            lambda side, g, v: [v.complexity, v.kernel, list(v.rules_fired)],
            check_verdict, once=True)

    h_adjs = {}
    for name, _host in cfg["patterns"]:
        hg = patterns.pattern(name).graph
        h_adjs[name] = inputs.adjacency(hg.n, hg.edges())
    for n in cfg["host_n"]:
        for hit in (True, False):
            items = []
            for r in range(rounds):
                for name, miss_host in cfg["patterns"]:
                    # drawn from the stream the workload gives this host
                    rng = _rng(seed, "pattern-check", "host", name, n, hit, r)
                    if hit:
                        edges = inputs.plant(n, inputs.gnm(n, cfg["hit_p"], rng), h_adjs[name], rng)
                    else:
                        edges = MISS_HOSTS[miss_host](n, rng)
                    items.append((name, n, edges))

            def check_find(item, emb, hit=hit):
                name, n, edges = item
                label = f"find {name} n={n} {'hit' if hit else 'miss'}"
                if emb is None:
                    _expect(not hit, f"{label}: missed a planted copy")
                else:
                    _expect(hit and inputs.is_induced_copy(inputs.adjacency(n, edges), h_adjs[name], emb),
                            f"{label}: {emb} is not an induced copy on a host that plants one")

            kinds[f"find_induced n={n} {'hit' if hit else 'miss'}"] = Kind(
                items, lambda side, item: (side.graph.Graph(item[1], item[2]),
                                           side.patterns.pattern(item[0])),
                lambda side, arg: side.induced.find_induced(*arg),
                lambda side, arg, emb: emb, check_find)

    k, m, n_t = cfg["exclusion_tiling"]
    for p in cfg["exclusion_p"]:
        tilings = [inputs.tiling(k, m, n_t, _rng(seed, "pattern-check", "tiling", p, r), True)
                   for r in range(rounds)]

        def build(side, tiles, p=p):
            out = side.hardness.build_construction(side.hardness.GridTiling(k, m, tiles), "first", p)
            return out, side.patterns.HPattern(side.graph.Graph(8, TWO_CLAWS), "two-claws")

        def check_clean(tiles, entries, p=p):
            _expect(all(emb is None for _name, emb in entries),
                    f"exclusions p={p}: first variant reported {entries}")

        kinds[f"verify_exclusions p={p}"] = Kind(
            tilings, build, lambda side, arg: side.hardness.verify_exclusions(arg[0], 5, 2, trees=(arg[1],)),
            lambda side, arg, report: report.entries, check_clean)
    return kinds


# -- timing ------------------------------------------------------------------------


def compare(sides, kinds: dict[str, Kind], repeats: int) -> dict:
    """Per kind, each side's time per input (its best over ``repeats`` runs
    unless the kind runs once), summed, with the ratio of the sums and of
    the per-input medians."""
    out = {}
    for name, kind in kinds.items():
        reps = 1 if kind.once else repeats
        best = [[float("inf")] * len(kind.items) for _ in sides]
        plain = [[None] * len(kind.items) for _ in sides]
        for rep in range(reps):
            for i, item in enumerate(kind.items):
                for s in ((0, 1) if (rep + i) % 2 == 0 else (1, 0)):
                    side = sides[s]
                    arg = kind.prepare(side, item)
                    start = time.perf_counter()
                    answer = kind.op(side, arg)
                    best[s][i] = min(best[s][i], time.perf_counter() - start)
                    if rep == 0:
                        plain[s][i] = kind.plain(side, arg, answer)
        for i, item in enumerate(kind.items):
            _expect(plain[0][i] == plain[1][i],
                    f"{name} input {i}: answers differ, {plain[0][i]} against {plain[1][i]}")
            kind.check(item, plain[0][i])
        a, b = sum(best[0]) * 1e3, sum(best[1]) * 1e3
        out[name] = {"inputs": len(kind.items), "first_ms": round(a, 3), "second_ms": round(b, 3),
                     "ratio": round(b / a, 3),
                     "median_ratio": round(statistics.median(best[1]) / statistics.median(best[0]), 3)}
    return out


def report(title: str, rows: dict) -> dict:
    total_a = sum(r["first_ms"] for r in rows.values())
    total_b = sum(r["second_ms"] for r in rows.values())
    print(title)
    print(f"  {'kind':<34} {'inputs':>6} {'first ms':>9} {'second ms':>9} {'ratio':>6} {'median':>6}")
    for kind, r in rows.items():
        print(f"  {kind:<34} {r['inputs']:>6} {r['first_ms']:>9.2f} {r['second_ms']:>9.2f}"
              f" {r['ratio']:>6.3f} {r['median_ratio']:>6.3f}")
    ratio = total_b / total_a
    print(f"  {'total':<34} {'':>6} {total_a:>9.2f} {total_b:>9.2f} {ratio:>6.3f}")
    return {"kinds": rows, "total_first_ms": round(total_a, 3),
            "total_second_ms": round(total_b, 3), "total_ratio": round(ratio, 3)}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact-alpha", "pattern-check"))
    parser.add_argument("--parent", default="HEAD", help="git revision of the first side")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10, help="workload rounds drawn")
    parser.add_argument("--repeats", type=int, default=9, help="runs per input and side")
    parser.add_argument("--kinds", nargs="+", help="keep the kinds whose name contains one of these")
    parser.add_argument("--json", help="also write the results to this file")
    args = parser.parse_args(argv)

    tree = os.path.join(ROOT, "src", "hfree_mis")
    with tempfile.TemporaryDirectory() as tmp:
        parent = load_package("hfree_mis_parent", export_package(args.parent, tmp))
        change = load_package("hfree_mis_change", tree)
        again = load_package("hfree_mis_again", tree)
        if args.workload == "exact-alpha":
            kinds = exact_alpha_kinds(args.seed, args.rounds)
        else:
            kinds = pattern_check_kinds(args.seed, args.rounds, change.patterns)
        if args.kinds:
            kinds = {name: kind for name, kind in kinds.items()
                     if any(text in name for text in args.kinds)}
        _expect(bool(kinds), f"no kind of {args.workload} matches {args.kinds}")
        result = {"workload": args.workload, "parent": args.parent, "seed": args.seed,
                  "rounds": args.rounds, "repeats": args.repeats}
        result["ab"] = report(f"{args.workload}: parent {args.parent} (first) against the "
                              "working tree (second)", compare((parent, change), kinds, args.repeats))
        result["aa"] = report("A/A: the working tree against itself",
                              compare((change, again), kinds, args.repeats))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
    return result


if __name__ == "__main__":
    main()
