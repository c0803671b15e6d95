"""Paired in-process timing of the benchmark's construction reach operations,
a parent revision against the working tree.

    python3 tests/reach_ab.py --parent HEAD [--seed 1] [--tilings 10] [--repeats 9] [--json out.json]

Run from the root of a checkout.  The parent's ``src/hfree_mis`` is exported
with ``git archive`` into a temporary directory; it and the working tree's
``src/hfree_mis`` are imported in this process under two package names (the
package uses only relative imports).  The reach tilings are those of the
exact-alpha workload of ``perfbench``: drawn with ``perfbench/inputs.py``
and its seed streams, from the kinds in ``perfbench/workloads.json``, for
rounds 0 to ``--tilings`` - 1.  Nothing under ``perfbench/`` is written,
and ``inputs.py`` imports nothing from the package.

One operation is what the workload times: ``build_construction`` and then
``construction_alpha_reaches``.  Per kind, every repetition runs each tiling
on both sides, alternating which side goes first; a tiling's time is its
best over the repetitions.  Both sides must answer as ``inputs.feasible``
does and return the same witness from ``alpha_reaches``.  Printed per kind:
the summed best times and their ratio (second side / first side).  Then the
same loop with the working tree imported twice, the A/A line, whose distance
from 1 is the comparison's own lean.

Each side keeps whatever it caches per process across the repetitions, as
one benchmark process does over its rounds.  Standard library and git only;
the file is not named ``test_*``, so pytest does not collect it.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

import inputs  # noqa: E402  (perfbench's generators, free of package imports)
from metrics import sub_seed  # noqa: E402


def load_package(name: str, path: str):
    """The package at ``path`` imported as ``name``, with its hardness module."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.hardness")


def export_package(rev: str, into: str) -> str:
    """``src/hfree_mis`` at ``rev``, unpacked under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/hfree_mis"],
                         cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(into)
    return os.path.join(into, "src", "hfree_mis")


def reach_kinds(seed: int, tilings: int):
    """{kind: [tiles, ...]}, drawn as the exact-alpha workload draws them."""
    with open(os.path.join(BENCH, "workloads.json")) as fh:
        cfg = json.load(fh)["workloads"]["exact-alpha"]
    kinds = {}
    for k, m, n_t, variant in cfg["constructions"] + cfg["pooled_constructions"]:
        for planted in (True, False):
            drawn = []
            for r in range(tilings):
                rng = random.Random(sub_seed(seed, "exact-alpha", "tiling", k, m, n_t,
                                             variant, planted, r))
                for _ in range(cfg["max_tries"]):
                    tiles = inputs.tiling(k, m, n_t, rng, planted)
                    if planted or not inputs.feasible(tiles, m):
                        break
                else:
                    raise RuntimeError("no infeasible tiling drawn")
                drawn.append(tiles)
            kind = f"reach k={k} m={m} n_t={n_t} {variant} {'yes' if planted else 'no'}"
            kinds[kind] = (k, m, variant, planted, drawn)
    return kinds, cfg["p"], cfg["node_budget"]


def compare(sides, kinds, p: int, budget: int, repeats: int) -> dict:
    """Best-of-``repeats`` time per tiling on each side, summed per kind."""
    out = {}
    for kind, (k, m, variant, planted, drawn) in kinds.items():
        best = [[float("inf")] * len(drawn) for _ in sides]
        for rep in range(repeats):
            for t, tiles in enumerate(drawn):
                order = (0, 1) if (rep + t) % 2 == 0 else (1, 0)
                answers = [None, None]
                for s in order:
                    hardness = sides[s]
                    gt = hardness.GridTiling(k, m, tiles)
                    start = time.perf_counter()
                    answers[s] = hardness.construction_alpha_reaches(
                        hardness.build_construction(gt, variant, p), budget)
                    best[s][t] = min(best[s][t], time.perf_counter() - start)
                if answers[0] != answers[1] or answers[0] != inputs.feasible(tiles, m):
                    raise SystemExit(f"{kind} tiling {t}: answers {answers}, planted {planted}")
        for t, tiles in enumerate(drawn):
            wits = []
            for hardness in sides:
                built = hardness.build_construction(hardness.GridTiling(k, m, tiles), variant, p)
                wits.append(hardness.alpha_reaches(built.graph, built.k_prime, budget, built.cover))
            if wits[0] != wits[1]:
                raise SystemExit(f"{kind} tiling {t}: witnesses differ")
        a, b = sum(best[0]) * 1e3, sum(best[1]) * 1e3
        per_tiling = [y / x for x, y in zip(best[0], best[1])]
        out[kind] = {"first_ms": round(a, 3), "second_ms": round(b, 3), "ratio": round(b / a, 3),
                     "median_tiling_ratio": round(statistics.median(per_tiling), 3)}
    return out


def report(title: str, rows: dict) -> dict:
    total_a = sum(r["first_ms"] for r in rows.values())
    total_b = sum(r["second_ms"] for r in rows.values())
    print(title)
    print(f"  {'kind':<34} {'first ms':>9} {'second ms':>9} {'ratio':>6} {'median':>6}")
    for kind, r in rows.items():
        print(f"  {kind:<34} {r['first_ms']:>9.2f} {r['second_ms']:>9.2f} {r['ratio']:>6.3f}"
              f" {r['median_tiling_ratio']:>6.3f}")
    ratio = total_b / total_a
    print(f"  {'total':<34} {total_a:>9.2f} {total_b:>9.2f} {ratio:>6.3f}")
    return {"kinds": rows, "total_first_ms": round(total_a, 3),
            "total_second_ms": round(total_b, 3), "total_ratio": round(ratio, 3)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the first side")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tilings", type=int, default=10, help="tilings per kind")
    parser.add_argument("--repeats", type=int, default=9, help="runs per tiling and side")
    parser.add_argument("--json", help="also write the results to this file")
    args = parser.parse_args(argv)

    kinds, p, budget = reach_kinds(args.seed, args.tilings)
    tree = os.path.join(ROOT, "src", "hfree_mis")
    with tempfile.TemporaryDirectory() as tmp:
        parent = load_package("hfree_mis_parent", export_package(args.parent, tmp))
        change = load_package("hfree_mis_change", tree)
        again = load_package("hfree_mis_again", tree)
        result = {"parent": args.parent, "seed": args.seed, "tilings": args.tilings,
                  "repeats": args.repeats}
        result["ab"] = report(f"parent {args.parent} (first) against the working tree (second)",
                              compare((parent, change), kinds, p, budget, args.repeats))
        result["aa"] = report("A/A: the working tree against itself",
                              compare((change, again), kinds, p, budget, args.repeats))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
