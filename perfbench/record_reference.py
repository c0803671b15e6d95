"""Record the reference answers of the default seed into reference.json.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose package is trusted.  Alphas come
from ``alpha_exact`` and are cross-checked against the independent search
below, tiling feasibility from the benchmark's own exhaustive check and
the package's ``brute_force_feasible``, and verdicts are stored for one
representative of each of the 208 graphs with at most six vertices.  Only
needed again when ``workloads.json`` changes the inputs of the default seed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from hfree_mis import classify, hardness, oracle  # noqa: E402
from hfree_mis.graph import Graph  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402


def independent_alpha(adj: list[int], deadline: float) -> int | None:
    """Alpha by branching on a maximum-degree vertex, with degree <= 1
    folding, component splitting and a memo; None past ``deadline``."""
    memo: dict[int, int] = {}

    def solve(cands: int) -> int:
        if time.perf_counter() > deadline:
            raise TimeoutError
        if cands in memo:
            return memo[cands]
        key, taken = cands, 0
        folded = True
        while folded and cands:
            folded = False
            m = cands
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if (adj[v] & cands).bit_count() <= 1:
                    cands &= ~(adj[v] | 1 << v)
                    taken += 1
                    folded = True
                    break
        if not cands:
            memo[key] = taken
            return taken
        low = cands & -cands
        comp, frontier = low, low
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= adj[v]
            frontier = nxt & cands & ~comp
            comp |= frontier
        if comp != cands:
            best = solve(comp) + solve(cands & ~comp)
        else:
            v = max((w for w in range(len(adj)) if cands >> w & 1),
                    key=lambda w: (adj[w] & cands).bit_count())
            best = max(1 + solve(cands & ~(adj[v] | 1 << v)), solve(cands & ~(1 << v)))
        memo[key] = taken + best
        return taken + best

    try:
        return solve((1 << len(adj)) - 1)
    except TimeoutError:
        return None


def cross_check(label: str, adj: list[int], alpha: int, stats: dict) -> None:
    other = independent_alpha(adj, time.perf_counter() + 5.0)
    if other is None:
        stats["skipped"] += 1
        return
    if other != alpha:
        raise SystemExit(f"{label}: alpha_exact {alpha}, independent search {other}")
    stats["checked"] += 1


def main() -> int:
    workloads.REFERENCE_PATH = ""          # build the default seed without a record
    seed = workloads.CONFIG["default_seed"]
    stats = {"checked": 0, "skipped": 0}
    out: dict = {"seed": seed}
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.solve_mix(seed, workdir)
    for idx, (adj, alpha) in enumerate(zip(wl.reference["adj"], wl.reference["alpha"])):
        cross_check(f"solve-mix graph {idx}", adj, alpha, stats)
    out["solve-mix"] = {"alpha": wl.reference["alpha"], "digest": wl.digest}

    wl = workloads.exact_alpha(seed, "")
    alphas = []
    for idx, adj in enumerate(wl.reference["adj"]):
        alpha = oracle.alpha_exact(Graph(len(adj), inputs.edges_of(adj))).alpha
        cross_check(f"exact-alpha graph {idx}", adj, alpha, stats)
        alphas.append(alpha)
    feasible = wl.reference["feasible"]
    for idx, (k, m, tiles) in enumerate(wl.reference["tilings"]):
        found = hardness.brute_force_feasible(hardness.GridTiling(k, m, tiles))
        if (found is not None) != feasible[idx]:
            raise SystemExit(f"feasibility disagrees on tiling {idx}")
    out["exact-alpha"] = {"alpha": alphas, "feasible": feasible, "digest": wl.digest}

    verdicts = {}
    for key, n, edges in inputs.small_graphs(6):
        v = classify.verdict(Graph(n, edges))
        verdicts[key] = [v.complexity, v.kernel, list(v.rules_fired)]
    wl = workloads.pattern_check(seed, "", verdicts)
    out["pattern-check"] = {"verdict": verdicts, "hit": wl.reference["hit"], "digest": wl.digest}
    for ops in wl.rounds:
        for op in ops:
            op.check(op.call())          # every answer of the default seed passes the gate

    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"recorded seed {seed}; independent alpha cross-checks {stats['checked']}, "
          f"skipped past the time limit {stats['skipped']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
