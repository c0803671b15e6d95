"""The three seeded workloads: solve-mix, exact-alpha and pattern-check.

Set-up draws every input from the workload seed with the benchmark's own
generators (``inputs``), verifies it, and fixes the answer each operation
must give.  A workload is a list of rounds; each round has the same
composition of operations in a seeded order, so a run that stops part-way
through a round changes the mix by at most one round.  Operations call the
package through module attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from hfree_mis import classify, cli, hardness, induced, oracle, patterns, solver
from hfree_mis.errors import BudgetExceededError
from hfree_mis.graph import Graph

import inputs
from metrics import Digest, sub_seed

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "workloads.json")) as _fh:
    CONFIG = json.load(_fh)
REFERENCE_PATH = os.path.join(HERE, "reference.json")


class WrongAnswer(Exception):
    """An answer disagrees with the reference: the run aborts."""


# What an operation came to.  A yes without a witness is right (set-up
# holds a checked independent set of size alpha), but it is not certified
# by the package; it is counted apart from FAILED, which is an operation
# that gave no answer (BudgetExceededError).
ANSWERED, NO_WITNESS, FAILED = "answered", "no_witness", "failed"


@dataclass
class Op:
    kind: str                       # operation kind, for the per-kind table
    cls: str | None                 # "yes" / "no" for decisions, else None
    call: Callable[[], object]
    check: Callable[[object], str]   # ANSWERED or NO_WITNESS; raises WrongAnswer


@dataclass
class Workload:
    name: str
    seed: int
    rounds: list[list[Op]]
    digest: str
    reference: dict = field(default_factory=dict)   # set-up answers, with their inputs


def load_reference(seed: int) -> dict | None:
    if seed != CONFIG["default_seed"] or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(sub_seed(seed, *parts))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


# -- solve-mix -----------------------------------------------------------------


def _solve_check(adj: list[int], k: int, alpha: int, label: str):
    def check(answer) -> str:
        decision, witness = answer
        _expect(decision == (k <= alpha), f"{label}: decided {decision} at k={k}, alpha={alpha}")
        if not decision:
            return ANSWERED
        if not witness:
            return NO_WITNESS
        _expect(len(set(witness)) >= k and inputs.is_independent(adj, witness),
                f"{label}: witness {witness} is not an independent set of size {k}")
        return ANSWERED
    return check


def _solve_api(g: Graph, k: int, name: str, seed: int):
    out = solver.solve_hfree(g, k, name, seed=seed)
    return out.decision, out.witness


def _solve_cli(path: str, k: int, name: str, seed: int):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", "--input", path, "--pattern", name,
                         "--k", str(k), "--seed", str(seed)])
    if code == 2:
        raise BudgetExceededError(0, 0)
    _expect(code == 0, f"cli exit {code}: {err.getvalue().strip()}")
    decision, witness = None, ()
    for line in out.getvalue().splitlines():
        if line.startswith(f"independent set of size {k}: "):
            decision = line.rsplit(" ", 1)[1] == "yes"
        elif line.startswith("witness = "):
            witness = tuple(int(tok) - 1 for tok in line.split()[2:])
    _expect(decision is not None, "cli printed no decision")
    return decision, witness


def _write_graph(path: str, n: int, edges) -> None:
    with open(path, "w") as fh:
        fh.write(f"p {n} {len(edges)}\n")
        fh.writelines(f"e {u + 1} {v + 1}\n" for u, v in edges)


def _hfree_sample(name: str, n: int, p: float, rng: random.Random, max_tries: int):
    h = patterns.pattern(name)
    for _ in range(max_tries):
        edges = inputs.gnm(n, p, rng)
        g = Graph(n, edges)
        if induced.find_induced(g, h) is None:
            return edges, g
    raise RuntimeError(f"no {name}-free sample at n={n} in {max_tries} tries")


def solve_mix(seed: int, workdir: str) -> Workload:
    cfg = CONFIG["workloads"]["solve-mix"]
    recorded = load_reference(seed)
    cells = [(name, n, p) for name, sizes, p in cfg["families"] for n in sizes]
    digest = Digest()
    alphas: list[int] = []
    adjs: list[list[int]] = []
    # the CLI takes graphs of the cells whose solve is cheap, so its
    # operations time parsing and dispatch, and their latencies fill the gap
    # between the yes and no clusters, where the pooled median falls
    cli_cells = [cell for cell in cells if [cell[0], cell[1]] in cfg["cli_cells"]]
    rounds = []
    for r in range(cfg["rounds"]):
        # one graph per family and size through the API, one more per CLI cell
        picks = [(cell, False) for cell in cells] + [(cell, True) for cell in cli_cells]
        plan = []
        for (name, n, p), via_cli in picks:
            rng = _rng(seed, "solve-mix", name, n, via_cli, r)
            edges, g = _hfree_sample(name, n, p, rng, cfg["max_tries"])
            adj = inputs.adjacency(n, edges)
            ref = oracle.alpha_exact(g)
            _expect(inputs.is_independent(adj, ref.witness) and len(ref.witness) == ref.alpha,
                    f"reference alpha for {name} n={n} has a bad witness")
            alpha = ref.alpha
            if recorded is not None:
                want = recorded["solve-mix"]["alpha"][len(alphas)]
                _expect(alpha == want, f"alpha_exact gave {alpha}, recorded reference {want}")
            alphas.append(alpha)
            adjs.append(adj)
            digest.add(name, n, via_cli, adj)
            path = None
            if via_cli:
                path = os.path.join(workdir, f"solve-{r}-{len(plan)}.txt")
                _write_graph(path, n, edges)
            plan += [(name, n, g, adj, alpha, k, path) for k in (alpha, alpha + 1)]
        _rng(seed, "solve-mix", "order", r).shuffle(plan)
        ops = []
        for idx, (name, n, g, adj, alpha, k, path) in enumerate(plan):
            op_seed = sub_seed(seed, "solve-mix", "solver", r, idx) & 0xFFFF
            cls = "yes" if k <= alpha else "no"
            if path is not None:
                call = (lambda path=path, k=k, name=name, s=op_seed: _solve_cli(path, k, name, s))
                kind = f"cli {cls}"
            else:
                call = (lambda g=g, k=k, name=name, s=op_seed: _solve_api(g, k, name, s))
                kind = f"{name} n={n} {cls}"
            digest.add(idx, k, op_seed)
            ops.append(Op(kind, cls, call, _solve_check(adj, k, alpha, f"solve {name} n={n} round {r}")))
        rounds.append(ops)
    return Workload("solve-mix", seed, rounds, digest.hexdigest(), {"alpha": alphas, "adj": adjs})


# -- exact-alpha -----------------------------------------------------------------


def _alpha_check(adj: list[int], lower: int, upper: int, recorded: int | None, label: str):
    def check(res) -> str:
        _expect(len(res.witness) == res.alpha and inputs.is_independent(adj, res.witness),
                f"{label}: witness does not certify alpha={res.alpha}")
        _expect(lower <= res.alpha <= upper,
                f"{label}: alpha={res.alpha} outside the bounds [{lower}, {upper}]")
        _expect(recorded is None or res.alpha == recorded,
                f"{label}: alpha={res.alpha}, recorded reference {recorded}")
        return ANSWERED
    return check


def _reach_check(feasible: bool, recorded: bool | None, label: str):
    def check(reached) -> str:
        _expect(reached == feasible, f"{label}: reached={reached}, tiling feasible={feasible}")
        _expect(recorded is None or recorded == feasible, f"{label}: feasibility differs from record")
        return ANSWERED
    return check


def exact_alpha(seed: int, workdir: str) -> Workload:
    cfg = CONFIG["workloads"]["exact-alpha"]
    budget = cfg["node_budget"]
    recorded = load_reference(seed)
    rec = recorded["exact-alpha"] if recorded else None
    digest = Digest()
    feasibility: list[bool] = []
    adjs: list[list[int]] = []
    tilings: list = []
    rounds = []
    for r in range(cfg["rounds"]):
        ops = []
        for n, p in cfg["gnp"]:
            edges = inputs.gnm(n, p, _rng(seed, "exact-alpha", "gnp", n, p, r))
            adj = inputs.adjacency(n, edges)
            want = rec["alpha"][len(adjs)] if rec else None
            adjs.append(adj)
            digest.add(n, p, adj)
            g = Graph(n, edges)
            ops.append(Op(f"alpha G({n},{p})", None,
                          lambda g=g: oracle.alpha_exact(g, budget),
                          _alpha_check(adj, inputs.greedy_lower(adj), inputs.cover_upper(adj),
                                       want, f"alpha G({n},{p}) round {r}")))
        # only the constructions kind makes the yes and no classes: infeasible
        # draws of the pooled kinds have a hard mode that would decide the no tail
        specs = ([(spec, True) for spec in cfg["constructions"]]
                 + [(spec, False) for spec in cfg["pooled_constructions"]])
        for (k, m, n_t, variant), classed in specs:
            for planted in (True, False):
                rng = _rng(seed, "exact-alpha", "tiling", k, m, n_t, variant, planted, r)
                for _ in range(cfg["max_tries"]):
                    tiles = inputs.tiling(k, m, n_t, rng, planted)
                    feas = inputs.feasible(tiles, m)
                    if planted or not feas:
                        break
                else:
                    raise RuntimeError("no infeasible tiling drawn")
                _expect(feas == planted, "planted tiling is infeasible")
                want = rec["feasible"][len(feasibility)] if rec else None
                feasibility.append(feas)
                tilings.append((k, m, tiles))
                digest.add(k, m, n_t, variant, tiles)
                gt = hardness.GridTiling(k, m, tiles)
                label = f"reach k={k} m={m} n_t={n_t} {variant} round {r}"
                cls = ("yes" if feas else "no") if classed else None
                ops.append(Op(f"reach k={k} m={m} n_t={n_t} {variant} {'yes' if feas else 'no'}", cls,
                              lambda gt=gt, variant=variant: hardness.construction_alpha_reaches(
                                  hardness.build_construction(gt, variant, cfg["p"]), budget),
                              _reach_check(feas, want, label)))
        _rng(seed, "exact-alpha", "order", r).shuffle(ops)
        rounds.append(ops)
    return Workload("exact-alpha", seed, rounds, digest.hexdigest(),
                    {"feasible": feasibility, "adj": adjs, "tilings": tilings})


# -- pattern-check ---------------------------------------------------------------


MISS_HOSTS = {
    "k4_free": lambda n, rng: inputs.k4_free(n, 0.3, rng),
    "multipartite_pieces": lambda n, rng: inputs.multipartite_pieces(n, 20, 4, rng),
    "complete_multipartite": lambda n, rng: inputs.complete_multipartite(n, 4, rng),
    "co_bipartite": lambda n, rng: inputs.co_bipartite(n, 0.5, rng),
    "split": lambda n, rng: inputs.split_graph(n, 0.3, rng),
}


def _verdict_check(want, label: str):
    def check(v) -> str:
        got = [v.complexity, v.kernel, list(v.rules_fired)]
        _expect(got == want, f"{label}: verdict {got}, reference {want}")
        return ANSWERED
    return check


def _find_check(adj, h_adj, hit: bool, label: str):
    def check(emb) -> str:
        if emb is None:
            _expect(not hit, f"{label}: missed a planted copy")
            return ANSWERED
        _expect(inputs.is_induced_copy(adj, h_adj, emb), f"{label}: embedding {emb} is not induced")
        _expect(hit, f"{label}: host excludes the pattern by construction, yet {emb} checks out")
        return ANSWERED
    return check


def _exclusion_check(label: str):
    def check(report) -> str:
        _expect(report.clean, f"{label}: first variant reported {report.found()}")
        return ANSWERED
    return check


def load_verdicts() -> dict:
    """Reference verdicts of the 208 classes: the same on every seed."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["pattern-check"]["verdict"]


def pattern_check(seed: int, workdir: str, verdicts: dict | None = None) -> Workload:
    cfg = CONFIG["workloads"]["pattern-check"]
    recorded = load_reference(seed)
    rec = recorded["pattern-check"] if recorded else None
    verdicts = load_verdicts() if verdicts is None else verdicts
    classes = inputs.small_graphs(6)
    _expect(len(classes) == 208 and all(key in verdicts for key, _n, _e in classes),
            "enumeration of graphs with at most six vertices changed")
    pats = [(name, patterns.pattern(name), host) for name, host in cfg["patterns"]]
    h_adjs = {name: inputs.adjacency(h.n, h.graph.edges()) for name, h, _ in pats}
    two_claws = patterns.HPattern(Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4)]),
                                  "two-claws")
    digest = Digest()
    hits: list[bool] = []
    rounds = []
    for r in range(cfg["rounds"]):
        ops = []
        rng = _rng(seed, "pattern-check", "relabel", r)
        for key, n, edges in classes:
            perm = list(range(n))
            rng.shuffle(perm)
            g = Graph(n, inputs.relabel(edges, perm))
            digest.add(key, perm)
            ops.append(Op(f"verdict n={n}", None, lambda g=g: classify.verdict(g),
                          _verdict_check(verdicts[key], f"verdict {key} round {r}")))
        for name, h, miss_host in pats:
            for n in cfg["host_n"]:
                for hit in (True, False):
                    rng = _rng(seed, "pattern-check", "host", name, n, hit, r)
                    if hit:
                        edges = inputs.plant(n, inputs.gnm(n, cfg["hit_p"], rng), h_adjs[name], rng)
                    else:
                        edges = MISS_HOSTS[miss_host](n, rng)
                    adj = inputs.adjacency(n, edges)
                    if rec is not None:
                        _expect(rec["hit"][len(hits)] == hit, "hit plan differs from record")
                    hits.append(hit)
                    digest.add(name, n, hit, adj)
                    g = Graph(n, edges)
                    label = f"find {name} n={n} {'hit' if hit else 'miss'} round {r}"
                    ops.append(Op(f"find_induced n={n} {'hit' if hit else 'miss'}",
                                  "yes" if hit else "no",
                                  lambda g=g, h=h: induced.find_induced(g, h),
                                  _find_check(adj, h_adjs[name], hit, label)))
        for p in cfg["exclusion_p"]:
            k, m, n_t = cfg["exclusion_tiling"]
            tiles = inputs.tiling(k, m, n_t, _rng(seed, "pattern-check", "tiling", p, r), True)
            digest.add(p, tiles)
            out = hardness.build_construction(hardness.GridTiling(k, m, tiles), "first", p)
            ops.append(Op(f"verify_exclusions p={p}", None,
                          lambda out=out: hardness.verify_exclusions(out, 5, 2, trees=(two_claws,)),
                          _exclusion_check(f"exclusions p={p} round {r}")))
        _rng(seed, "pattern-check", "order", r).shuffle(ops)
        rounds.append(ops)
    return Workload("pattern-check", seed, rounds, digest.hexdigest(), {"hit": hits})


BUILDERS = {"solve-mix": solve_mix, "exact-alpha": exact_alpha, "pattern-check": pattern_check}
