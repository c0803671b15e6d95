"""Command-line interface: solve, kernel, classify, generate, oracle.

Exit codes: 0 completed, 1 input error, 2 budget exceeded.  Every report
carries the seed it ran under; identical seed and flags give identical
output.  The default seed comes from HFREE_MIS_SEED, read when a command
runs.  ``solve`` decides with the greedy bound plus the exact oracle
(``--mode exact``) or runs the paper's pipeline as a reproduction
(``--mode desk|faithful``).
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys

from .classify import verdict
from .errors import BudgetExceededError, InputFormatError, PatternViolationError, UnsupportedPatternError
from .graph import Graph
from .hardness import build_construction, gen_grid_tiling, lift_solution, or_compose
from .io import emit_graph, parse_graph
from .kernelize import kernel_krfree, kernel_paw_like, turing_kernel_star
from .oracle import DEFAULT_BUDGET, alpha_exact
from .patterns import parse_pattern
from .solver import SolveConfig, solve_hfree, solve_paper


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read())


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _named_vertices(label: str, vertices) -> str:
    """``label`` followed by the vertices' 1-based input ids."""
    return " ".join([label, *(str(v + 1) for v in vertices)])


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("HFREE_MIS_SEED", "0"))


def cmd_oracle(args) -> int:
    g = _read_graph(args.input)
    res = alpha_exact(g, budget=args.budget)
    print(f"alpha = {res.alpha}")
    print(f"witness = {' '.join(str(v + 1) for v in res.witness)}")
    print(f"nodes = {res.nodes_used}")
    return 0


def cmd_solve(args) -> int:
    g = _read_graph(args.input)
    seed = _seed(args)
    h = parse_pattern(args.pattern)
    if args.mode == "exact":
        out = solve_hfree(g, args.k, h, seed=seed, config=SolveConfig(budget=args.budget))
    else:
        config = SolveConfig(faithful=args.mode == "faithful",
                             separation_rounds=args.repetitions,
                             gem_rounds=max(1, args.repetitions // 32),
                             budget=args.budget)
        out = solve_paper(g, args.k, h, seed=seed, config=config)
    print(f"seed = {seed}")
    print(f"method = {out.method}")
    decision = "yes" if out.decision else "no"
    print(f"independent set of size {args.k}: {decision}")
    if out.witness:
        print(f"witness = {' '.join(str(v + 1) for v in sorted(out.witness))}")
    for note in out.notes:
        print(f"note: {note}")
    return 0


def cmd_kernel(args) -> int:
    g = _read_graph(args.input)
    if args.family == "turing":
        comps = g.connected_components()
        runs = [("", None, args.k)]
        if len(comps) > 1:
            # as solve_via_turing decides it: per component, one run per target
            print(f"components = {len(comps)} (each answers its largest target with a yes "
                  f"subinstance; yes iff the answers sum to at least k)")
            runs = [(f"component {c} target {i}: ", comp, i)
                    for c, comp in enumerate(comps) for i in range(1, args.k + 1)]
        parts = []
        for prefix, mask, k in runs:
            out = turing_kernel_star(g, k, args.r, mask)
            print(f"{prefix}subinstances = {len(out.subinstances)} (combined by disjunction)")
            for note in out.notes:
                print(f"{prefix}note: {note}")
            if args.output:
                # a piece's vertex i is input vertex kept[i]; its set of kk
                # vertices plus the guessed ones solves the input, and a
                # solved piece (parameter 0) names its whole set as found
                for idx, (sub_mask, kk, guessed) in enumerate(out.subinstances):
                    sub, kept = g.induced(sub_mask)
                    parts.append(emit_graph(sub, comments=(
                        f"{prefix}subinstance {idx} parameter {kk}",
                        _named_vertices("kept", kept),
                        _named_vertices("guessed" if kk else "found", guessed))))
        if args.output:
            _write(args.output, "".join(parts))
        return 0
    kernel = kernel_krfree if args.family == "krfree" else kernel_paw_like
    res = kernel(g, args.k, args.r)
    print(f"verdict = {res.verdict}")
    for note in res.trace:
        print(f"rule: {note}")
    if res.verdict == "reduced":
        print(f"reduced: n = {res.kept.bit_count()}, k = {args.k}")
        if args.output:
            sub, kept = g.induced(res.kept)
            _write(args.output, emit_graph(sub, comments=(_named_vertices("kept", kept),)))
    elif res.verdict == "solved_yes":
        print(f"witness = {' '.join(str(v + 1) for v in sorted(res.witness))}")
    return 0


def cmd_classify(args) -> int:
    h = parse_pattern(args.pattern)
    v = verdict(h)
    print(f"pattern = {args.pattern} ({h.graph.n} vertices)")
    print(f"complexity = {v.complexity}")
    print(f"kernel = {v.kernel}")
    for rule in v.rules_fired:
        print(f"rule: {rule}")
    return 0


def cmd_generate(args) -> int:
    seed = _seed(args)
    rng = random.Random(seed)
    if args.kind == "gridtiling":
        gt, solution = gen_grid_tiling(args.k, args.m, args.nt, args.planted, rng)
        out = build_construction(gt, args.variant, args.p)
        comments = [
            f"seed {seed}",
            f"grid tiling k={gt.k} m={gt.m} tile size={gt.tile_size}",
            f"variant {out.variant} p={out.p} target independent set k'={out.k_prime}",
        ]
        for i in range(gt.k):
            for j in range(gt.k):
                comments.append(f"tile {i} {j}: " + " ".join(f"{a},{b}" for a, b in gt.tiles[i][j]))
        if solution is not None:
            witness = lift_solution(solution, out)
            comments.append("planted witness: " + " ".join(str(v + 1) for v in witness))
        for (i, j, key), vs in out.clique_at.items():
            for a, v in enumerate(vs):
                comments.append(f"vertex {v + 1}: gadget ({i},{j}) clique {key} index {a}")
        _write(args.output, emit_graph(out.graph, comments=tuple(comments)))
        return 0
    # argparse admits only gridtiling and orcompose
    graphs = [_read_graph(p) for p in args.inputs]
    joined = or_compose(graphs)
    comments = (f"join composition of {len(graphs)} graphs",
                "alpha equals the maximum alpha of the inputs")
    _write(args.output, emit_graph(joined, comments=comments))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hfree-mis",
                                     description="Maximum Independent Set toolkit for H-free graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="exact alpha by branch and bound")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("solve", help="decide an independent set of size k in an H-free graph")
    p.add_argument("--input", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, help="default: HFREE_MIS_SEED, else 0")
    p.add_argument("--mode", choices=("exact", "desk", "faithful"), default="exact",
                   help="exact: greedy bound, then the exact oracle under --budget (default); "
                        "desk, faithful: the paper's pipeline as a reproduction, "
                        "with desk-mode caps or faithful thresholds (k <= 2)")
    p.add_argument("--repetitions", type=int, default=256,
                   help="randomised rounds of the desk and faithful modes")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernel", help="kernelize an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--family", choices=("krfree", "paw", "turing"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("classify", help="complexity verdict for a pattern")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("generate", help="hardness and composition instances")
    p.add_argument("--kind", choices=("gridtiling", "orcompose"), required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--nt", type=int, default=2)
    p.add_argument("--variant", choices=("first", "second", "third"), default="first")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--planted", action="store_true")
    p.add_argument("--seed", type=int, help="default: HFREE_MIS_SEED, else 0")
    p.add_argument("--inputs", nargs="*", default=[])
    p.add_argument("--output")
    p.set_defaults(func=cmd_generate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than
    deciding a typical instance."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputFormatError, UnsupportedPatternError, PatternViolationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
