"""Fixed-pattern complexity classification.

Decides, for a small pattern H, what this package knows about Maximum
Independent Set restricted to H-free graphs: polynomial-time solvable,
fixed-parameter tractable, hard for the parameterized hierarchy, or open;
and on the kernel axis: polynomial kernel, Turing kernel without a
polynomial one, no polynomial kernel, or open.  Every applied rule is
recorded by a stable identifier in ``rules_fired``; the engine never
guesses, so open is a first-class outcome.

The hardness side rests on clique decompositions: partitions of H into
cliques whose pairwise interactions match a target graph under increasingly
strict conditions (plain, strong, almost strong, nearly strong).  A
connected chordal H admitting neither a nearly strong decomposition on a
path nor an almost strong one on a subdivided claw cannot appear in the
anti-matching hardness constructions, so its class is hard.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, mask_of
from .induced import find_induced
from .patterns import (
    FamilyMatch,
    HPattern,
    PATTERN_CAP,
    cycle,
    is_cluster_graph,
    path,
    recognize_family,
    star,
    t_spider,
)

MODES = ("plain", "strong", "almost_strong", "nearly_strong")

# the fixed patterns of the rules, built once
_C4 = cycle(4)
_K14 = star(4)
_T122 = t_spider(1, 2, 2)
_POLY_HOSTS = (("P6", path(6)), ("claw", star(3)))   # H inside one: polynomial


@dataclass(frozen=True)
class CliqueDecomposition:
    parts: tuple[int, ...]                       # vertex masks partitioning V(H)
    target_edges: tuple[tuple[int, int], ...]    # adjacency among the parts
    mode: str


@dataclass(frozen=True)
class Verdict:
    complexity: str   # polynomial | fpt | w1_hard | np_hard_open_fpt | open
    kernel: str       # poly_kernel | turing_kernel_no_pk | no_poly_kernel | open_kernel
    rules_fired: tuple[str, ...]


# -- interactions --------------------------------------------------------------

def _interaction_class(h: Graph, pa: int, pb: int) -> str:
    """empty | clique | clique_minus_edge | c4_free | other."""
    cross_missing = 0
    cross_any = False
    for u in bits(pa):
        hits = h.adj[u] & pb
        if hits:
            cross_any = True
        cross_missing += (pb & ~hits).bit_count()
    if not cross_any:
        return "empty"
    if cross_missing == 0:
        return "clique"
    union = pa | pb
    if cross_missing == 1 and union.bit_count() >= 3:
        return "clique_minus_edge"
    if find_induced(h, _C4, mask=union) is None:
        return "c4_free"
    return "other"


def _partitions_into_cliques(h: Graph):
    """All partitions of V(H) into non-empty cliques, each exactly once
    (every block is anchored at its smallest vertex)."""

    def clique_blocks_with(vi: int, cands: int):
        sub = 0
        while True:  # the subsets of cands in increasing order
            if h.is_clique_mask(sub):
                yield sub | 1 << vi
            sub = (sub - cands) & cands
            if not sub:
                return

    def rec(rest: int):
        if rest == 0:
            yield []
            return
        vi = (rest & -rest).bit_length() - 1
        for block in clique_blocks_with(vi, h.adj[vi] & rest):
            for tail in rec(rest & ~block):
                yield [block] + tail

    yield from rec(h.full_mask)


def _targets(family: str, ell: int) -> list[tuple[tuple[int, int], ...]]:
    """Candidate target edge sets on ell vertices: the path, and/or the
    spiders with one branching vertex of degree three."""
    out = []
    if family in ("paths", "t1"):
        out.append(tuple((i, i + 1) for i in range(max(ell - 1, 0))))
    if family in ("claw_subdivisions", "t1") and ell >= 4:
        arms_total = ell - 1
        for a in range(1, arms_total + 1):
            for b in range(a, arms_total + 1):
                c = arms_total - a - b
                if c < b or c < 1:
                    continue
                edges = []
                nxt = 1
                for arm in (a, b, c):
                    prev = 0
                    for _ in range(arm):
                        edges.append((prev, nxt))
                        prev = nxt
                        nxt += 1
                out.append(tuple(edges))
    return out


# Per mode, the cost of a pair of parts by interaction class, indexed by
# whether the target joins the two parts: 0 fits, 1 is the one exception a
# nearly strong decomposition allows, None never fits.  In every mode
# stricter than plain, non-adjacent pairs must be empty and adjacent pairs
# must carry real interactions.
_STRICT_APART = {"empty": 0}
_PAIR_COST = {
    "plain": ({"empty": 0}, {"empty": 0, "clique": 0, "clique_minus_edge": 0,
                             "c4_free": 0, "other": 0}),
    "strong": (_STRICT_APART, {"clique": 0}),
    "almost_strong": (_STRICT_APART, {"clique": 0, "clique_minus_edge": 0}),
    "nearly_strong": (_STRICT_APART, {"clique": 0, "clique_minus_edge": 0, "c4_free": 1}),
}


def _assign(classes: list[list[str]], target: list[int], mode: str) -> list[int] | None:
    """Target vertex of each part such that every pair of parts fits the
    mode, or None.  Parts are placed in order, each trying the free target
    vertices in increasing order, and a pair is tested once both ends are
    placed, so the answer is the first fitting permutation in
    lexicographic order."""
    ell = len(target)
    apart, joined = _PAIR_COST[mode]
    # a part interacting with d others needs a target vertex of degree at
    # least d, and of exactly d in the modes where apart means empty
    linked = [0] * ell
    for i in range(ell):
        for j, cls in enumerate(classes[i]):
            if cls != "empty":
                linked[i] += 1
                linked[j] += 1
    tdeg = [t.bit_count() for t in target]
    if mode == "plain":
        allowed = [mask_of(t for t in range(ell) if tdeg[t] >= d) for d in linked]
    else:
        allowed = [mask_of(t for t in range(ell) if tdeg[t] == d) for d in linked]
    if not all(allowed):
        return None
    image = [0] * ell

    def place(i: int, free: int, spent: int) -> bool:
        if i == ell:
            return True
        row = classes[i]
        for t in bits(free & allowed[i]):
            cost = spent
            for j in range(i):
                c = (joined if target[t] >> image[j] & 1 else apart).get(row[j])
                if c is None:
                    break
                cost += c
            else:
                if cost <= 1:
                    image[i] = t
                    if place(i + 1, free & ~(1 << t), cost):
                        return True
        return False

    return image if place(0, (1 << ell) - 1, 0) else None


def find_clique_decomposition(h: HPattern | Graph, targets, mode: str) -> CliqueDecomposition | None:
    """Exhaustive search for a clique decomposition of H onto a target.

    ``targets`` is "paths", "claw_subdivisions", "t1", or an explicit Graph;
    ``mode`` is one of plain, strong, almost_strong, nearly_strong.  Exact:
    None means no partition and assignment works.

    Partitions of V(H) into cliques come in a fixed order, and for each
    candidate target a backtracking search assigns the parts to target
    vertices whose degree fits the part's interactions, testing each pair
    of parts as soon as both are placed.  Every pruned branch holds no
    fitting assignment, so the first one found is the first fitting
    permutation of the target vertices in lexicographic order.
    """
    hg = h.graph if isinstance(h, HPattern) else h
    if hg.n > PATTERN_CAP:
        raise ValueError("pattern exceeds the cap")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    for parts in _partitions_into_cliques(hg):
        ell = len(parts)
        if isinstance(targets, Graph):
            cand = [tuple(targets.edges())] if targets.n == ell else []
        else:
            cand = _targets(targets, ell)
        if not cand:
            continue
        # classes[i][j], j < i: interaction of parts j and i
        classes = [[_interaction_class(hg, parts[j], parts[i]) for j in range(i)]
                   for i in range(ell)]
        for edges in cand:
            target = [0] * ell
            for u, v in edges:
                target[u] |= 1 << v
                target[v] |= 1 << u
            image = _assign(classes, target, mode)
            if image is not None:
                tgt = tuple((i, j) for i in range(ell) for j in range(i + 1, ell)
                            if target[image[i]] >> image[j] & 1)
                return CliqueDecomposition(tuple(parts), tgt, mode)
    return None


# -- join factors and hardness helpers -------------------------------------------

def join_factors(h: HPattern | Graph) -> list[Graph]:
    """Factors of the maximal join decomposition: the subgraphs induced on
    the connected components of the complement."""
    hg = h.graph if isinstance(h, HPattern) else h
    return [hg.induced(comp)[0] for comp in hg.co_components()]


def is_path_graph(g: Graph) -> bool:
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    return (g.is_connected() and g.edge_count() == g.n - 1
            and max(g.degree(v) for v in range(g.n)) <= 2)


def is_claw_subdivision(g: Graph) -> bool:
    """A tree with exactly one branching vertex, of degree exactly three."""
    if g.n < 4 or not g.is_connected() or g.edge_count() != g.n - 1:
        return False
    branch = [v for v in range(g.n) if g.degree(v) >= 3]
    return len(branch) == 1 and g.degree(branch[0]) == 3


def np_hard_connected(h: HPattern | Graph) -> bool:
    """NP-hardness of the H-free class by the classical rules: H connected
    and neither a path nor a subdivided claw; or H a clique of size at
    least three plus one isolated vertex.  Conservative otherwise."""
    hg = h.graph if isinstance(h, HPattern) else h
    if hg.n == 0:
        return False
    if hg.is_connected():
        return not (is_path_graph(hg) or is_claw_subdivision(hg))
    comps = hg.connected_components()
    if len(comps) == 2:
        small, big = sorted(comps, key=int.bit_count)
        if small.bit_count() == 1 and big.bit_count() >= 3 and hg.is_clique_mask(big):
            return True
    return False


def _contains_two_branching_tree(h: Graph) -> bool:
    """Does H contain an induced tree with two vertices of degree >= 3?"""
    for sub_mask in range(1, 1 << h.n):
        size = sub_mask.bit_count()
        if size < 6:
            continue
        degrees = [(h.adj[v] & sub_mask).bit_count() for v in bits(sub_mask)]
        if (sum(degrees) == 2 * (size - 1) and sum(d >= 3 for d in degrees) >= 2
                and len(h.connected_components(sub_mask)) == 1):
            return True
    return False


def is_chordal(h: Graph) -> bool:
    """Perfect-elimination ordering by repeated simplicial deletion."""
    mask = h.full_mask
    while mask:
        simplicial = None
        for v in bits(mask):
            if h.is_clique_mask(h.adj[v] & mask):
                simplicial = v
                break
        if simplicial is None:
            return False
        mask &= ~(1 << simplicial)
    return True


# -- the verdict engine -----------------------------------------------------------

def _is_polynomial(h: Graph, rules: list[str]) -> bool:
    if h.n == 0:
        return True
    if max(h.degree(v) for v in range(h.n)) <= 1:
        rules.append("poly:union-of-edges")
        return True
    for name, host in _POLY_HOSTS:
        if h.n <= host.n and find_induced(host, h) is not None:
            rules.append(f"poly:inside-{name}")
            return True
    return False


_FPT_RULES = {"complete": "fpt:ramsey-kernel", "cluster": "fpt:cluster-expansion",
              "clique_minus_bipartite": "fpt:clique-minus-bipartite", "gem": "fpt:gem-branching"}


def _fpt_rule(fam: FamilyMatch, rules: list[str]) -> None:
    """Every family ``recognize_family`` names is FPT once the hardness rules
    have passed: K_r - K_s with r > s >= 4 is a split graph with an induced
    K1,4, so ``w1-hard:four-leaf-star`` takes it first.  An induced subgraph
    of the gem lies inside P6, or it is K3, the diamond, the paw or the gem,
    so no rule beyond the families is needed for it."""
    if fam.kind == "clique_minus_clique":
        rules.append(f"fpt:clique-minus-K{fam.params[1]}")
    else:
        rules.append(_FPT_RULES[fam.kind])


def _kernel_axis(h: Graph, complexity: str, rules: list[str],
                 fam: FamilyMatch | None = None) -> str:
    """The kernel verdict; ``fam`` is H's family when it decided fpt."""
    if complexity == "polynomial":
        rules.append("kernel:trivial-from-polynomial")
        return "poly_kernel"
    if complexity == "w1_hard":
        rules.append("kernel:none-without-fpt")
        return "no_poly_kernel"

    no_pk = any(np_hard_connected(f) for f in join_factors(h))
    if no_pk:
        rules.append("no-poly-kernel:join-composition")

    if fam is not None:
        if fam.kind == "complete":
            rules.append("kernel:ramsey")
            return "poly_kernel"
        if fam.kind == "clique_minus_clique" and fam.params[1] == 2:
            rules.append("kernel:two-leaf-star-rule")
            return "poly_kernel"
        if fam.kind == "clique_minus_bipartite":
            _r, s1, s2 = fam.params
            if s1 == 1 and s2 <= 2:
                rules.append("kernel:two-leaf-star-rule")
                return "poly_kernel"
            if s1 == 1 and s2 >= max(3, _r - 2):
                rules.append("turing-kernel:pendant-clique")
                return "turing_kernel_no_pk"
        if fam.kind == "cluster":
            comps = h.connected_components()
            if len(comps) == 2:
                small, big = sorted(comps, key=int.bit_count)
                if small.bit_count() == 1 and big.bit_count() >= 3:
                    rules.append("turing-kernel:isolated-vertex")
                    return "turing_kernel_no_pk"
    return "no_poly_kernel" if no_pk else "open_kernel"


def verdict(h: HPattern | Graph) -> Verdict:
    """Complexity and kernel classification of the H-free class."""
    hg = h.graph if isinstance(h, HPattern) else h
    if hg.n > PATTERN_CAP:
        raise ValueError("pattern exceeds the cap")
    rules: list[str] = []

    if _is_polynomial(hg, rules):
        kernel = _kernel_axis(hg, "polynomial", rules)
        return Verdict("polynomial", kernel, tuple(rules))

    hard = False
    if not is_chordal(hg):
        rules.append("w1-hard:non-chordal")
        hard = True
    elif find_induced(hg, _K14) is not None:
        rules.append("w1-hard:four-leaf-star")
        hard = True
    elif _contains_two_branching_tree(hg):
        rules.append("w1-hard:two-branching-tree")
        hard = True
    elif hg.n >= 6 and find_induced(hg, _T122) is not None:
        rules.append("w1-hard:spider-1-2-2")
        hard = True

    fam = None if hard else recognize_family(hg)
    if fam is not None:
        _fpt_rule(fam, rules)
        kernel = _kernel_axis(hg, "fpt", rules, fam)
        return Verdict("fpt", kernel, tuple(rules))

    if not hard and hg.is_connected():
        near = find_clique_decomposition(hg, "paths", "nearly_strong")
        almost = find_clique_decomposition(hg, "claw_subdivisions", "almost_strong")
        if near is None and almost is None:
            rules.append("w1-hard:no-soft-decomposition")
            hard = True
    if hard:
        kernel = _kernel_axis(hg, "w1_hard", rules)
        return Verdict("w1_hard", kernel, tuple(rules))

    if np_hard_connected(hg):
        rules.append("np-hard:not-path-or-subdivided-claw")
        complexity = "np_hard_open_fpt"
    else:
        complexity = "open"
        if not hg.is_connected() and not is_cluster_graph(hg):
            rules.append("open:disconnected-beyond-clusters")
    kernel = _kernel_axis(hg, complexity, rules)
    if not rules:
        rules.append("open:no-rule-applies")
    return Verdict(complexity, kernel, tuple(rules))
