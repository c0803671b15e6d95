"""Solvers for the structured rainbow instances of the three clique-like
forbidden patterns: clique minus a triangle, clique minus a complete
bipartite graph, and the gem.

Every solver answers like the driver's own subproblems: a witness, that
is a sorted tuple of at least k independent vertices that has passed
``Graph.checked_witness``, or None when it finds no independent set meeting
every part.  It raises PatternViolationError with an embedding when the
host graph turns out not to be H-free after all.  The randomized ones never
report a false positive; misses are controlled by their repetition counts.
They work on the instance's vertex mask of its graph, so witnesses and
embeddings are in that graph's vertex ids.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Callable

from .cluster import solve_cluster_free
from .cograph import cograph_decompose
from .errors import InternalCheckError, PatternViolationError
from .graph import Graph, bits, mask_of
from .induced import find_induced
from .iterexp import FaugInstance
from .patterns import pattern
from .ramsey import ramsey_bound, ramsey_extract

MisCallback = Callable[[int, int], "tuple[int, ...] | None"]
"""Complete decider used for branching, called as ``callback(mask, k)`` on
a vertex mask of the instance's graph.  It answers in the solvers' own
shape: a witness of size k inside G[mask] in the graph's vertex ids, or
None when alpha(G[mask]) < k."""


def _branch_on_part(inst: FaugInstance, part_idx: int,
                    callback: MisCallback) -> tuple[int, ...] | None:
    """Decide the instance by branching on every vertex of one part.

    Sound and complete given a complete callback: every rainbow set meets
    the part, so if no branch extends to k the rainbow answer is no.
    """
    g = inst.graph
    for v in bits(inst.parts[part_idx]):
        wit = callback(inst.mask & ~g.closed_neighborhood(v), inst.k - 1)
        if wit is not None:
            return g.checked_witness(wit + (v,), inst.k, "branching")
    return None


def _rainbow_exhaustive(g: Graph, parts: tuple[int, ...]) -> tuple[int, ...] | None:
    """Backtracking transversal search: one vertex per part, pairwise
    non-adjacent.  Exponential in the number of parts only."""
    order = sorted(range(len(parts)), key=lambda i: parts[i].bit_count())
    chosen: list[int] = []

    def rec(level: int, blocked: int):
        if level == len(order):
            return tuple(chosen)
        cand = parts[order[level]] & ~blocked
        for v in bits(cand):
            chosen.append(v)
            hit = rec(level + 1, blocked | g.closed_neighborhood(v))
            if hit is not None:
                return hit
            chosen.pop()
        return None

    return rec(0, 0)


# -- clique minus a triangle --------------------------------------------------

def solve_faug_clique_minus_triangle(
    inst: FaugInstance, r: int, rng: random.Random,
    callback: MisCallback,
    separation_rounds: int = 1024,
    part_threshold: int | None = None,
) -> tuple[int, ...] | None:
    """Rainbow solver for hosts excluding the complete graph on r+3 vertices
    minus a triangle; extracted cliques have size r.

    Verifies the part/clique bipartite graph is a path, guesses the two
    endpoint vertices, clears long edges by random separation and finishes
    with the path dynamic program.  One-sided error.
    """
    g, k = inst.graph, inst.k
    if any(len(cl) != r for cl in inst.cliques.cliques):
        raise ValueError("extracted cliques must have size r")
    threshold = ramsey_bound(r, k) if part_threshold is None else part_threshold

    part_cliques: dict[int, tuple[int, ...]] = {}
    for i, p in enumerate(inst.parts):
        if p.bit_count() >= ramsey_bound(r, k):
            out = ramsey_extract(g, r, k, p)
            if out.kind == "independent_set":
                return g.checked_witness(out.members, k, "Ramsey extraction")
            part_cliques[i] = out.members
    small = min(range(k), key=lambda i: inst.parts[i].bit_count())
    if inst.parts[small].bit_count() < threshold:
        return _branch_on_part(inst, small, callback)

    # the host class forces the part/clique bipartite graph to be a path
    for i in range(k):
        if inst.bip[i].bit_count() > 2:
            if i not in part_cliques:
                raise ValueError("part sees three cliques but is too small to certify")
            cs = list(bits(inst.bip[i]))[:3]
            witness = part_cliques[i] + tuple(inst.cliques.cliques[c][0] for c in cs)
            raise PatternViolationError(f"K{r + 3}-K3", witness, "part sees three cliques")
    for ci in range(k - 1):
        nbr_parts = tuple(p for p, row in zip(inst.parts, inst.bip) if row >> ci & 1)
        if len(nbr_parts) > 2:
            # a rainbow set puts an independent triple into three parts
            # that see the clique, and with it the triple induces the pattern
            triple = _rainbow_exhaustive(g, nbr_parts[:3])
            if triple is None:
                return None
            raise PatternViolationError(
                f"K{r + 3}-K3", tuple(inst.cliques.cliques[ci]) + triple,
                "clique sees three parts")
    parts = tuple(inst.parts[i] for i in _path_order(inst))

    if k <= 4:
        hit = _rainbow_exhaustive(g, parts)
        return None if hit is None else g.checked_witness(hit, k, "transversal search")

    long_pairs = [(i, j) for i in range(1, k - 1) for j in range(i + 2, k - 1)]
    for x1 in bits(parts[0]):
        for xk in bits(parts[k - 1] & ~g.adj[x1]):
            blocked = g.closed_neighborhood(x1) | g.closed_neighborhood(xk)
            middles = [parts[i] & ~blocked for i in range(1, k - 1)]
            if any(m == 0 for m in middles):
                continue
            long_edges = []
            for i, j in long_pairs:
                for u in bits(middles[i - 1]):
                    for w in bits(middles[j - 1] & g.adj[u]):
                        long_edges.append((u, w))
            rounds = 1 if not long_edges else separation_rounds
            for _ in range(rounds):
                if long_edges:
                    keep = 0
                    for i in bits(inst.mask):
                        if rng.random() < 0.5:
                            keep |= 1 << i
                    kept = [m & keep for m in middles]
                    for u, w in long_edges:
                        if keep >> u & 1 and keep >> w & 1:
                            kept = [m & ~(1 << u) & ~(1 << w) for m in kept]
                else:
                    kept = middles
                hit = _path_dp(g, kept)
                if hit is not None:
                    return g.checked_witness((x1, xk) + hit, k, "path dynamic program")
    return None


def _path_order(inst: FaugInstance) -> list[int]:
    """Part indices in path order, for a connected part/clique bipartite
    graph of maximum degree 2: with k parts and k-1 cliques, a path."""
    k = inst.k
    ends = [i for i in range(k) if inst.bip[i].bit_count() <= 1]
    order = [ends[0]]
    used_cliques = 0
    while len(order) < k:
        row = inst.bip[order[-1]] & ~used_cliques
        ci = next(bits(row))
        used_cliques |= 1 << ci
        nxt = next(i for i in range(k) if i not in order and inst.bip[i] >> ci & 1)
        order.append(nxt)
    return order


def _path_dp(g: Graph, parts: list[int]) -> tuple[int, ...] | None:
    """One vertex per part of a non-empty list, consecutive parts
    non-adjacent; assumes no edges between non-consecutive parts."""
    parent: list[dict[int, int]] = [dict() for _ in parts]
    for v in bits(parts[0]):
        parent[0][v] = -1
    for i in range(1, len(parts)):
        for v in bits(parts[i]):
            for u in parent[i - 1]:
                if not g.has_edge(u, v):
                    parent[i][v] = u
                    break
        if not parent[i]:
            return None
    v = next(iter(parent[-1]))
    path = [v]
    for i in range(len(parts) - 1, 0, -1):
        v = parent[i][v]
        path.append(v)
    return tuple(reversed(path))


# -- clique minus a complete bipartite graph ----------------------------------

def solve_faug_clique_minus_bipartite(
    inst: FaugInstance, r: int,
    callback: MisCallback,
    part_threshold: int | None = None,
) -> tuple[int, ...] | None:
    """Rainbow solver for hosts excluding K_{3r} minus K_{r,r}; extracted
    cliques have size 3r.

    Shows the clique-relation graph is one clique and the part/clique
    bipartite graph complete, concludes the part union excludes two disjoint
    r-cliques, and delegates to the cluster-free solver.  Deterministic.
    """
    g, k = inst.graph, inst.k
    if any(len(cl) != 3 * r for cl in inst.cliques.cliques):
        raise ValueError("extracted cliques must have size 3r")
    threshold = ramsey_bound(r, k) if part_threshold is None else part_threshold

    part_cliques: dict[int, tuple[int, ...]] = {}
    for i, p in enumerate(inst.parts):
        if p.bit_count() < threshold:
            return _branch_on_part(inst, i, callback)
        if p.bit_count() >= ramsey_bound(r, k):
            out = ramsey_extract(g, r, k, p)
            if out.kind == "independent_set":
                return g.checked_witness(out.members, k, "Ramsey extraction")
            part_cliques[i] = out.members
        else:
            small = next(g.cliques(p, r), None)
            if small is not None:
                part_cliques[i] = small

    rel = inst.cliques.relations
    kk = k - 1  # number of extracted cliques

    def slice_of(ci: int, which: str) -> tuple[int, ...]:
        cl = inst.cliques.cliques[ci]
        return {"low": cl[:r], "mid": cl[r:2 * r], "high": cl[2 * r:]}[which]

    # any induced two-edge path in the relation graph yields the forbidden
    # pattern out of three clique slices
    for b in range(kk):
        nbrs = [a for a in range(kk) if a != b and rel[a][b] != "empty"]
        for ai in range(len(nbrs)):
            for ci in range(ai + 1, len(nbrs)):
                a, c = nbrs[ai], nbrs[ci]
                if rel[a][c] == "empty":
                    sa = slice_of(a, "high" if rel[a][b] == "semi_desc" else "low")
                    sc = slice_of(c, "high" if rel[b][c] == "semi_asc" else "low")
                    witness = sa + slice_of(b, "mid") + sc
                    _check_clique_minus_bipartite(g, sa, slice_of(b, "mid"), sc, r)
                    raise PatternViolationError(
                        f"K{3 * r}-K{r},{r}", witness, "two-edge path among extracted cliques")

    # relation components, which are cliques after the check above
    rel_graph = Graph.from_adj([mask_of(b for b in range(kk) if b != a and rel[a][b] != "empty")
                                for a in range(kk)])
    comps = rel_graph.connected_components()
    if len(comps) > 1:
        comp_of = {ci: comp for comp in comps for ci in bits(comp)}
        for i in range(k):
            cs = sorted(bits(inst.bip[i]), key=comp_of.__getitem__)
            if cs and comp_of[cs[0]] != comp_of[cs[-1]]:
                a = cs[0]
                c = next(ci for ci in cs if comp_of[ci] != comp_of[a])
                ka = part_cliques.get(i)
                if ka is None:
                    raise ValueError("part bridges two components but is too small to certify")
                _check_clique_minus_bipartite(g, slice_of(a, "low"), ka, slice_of(c, "low"), r)
                raise PatternViolationError(
                    f"K{3 * r}-K{r},{r}", ka + slice_of(a, "low") + slice_of(c, "low"),
                    "part bridges two relation components")
        raise InternalCheckError("disconnected relation graph with no bridging part")

    full_row = (1 << kk) - 1
    for i in range(k):
        if inst.bip[i] != full_row:
            a = next(bits(inst.bip[i]))
            c = next(bits(full_row & ~inst.bip[i]))
            ka = part_cliques.get(i)
            if ka is None:
                raise ValueError("part misses a clique but is too small to certify")
            if rel[a][c] == "semi_desc":
                sa, sc = slice_of(a, "high"), slice_of(c, "low")
            else:
                sa, sc = slice_of(a, "low"), slice_of(c, "high")
            _check_clique_minus_bipartite(g, ka, sa, sc, r)
            raise PatternViolationError(
                f"K{3 * r}-K{r},{r}", ka + sa + sc, "part misses a clique")

    # every clique vertex dominates the part union, so it excludes K_r + K_r
    try:
        res = solve_cluster_free(g, k, r, 2, inst.all_parts_mask())
    except PatternViolationError as exc:
        mid = inst.cliques.cliques[0][:r] if kk else ()
        raise PatternViolationError(
            f"K{3 * r}-K{r},{r}", exc.vertices + mid,
            "two disjoint cliques inside the part union") from None
    return g.checked_witness(res.witness, k, "cluster-free solver") if res.found else None


def _check_clique_minus_bipartite(g: Graph, side_a, middle, side_b, r: int) -> None:
    """The three r-sets must induce the clique-minus-complete-bipartite
    pattern: everything complete except side_a x side_b."""
    ok = (len(side_a) == len(middle) == len(side_b) == r
          and len(set(side_a + middle + side_b)) == 3 * r
          and g.is_clique(side_a + middle) and g.is_clique(middle + side_b)
          and not any(g.has_edge(u, w) for u in side_a for w in side_b))
    if not ok:
        raise InternalCheckError(
            f"{side_a} + {middle} + {side_b} does not induce K{3 * r}-K{r},{r}")


# -- the gem ------------------------------------------------------------------

def solve_faug_gem(
    inst: FaugInstance, rng: random.Random, rounds: int,
) -> tuple[int, ...] | None:
    """Rainbow solver for gem-free hosts; extracted cliques are single
    vertices, so every part is dominated and induces a cograph.

    Covers each part by cliques, branches over cover tuples, then repeatedly
    clears part pairs without a balanced diamond via the three-way branching
    rule (the third branch splits the matched sub-cliques by a random
    subset).  Finds a rainbow set with probability at least 2^(-k^2) per
    round; never reports a false positive.
    """
    g, k = inst.graph, inst.k
    if any(len(cl) != 1 for cl in inst.cliques.cliques):
        raise ValueError("extracted cliques must be single vertices")

    covers: list[list[int]] = []
    for p in inst.parts:
        alpha, wit, cover = _gem_free_cotree(inst, p, "path of four inside a dominated part")
        if alpha >= k:
            return g.checked_witness(bits(wit), k, "cotree")
        covers.append(cover)

    for _ in range(rounds):
        for combo in product(*covers):
            wit = _gem_branching(g, k, list(combo), inst, rng)
            if wit is not None:
                return wit
    return None


def _adjacent_pairs(g: Graph, parts: list[int]) -> list[tuple[int, int]]:
    out = []
    for i in range(len(parts)):
        ni = g.neighborhood(parts[i])
        for j in range(i + 1, len(parts)):
            if ni & parts[j]:
                out.append((i, j))
    return out


def _find_balanced_diamond(g: Graph, pi: int, pj: int) -> tuple[int, int, int, int] | None:
    """(a, b, c, d) with a,b in the first clique, c,d in the second, all
    edges present except b-d."""
    for a in bits(pi):
        na = g.adj[a] & pj
        for b in bits(pi & ~(1 << a)):
            nb = g.adj[b] & pj
            common = na & nb
            only_a = na & ~nb
            if common and only_a:
                return (a, b, next(bits(common)), next(bits(only_a)))
    return None


def _gem_branching(g: Graph, k: int, parts: list[int], inst: FaugInstance,
                   rng: random.Random) -> tuple[int, ...] | None:
    # no part is empty: cotree cover classes are not, and the branches
    # below skip any that empties a part
    pairs = _adjacent_pairs(g, parts)
    target = next(((i, j) for i, j in pairs if _find_balanced_diamond(g, parts[i], parts[j]) is None), None)
    if target is None:
        return _gem_finish(g, k, parts, inst)
    i, j = target
    # matched sub-clique structure: cross neighborhoods are equal or disjoint
    classes: dict[int, int] = {}
    zero_i = 0
    for a in bits(parts[i]):
        na = g.adj[a] & parts[j]
        if na == 0:
            zero_i |= 1 << a
        else:
            classes[na] = classes.get(na, 0) | (1 << a)
    matched = sorted(classes.items())
    zero_j = parts[j] & ~g.neighborhood(parts[i])

    branches = []
    branches.append([parts[x] if x != i else zero_i for x in range(k)])
    branches.append([parts[x] if x != j else zero_j for x in range(k)])
    pick = [rng.random() < 0.5 for _ in matched]
    side_i = 0
    side_j = 0
    for take, (na, cls) in zip(pick, matched):
        if take:
            side_i |= cls
        else:
            side_j |= na
    third = [parts[x] for x in range(k)]
    third[i] = side_i
    third[j] = side_j
    branches.append(third)

    before = len(pairs)
    for br in branches:
        if any(p == 0 for p in br):
            continue
        after = len(_adjacent_pairs(g, br))
        if after >= before:
            raise InternalCheckError("branching must remove a part adjacency")
        wit = _gem_branching(g, k, br, inst, rng)
        if wit is not None:
            return wit
    return None


def _gem_finish(g: Graph, k: int, parts: list[int],
                inst: FaugInstance) -> tuple[int, ...] | None:
    union = 0
    for p in parts:
        union |= p
    alpha, wit, _ = _gem_free_cotree(inst, union, "path of four in a cleaned component")
    return g.checked_witness(bits(wit), k, "cotree") if alpha >= k else None


def _gem_free_cotree(inst: FaugInstance, mask: int, where: str) -> tuple[int, int, list[int]]:
    """``cograph_decompose`` of the instance's graph on ``mask``.  A path of
    four inside the mask, with a vertex of the instance that sees all four,
    induces a gem: PatternViolationError, saying ``where`` it was found."""
    try:
        return cograph_decompose(inst.graph, mask)
    except PatternViolationError as exc:
        p4 = exc.vertices
        raise PatternViolationError("gem", p4 + (_path_dominator(inst, p4),), where) from None


def _path_dominator(inst: FaugInstance, p4: tuple[int, ...]) -> int:
    """A vertex of the instance adjacent to all four path vertices: with the
    path it induces a gem.

    When there is none, the graph is not gem-free: on a gem-free graph,
    adjacent cliques that finish the gem branching see the same extracted
    vertices, so every path of four across them has a dominator.  The
    PatternViolationError then names a gem found by search, in the instance
    or else in its graph; finding none is InternalCheckError."""
    g = inst.graph
    common = inst.mask
    for v in p4:
        common &= g.adj[v]
    if common:
        return next(bits(common))
    for mask in (inst.mask, g.full_mask):
        gem = find_induced(g, pattern("gem"), mask=mask)
        if gem is not None:
            raise PatternViolationError("gem", tuple(gem.values()),
                                        f"found by search: no vertex sees the path of four {p4}")
    raise InternalCheckError(f"no vertex sees the path of four {p4}, yet the graph is gem-free")
