"""FPT solver for graphs excluding a disjoint union of q cliques of size r.

Induction on q: either an independent set of size k turns up, or the
algorithm enumerates a family provably containing every independent set of
the graph.  For each r-clique C with smallest vertex c (in the fixed index
order), the vertices above c with no neighbor in C induce a graph excluding
q-1 cliques; its recursively enumerated family seeds a second phase that
extends each member downwards through windows of the ramsey_bound(r, k)
largest remaining vertices, at most k rounds.  A run with an empty seed
clique is included so the family stays complete even for independent sets
no clique can anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, PatternViolationError
from .graph import Graph, bits, mask_of
from .oracle import enumerate_independent_sets
from .ramsey import ramsey_bound, _extract


@dataclass(frozen=True)
class ClusterResult:
    found: bool
    witness: tuple[int, ...]
    family_insertions: int

    @staticmethod
    def family_bound(n: int, k: int, r: int, q: int) -> int:
        return ramsey_bound(r, k) ** (q * k) * max(n, 1) ** (q * r)


class _Found(Exception):
    def __init__(self, mask: int):
        self.mask = mask


def solve_cluster_free(g: Graph, k: int, r: int, q: int, mask: int | None = None) -> ClusterResult:
    """Find an independent set of size k in G[mask] (default: all of G), or
    report that its alpha is below k.

    Requires G[mask] free of the disjoint union of q copies of K_r; a
    violating embedding discovered mid-run raises PatternViolationError.
    """
    mask = g.vertex_mask(mask)
    if k <= 0:
        return ClusterResult(True, (), 0)
    window_size = ramsey_bound(r, k)
    insertions = 0
    memo: dict[tuple[int, int], list[int]] = {}

    def top_of(mask: int, count: int) -> int:
        out = 0
        for v in sorted(bits(mask), reverse=True)[:count]:
            out |= 1 << v
        return out

    def extend(cur: int, rest: int, depth: int, added: set[int]) -> None:
        nonlocal insertions
        insertions += 1
        if not g.is_independent_mask(cur):
            raise InternalCheckError(f"family member {tuple(bits(cur))} is not independent")
        added.add(cur)
        if cur.bit_count() >= k:
            raise _Found(cur)
        if depth == 0 or not rest:
            return
        window = top_of(rest, min(window_size, rest.bit_count()))
        if rest.bit_count() >= window_size:
            kind, members = _extract(g, window, r, k)
            if kind == "independent_set":
                raise _Found(members)
        for x in sorted(bits(window), reverse=True):
            extend(cur | (1 << x), rest & ((1 << x) - 1) & ~g.adj[x], depth - 1, added)

    def enumerate_all(mask: int) -> list[int]:
        nonlocal insertions
        fam: list[int] = []
        for cur in enumerate_independent_sets(g, mask):
            insertions += 1
            if cur.bit_count() >= k:
                raise _Found(cur)
            fam.append(cur)
        return fam

    def solve(mask: int, qq: int, outer: tuple[tuple[int, ...], ...]) -> list[int]:
        """Family of all independent sets of g[mask].  ``outer`` stacks the
        anchor cliques of enclosing levels for violation reporting."""
        key = (mask, qq)
        if key in memo:
            return memo[key]
        if qq == 1:
            if mask.bit_count() >= window_size:
                kind, members = _extract(g, mask, r, k)
                if kind == "clique":
                    flat = tuple(v for cl in outer for v in cl) + tuple(bits(members))
                    raise PatternViolationError(
                        f"{q}xK{r}", flat, "anchor stack completes the cluster")
                raise _Found(members)
            fam = enumerate_all(mask)
            memo[key] = fam
            return fam

        fam_out: set[int] = set()
        anchors: list[tuple[tuple[int, ...], int]] = [((), mask)]
        for clique in g.cliques(mask, r):
            # above the clique's smallest vertex, and seeing none of it (its
            # other vertices are neighbours of the smallest)
            v1 = mask & ~((1 << (clique[0] + 1)) - 1) & ~g.neighborhood(mask_of(clique))
            anchors.append((clique, v1))

        for clique, region in anchors:
            if clique:
                sub_fam = solve(region, qq - 1, outer + (clique,))
                base = mask & ((1 << (clique[0] + 1)) - 1)
            else:
                sub_fam = [0]  # seedless run: extend the empty set over all of mask
                base = mask
            for s1 in sub_fam:
                v2 = base & ~g.neighborhood(s1) & ~s1
                extend(s1, v2, k, fam_out)
        fam = sorted(fam_out)
        memo[key] = fam
        return fam

    try:
        solve(mask, q, ())
    except _Found as hit:
        return ClusterResult(True, g.checked_witness(bits(hit.mask), k, "cluster"), insertions)
    return ClusterResult(False, (), insertions)
