"""Exact maximum-independent-set oracle.

Branch and bound over candidate bitmasks.  The upper bound is a clique
cover: alpha never exceeds the number of cover classes meeting the
candidate set (the node's live parts).  Branching picks the live part with
fewest candidates and tries each of its vertices; the branch discarding
the whole part follows only when, at the parent, the parts left could
still beat the best set.  A node budget makes the oracle fail loudly
instead of hanging; it never returns a wrong answer.

A node is tight when its live parts are exactly enough to beat the best
set, so a better set must take one vertex from every live part (the
zero-slack case of the unit propagation on colour classes in Li & Quan,
AAAI 2010).  At a tight node every candidate adjacent to a whole other
part is deleted, since choosing it would empty that part; the node ends
as soon as a part is empty, and deletion repeats until nothing changes.
The rule is sound for any clique cover, overlapping classes included.
Every descendant of a tight node is tight too, so its subtree is searched
with the parts at fixed positions (0 for a part already settled) and each
part's common neighbourhood kept beside it: a deletion round finds the
parts it touched with one scan, recomputes only their common
neighbourhoods, and ends the node when one is empty.  At the fixpoint
every part cut down to one vertex is settled at once, since its vertex's
neighbours are already deleted; two settled parts naming one vertex (of
overlapping classes) end the node.  The subtree returns at its first set
that beats the best.

One search serves two entries: ``alpha_exact`` starts from a floor (a
greedy independent set, or one the caller holds) and returns alpha with a
witness; ``alpha_reaches`` starts from the bound k - 1 and stops at the
first independent set of k vertices.  ``alpha_exact`` also searches G[mask]
as it would search the relabelled copy, with a witness in G's vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_

from .errors import BudgetExceededError, InternalCheckError
from .graph import Graph, bits

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class AlphaResult:
    alpha: int
    witness: tuple[int, ...]
    nodes_used: int


def greedy_clique_cover(g: Graph, order: list[int] | None = None,
                        mask: int | None = None) -> list[int]:
    """Partition of ``mask`` (default: V) into cliques (as masks), greedily by
    descending degree inside the mask, ties to the lower index, unless
    ``order`` gives the vertices in another order."""
    cands = g.vertex_mask(mask)
    if order is None:
        adj = g.adj
        order = sorted(bits(cands), key=lambda v: (adj[v] & cands).bit_count(), reverse=True)
    classes: list[int] = []
    for v in order:
        bit = 1 << v
        for i, cls in enumerate(classes):
            if cls & ~g.adj[v] == 0:
                classes[i] = cls | bit
                break
        else:
            classes.append(bit)
    return classes


def greedy_independent_set(g: Graph, mask: int | None = None) -> int:
    """Min-degree greedy independent set within ``mask``, as a mask."""
    cands = g.vertex_mask(mask)
    out = 0
    while cands:
        best, best_deg = -1, g.n + 1
        for v in bits(cands):
            d = (g.adj[v] & cands).bit_count()
            if d < best_deg:
                best, best_deg = v, d
        out |= 1 << best
        cands &= ~g.closed_neighborhood(best)
    return out


def alpha_exact(g: Graph, budget: int = DEFAULT_BUDGET, cover: list[int] | None = None,
                floor: int | None = None, mask: int | None = None) -> AlphaResult:
    """Exact alpha(G[mask]) (default: all of G) with a witness, or
    BudgetExceededError.

    On a mask the search is the one on the copy G[mask]: the greedy cover
    orders the mask by degree inside it, and the greedy floor is drawn
    inside it.  ``cover`` may supply a known clique cover (e.g. the main
    cliques of a hardness construction) to sharpen pruning; ``floor`` an
    independent set already held (as a mask), which the search must beat.
    ValueError when the mask names vertices outside G, a cover class is not
    a clique or the classes do not cover exactly the mask, or the floor is
    not an independent set inside the mask.
    """
    mask = g.vertex_mask(mask)
    cover = _checked_cover(g, cover, mask)
    if floor is None:
        floor = greedy_independent_set(g, mask)
    elif floor < 0 or floor & ~mask or not g.is_independent_mask(floor):
        raise ValueError(f"floor {floor:#x} is not an independent set of the vertices searched")
    if not mask:
        return AlphaResult(0, (), 0)
    best, nodes = _search(g, cover, mask, floor, floor.bit_count(), mask.bit_count() + 1, budget)
    return AlphaResult(best.bit_count(), tuple(bits(best)), nodes)


def alpha_reaches(g: Graph, k: int, budget: int = DEFAULT_BUDGET,
                  cover: list[int] | None = None) -> tuple[int, ...] | None:
    """An independent set of exactly k vertices, or None when alpha(G) < k;
    BudgetExceededError when the search runs out.

    The same search as ``alpha_exact`` with the bound fixed at k - 1 and no
    greedy floor: it prunes every branch that cannot reach k and stops at
    the first set that does.  ``cover`` is checked as in ``alpha_exact``.
    """
    cover = _checked_cover(g, cover, g.full_mask)
    if k <= 0:
        return ()
    found, _nodes = _search(g, cover, g.full_mask, 0, k - 1, k, budget)
    return tuple(bits(found)) if found.bit_count() == k else None


def _checked_cover(g: Graph, cover: list[int] | None, mask: int) -> list[int]:
    """The greedy cover of G[mask] when none is supplied; else ``cover`` once
    each class is known to be a clique and their union to be the mask."""
    if cover is None:
        return greedy_clique_cover(g, mask=mask)
    union = 0
    for cls in cover:
        union |= cls
    if union != mask:
        raise ValueError(f"cover classes cover {tuple(bits(union))}, "
                         f"not the {mask.bit_count()} vertices searched")
    for cls in cover:
        if not g.is_clique_mask(cls):
            raise ValueError(f"cover class {tuple(bits(cls))} is not a clique")
    return cover


class _Reached(Exception):
    """Unwinds the search at the first independent set of the target size."""


def _search(g: Graph, cover: list[int], mask: int, best_mask: int, best: int, target: int,
            budget: int) -> tuple[int, int]:
    """Branch and bound for an independent set of more than ``best`` vertices
    of G[mask].

    Returns the largest set found (``best_mask`` when none beats ``best``) and
    the nodes used; with ``target`` <= n it returns at the first set of
    ``target`` vertices instead.  Each node keeps the classes of its parent's
    live list that still meet its candidates, in the parent's order, which
    is the list a filter of the whole cover would give.  A tight node that
    survives its first deletion round hands its live parts and their common
    neighbourhoods to ``settle``, which searches the rest of its subtree.
    InternalCheckError unless a set returned as beating ``best`` is
    independent and has exactly the number of vertices the search counted.
    """
    adj = g.adj
    nodes = 0
    start = best

    def common_of(part: int) -> int:
        """The vertices adjacent to every vertex of ``part``."""
        low = part & -part
        common = adj[low.bit_length() - 1]
        part ^= low
        while part:
            low = part & -part
            common &= adj[low.bit_length() - 1]
            part ^= low
        return common

    def settle(parts: list[int], commons: list[int], removed: int, chosen: int,
               count: int) -> bool:
        """One node of a tight subtree: a better set takes one vertex from every
        nonzero entry of ``parts``, which keep their positions (0 marks a part
        already settled), and ``commons`` holds each entry's common
        neighbourhood.  Deletes ``removed`` and whatever that makes
        unchoosable, settles every part cut down to one vertex, then branches
        on the first smallest part; True once a set beating ``best`` is found.
        """
        nonlocal best, best_mask, nodes
        positions = range(len(parts))
        # a part's common neighbourhood grows only when the part shrinks
        while touched := list(compress(positions, map(and_, repeat(removed), parts))):
            keep, removed = ~removed, 0
            for i in touched:
                parts[i] = part = parts[i] & keep
                if not part:
                    return False
                commons[i] = common = common_of(part)
                removed |= common
        cls = min(filter(None, parts), key=int.bit_count, default=0)
        if cls.bit_count() == 1:
            # propagation has deleted the neighbours of every one-vertex part,
            # so all of them join the set at once
            settled = 0
            for i in compress(positions, map((1).__eq__, map(int.bit_count, parts))):
                part = parts[i]
                if settled & part:
                    return False    # two overlapping classes name one vertex
                settled |= part
                parts[i] = 0
                count += 1
            chosen |= settled
            cls = min(filter(None, parts), key=int.bit_count, default=0)
        if not cls:
            best, best_mask = count, chosen
            if count >= target:
                raise _Reached
            return True
        parts[parts.index(cls)] = 0
        for v in bits(cls):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(nodes, budget)
            # the class is a clique through v: N[v] covers it
            if settle(parts[:], commons[:], cls | adj[v], chosen | 1 << v, count + 1):
                return True
        return False

    def search(parent_live: list[int], cands: int, chosen: int, count: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, budget)
        if count >= target:
            best, best_mask = count, chosen
            raise _Reached
        live = [part for cls in parent_live if (part := cls & cands)]
        slack = count + len(live) - best
        if slack <= 0:
            return
        if not live:
            best, best_mask = count, chosen
            return
        if slack == 1:
            # tight: only a set taking one vertex from every live part beats
            # best, so a candidate adjacent to a whole part is no member;
            # common_of inline: a call per part costs dense random graphs
            # about 8% of their search time
            commons = []
            dead = 0
            for part in live:
                low = part & -part
                common = adj[low.bit_length() - 1]
                part ^= low
                while part:
                    low = part & -part
                    common &= adj[low.bit_length() - 1]
                    part ^= low
                commons.append(common)
                dead |= common
            dead &= cands
            # most tight nodes end here, before any part is recomputed
            if dead and not all(map(and_, repeat(cands & ~dead), live)):
                return
            settle(live, commons, dead, chosen, count)
            return
        # branch on the sparsest live class: one subtree per member, plus skip;
        # the class is a clique through v, so skip & ~adj[v] is cands - N[v]
        cls = min(live, key=int.bit_count)
        skip = cands & ~cls
        for v in bits(cls):
            search(live, skip & ~adj[v], chosen | 1 << v, count + 1)
        if count + len(live) - 1 > best:
            search(live, skip, chosen, count)

    try:
        search(cover, mask, 0, 0)
    except _Reached:
        pass
    if best > start and best_mask.bit_count() != best:
        raise InternalCheckError(f"oracle counted {best} vertices in {tuple(bits(best_mask))}")
    if not g.is_independent_mask(best_mask):
        raise InternalCheckError(f"oracle witness {tuple(bits(best_mask))} is not independent")
    return best_mask, nodes


def enumerate_independent_sets(g: Graph, mask: int | None = None):
    """Yield every independent subset of ``mask`` (including the empty set)."""
    def rec(cur: int, cands: int):
        yield cur
        rest = cands
        for v in bits(cands):
            rest &= ~(1 << v)
            yield from rec(cur | (1 << v), rest & ~g.adj[v])

    yield from rec(0, g.vertex_mask(mask))
