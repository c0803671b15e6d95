"""Exact maximum-independent-set oracle.

Branch and bound over candidate bitmasks.  The upper bound is a clique
cover: alpha never exceeds the number of cover classes meeting the
candidate set.  Branching picks the cover class with fewest remaining
candidates and tries each of its vertices, plus the branch discarding the
whole class.  A node budget makes the oracle fail loudly instead of
hanging; it never returns a wrong answer.

One search serves two entries: ``alpha_exact`` starts from a greedy
independent set and returns alpha with a witness; ``alpha_reaches`` starts
from the bound k - 1 and stops at the first independent set of k vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, InternalCheckError
from .graph import Graph, bits

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class AlphaResult:
    alpha: int
    witness: tuple[int, ...]
    nodes_used: int


def greedy_clique_cover(g: Graph, order: list[int] | None = None) -> list[int]:
    """Partition of V into cliques (as masks), greedily by descending degree."""
    if order is None:
        order = sorted(range(g.n), key=g.degree, reverse=True)
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
    cands = g.full_mask if mask is None else mask
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


def alpha_exact(g: Graph, budget: int = DEFAULT_BUDGET, cover: list[int] | None = None) -> AlphaResult:
    """Exact alpha(G) with a witness, or BudgetExceededError.

    ``cover`` may supply a known clique cover (e.g. the main cliques of a
    hardness construction) to sharpen pruning; every class must be a
    clique and the classes must cover V, else ValueError.
    """
    cover = _checked_cover(g, cover)
    if g.n == 0:
        return AlphaResult(0, (), 0)
    floor = greedy_independent_set(g)
    best, nodes = _search(g, cover, floor, floor.bit_count(), g.n + 1, budget)
    return AlphaResult(best.bit_count(), tuple(bits(best)), nodes)


def alpha_reaches(g: Graph, k: int, budget: int = DEFAULT_BUDGET,
                  cover: list[int] | None = None) -> tuple[int, ...] | None:
    """An independent set of exactly k vertices, or None when alpha(G) < k;
    BudgetExceededError when the search runs out.

    The same search as ``alpha_exact`` with the bound fixed at k - 1 and no
    greedy floor: it prunes every branch that cannot reach k and stops at
    the first set that does.  ``cover`` is checked as in ``alpha_exact``.
    """
    cover = _checked_cover(g, cover)
    if k <= 0:
        return ()
    found, _nodes = _search(g, cover, 0, k - 1, k, budget)
    return tuple(bits(found)) if found.bit_count() == k else None


def _checked_cover(g: Graph, cover: list[int] | None) -> list[int]:
    """The greedy cover when none is supplied; else ``cover`` once each class
    is known to be a clique and their union to be V."""
    if cover is None:
        return greedy_clique_cover(g)
    union = 0
    for cls in cover:
        union |= cls
    if union != g.full_mask:
        raise ValueError(f"cover classes cover {tuple(bits(union))}, not the {g.n} vertices of G")
    for cls in cover:
        if not g.is_clique_mask(cls):
            raise ValueError(f"cover class {tuple(bits(cls))} is not a clique")
    return cover


class _Reached(Exception):
    """Unwinds the search at the first independent set of the target size."""


def _search(g: Graph, cover: list[int], best_mask: int, best: int, target: int,
            budget: int) -> tuple[int, int]:
    """Branch and bound for an independent set of more than ``best`` vertices.

    Returns the largest set found (``best_mask`` when none beats ``best``) and
    the nodes used; with ``target`` <= n it returns at the first set of
    ``target`` vertices instead.  Each node keeps the classes of its parent's
    live list that still meet its candidates, in the parent's order, which
    is the list a filter of the whole cover would give.
    """
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    nodes = 0

    def search(parent_live: list[int], cands: int, chosen: int, count: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, budget)
        if count >= target:
            best_mask = chosen
            raise _Reached
        live = [part for cls in parent_live if (part := cls & cands)]
        if count + len(live) <= best:
            return
        if not live:
            best, best_mask = count, chosen
            return
        # branch on the sparsest live class: one subtree per member, plus skip
        cls = min(live, key=int.bit_count)
        for v in bits(cls):
            search(live, cands & ~closed[v], chosen | 1 << v, count + 1)
        search(live, cands & ~cls, chosen, count)

    try:
        search(cover, g.full_mask, 0, 0)
    except _Reached:
        pass
    if not g.is_independent_mask(best_mask):
        raise InternalCheckError(f"oracle witness {tuple(bits(best_mask))} is not independent")
    return best_mask, nodes


def enumerate_independent_sets(g: Graph, mask: int | None = None):
    """Yield every independent subset of ``mask`` (including the empty set)."""
    cands0 = g.full_mask if mask is None else mask

    def rec(cur: int, cands: int):
        yield cur
        rest = cands
        for v in bits(cands):
            rest &= ~(1 << v)
            yield from rec(cur | (1 << v), rest & ~g.adj[v])

    yield from rec(0, cands0)
