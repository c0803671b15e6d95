"""Exact maximum-independent-set oracle.

Branch and bound over candidate bitmasks.  The upper bound is a clique
cover: alpha never exceeds the number of cover classes meeting the
candidate set.  Branching picks the cover class with fewest remaining
candidates and tries each of its vertices, plus the branch discarding the
whole class.  A node budget makes the oracle fail loudly instead of
hanging; it never returns a wrong answer.
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
    hardness construction) to sharpen pruning; it must partition V.
    """
    if g.n == 0:
        return AlphaResult(0, (), 0)
    if cover is None:
        cover = greedy_clique_cover(g)

    best_mask = greedy_independent_set(g)
    best = best_mask.bit_count()
    nodes = 0

    def search(cands: int, chosen: int, chosen_count: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, budget)
        live = [cls & cands for cls in cover if cls & cands]
        if chosen_count + len(live) <= best:
            return
        if not live:
            if chosen_count > best:
                best, best_mask = chosen_count, chosen
            return
        # branch on the sparsest live class: one subtree per member, plus skip
        cls = min(live, key=int.bit_count)
        for v in bits(cls):
            search(cands & ~g.closed_neighborhood(v), chosen | (1 << v), chosen_count + 1)
        search(cands & ~cls, chosen, chosen_count)

    search(g.full_mask, 0, 0)
    if not g.is_independent_mask(best_mask):
        raise InternalCheckError(f"oracle witness {tuple(bits(best_mask))} is not independent")
    return AlphaResult(best, tuple(bits(best_mask)), nodes)


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
