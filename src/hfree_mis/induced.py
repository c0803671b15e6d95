"""Exhaustive induced-subgraph detection for small patterns.

Backtracking over an ordering of the pattern vertices chosen so that each
new vertex is constrained by as many already-placed ones as possible; the
candidate set at every level is a single bitmask intersection, so negative
searches prune hard on dense hosts.
"""

from __future__ import annotations

from .graph import Graph, bits
from .patterns import HPattern, PATTERN_CAP


def _search_order(h: Graph) -> list[int]:
    order = []
    placed = 0
    degs = [h.degree(v) for v in range(h.n)]
    for _ in range(h.n):
        best, best_key = -1, (-1, -1)
        for v in range(h.n):
            if placed >> v & 1:
                continue
            key = ((h.adj[v] & placed).bit_count(), degs[v])
            if key > best_key:
                best, best_key = v, key
        order.append(best)
        placed |= 1 << best
    return order


def find_induced(g: Graph, h: HPattern | Graph, cap: int = PATTERN_CAP,
                 mask: int | None = None) -> dict[int, int] | None:
    """First embedding of ``h`` as an induced subgraph of ``g[mask]``
    (default: all of ``g``), or None.

    The embedding maps pattern vertices to host vertices.  Exhaustive: a
    None answer means no vertex subset of g[mask] induces h.
    """
    hg = h.graph if isinstance(h, HPattern) else h
    if hg.n > cap:
        raise ValueError(f"pattern has {hg.n} vertices, cap is {cap}")
    if hg.n > g.n:
        return None
    if hg.n == 0:
        return {}

    order = _search_order(hg)
    # per level: (pattern vertex, [(placed level, must_be_adjacent)])
    constraints = []
    for i, pv in enumerate(order):
        cons = []
        for j in range(i):
            cons.append((j, hg.has_edge(pv, order[j])))
        constraints.append(cons)

    full = g.full_mask if mask is None else mask
    image = [0] * hg.n
    used = 0

    def place(level: int) -> dict[int, int] | None:
        nonlocal used
        if level == hg.n:
            return {order[i]: image[i] for i in range(hg.n)}
        cand = full & ~used
        for j, adjacent in constraints[level]:
            w = image[j]
            cand &= g.adj[w] if adjacent else ~g.adj[w]
            if not cand:
                return None
        for v in bits(cand):
            image[level] = v
            used |= 1 << v
            hit = place(level + 1)
            used &= ~(1 << v)
            if hit is not None:
                return hit
        return None

    return place(0)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Graph isomorphism for small graphs, as an equal-size induced embedding."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(g1.degree(v) for v in range(g1.n)) != sorted(g2.degree(v) for v in range(g2.n)):
        return False
    return find_induced(g1, g2, cap=max(g1.n, PATTERN_CAP)) is not None


def brute_force_induced(g: Graph, h: Graph) -> bool:
    """Independent oracle: try every |V(h)|-subset and every bijection."""
    from itertools import combinations, permutations

    if h.n > g.n:
        return False
    hv = list(range(h.n))
    for subset in combinations(range(g.n), h.n):
        for perm in permutations(subset):
            ok = True
            for i in hv:
                for j in range(i + 1, h.n):
                    if h.has_edge(i, j) != g.has_edge(perm[i], perm[j]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False
