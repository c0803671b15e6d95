"""Exhaustive induced-subgraph detection for small patterns.

A connected pattern H can only sit inside one connected component of
G[mask], so for connected H the host is split into its components once,
components with fewer than |H| vertices are skipped, and each remaining
component is searched on its own; a disconnected H is searched over the
whole mask.

Each search backtracks over an ordering of the pattern vertices chosen so
that each new vertex is constrained by as many already-placed ones as
possible; the candidate set at every level is a single bitmask
intersection.  The order counts the constraints that prune in the host
part at hand: the pattern's edges when that part has edge density at most
1/2, its non-edges (the edges of the complement) when it is denser.  The
density is a component's own, so a host that is sparse as a whole but
dense inside each component is searched in the non-edge order; the order
and the constraints built from it are made once per density choice, not
once per component.  Twins of the pattern are interchangeable, so a vertex
with a twin placed earlier takes only host vertices above that twin's
image; the search then never revisits a twin-permuted copy of a partial
embedding, which is what makes exhaustive misses on dense hosts cheap.
"""

from __future__ import annotations

from .graph import Graph, bits, complement
from .patterns import HPattern, PATTERN_CAP


def _search_order(rows: list[int]) -> list[int]:
    """Greedy order over a graph given by its adjacency rows: next comes
    the vertex with the most placed neighbours, ties to the higher degree,
    then to the lower index."""
    n = len(rows)
    degs = [row.bit_count() for row in rows]
    order = []
    placed = 0
    for _ in range(n):
        best, best_key = -1, -1
        for v in range(n):
            if not placed >> v & 1:
                key = (rows[v] & placed).bit_count() * n + degs[v]
                if key > best_key:
                    best, best_key = v, key
        order.append(best)
        placed |= 1 << best
    return order


def _plan(hg: Graph, dense: bool) -> tuple[list[int], list[list[tuple[int, int]]], list[int]]:
    """The search order for a host part denser than 1/2 (``dense``) or not,
    and per level: [(placed level, must_be_adjacent)], and the level of the
    last twin placed before it (-1 when none); u and v are twins when
    their neighbourhoods agree outside {u, v}."""
    order = _search_order(complement(hg).adj if dense else hg.adj)
    rows = hg.adj
    constraints = []
    twin_level = []
    for i, pv in enumerate(order):
        cons = []
        twin = -1
        for j in range(i):
            qv = order[j]
            cons.append((j, rows[pv] >> qv & 1))
            if rows[pv] & ~(1 << qv) == rows[qv] & ~(1 << pv):
                twin = j
        constraints.append(cons)
        twin_level.append(twin)
    return order, constraints, twin_level


def _embed(adj: list[int], full: int, constraints: list[list[tuple[int, int]]],
           twin_level: list[int]) -> list[int] | None:
    """Host images of the planned levels inside the vertex mask ``full``,
    or None when there is no such embedding."""
    n = len(constraints)
    image = [0] * n
    used = 0

    def place(level: int) -> bool:
        nonlocal used
        if level == n:
            return True
        cand = full & ~used
        t = twin_level[level]
        if t >= 0:
            cand &= -(2 << image[t])
        for j, adjacent in constraints[level]:
            w = image[j]
            cand &= adj[w] if adjacent else ~adj[w]
            if not cand:
                return False
        for v in bits(cand):
            image[level] = v
            used |= 1 << v
            hit = place(level + 1)
            used &= ~(1 << v)
            if hit:
                return True
        return False

    return image if place(0) else None


def find_induced(g: Graph, h: HPattern | Graph, cap: int = PATTERN_CAP,
                 mask: int | None = None) -> dict[int, int] | None:
    """First embedding of ``h`` as an induced subgraph of ``g[mask]``
    (default: all of ``g``), or None.

    The embedding maps each pattern vertex to its host vertex, keyed in
    pattern-vertex order 0..h.n-1.  Exhaustive: a None answer means no
    vertex subset of g[mask] induces h.  A connected ``h`` is looked for
    one component of g[mask] at a time, in order of their smallest vertex,
    skipping those with fewer than h.n vertices, each in the edge or
    non-edge order its own density calls for; a disconnected ``h`` is
    looked for in g[mask] as a whole.  A mask holding vertices outside
    V(G) is a ValueError.
    """
    hg = h.graph if isinstance(h, HPattern) else h
    if hg.n > cap:
        raise ValueError(f"pattern has {hg.n} vertices, cap is {cap}")
    if mask is None:
        mask = g.full_mask
    elif mask < 0:
        raise ValueError(f"mask {mask} is negative")
    elif mask >> g.n:
        raise ValueError(f"mask holds vertices {tuple(bits(mask >> g.n << g.n))} "
                         f"outside the {g.n} vertices of G")
    if hg.n > mask.bit_count():
        return None
    if hg.n == 0:
        return {}

    adj = g.adj
    if hg.is_connected():
        parts = [c for c in g.connected_components(mask) if c.bit_count() >= hg.n]
    else:
        parts = [mask]
    plans: dict[bool, tuple] = {}
    for part in parts:
        size = part.bit_count()
        rows = adj if part == g.full_mask else [adj[v] & part for v in bits(part)]
        degree_sum = sum(map(int.bit_count, rows))
        dense = degree_sum > size * (size - 1) // 2   # G[part] denser than 1/2
        plan = plans.get(dense)
        if plan is None:
            plan = plans[dense] = _plan(hg, dense)
        order, constraints, twin_level = plan
        image = _embed(adj, part, constraints, twin_level)
        if image is not None:
            emb = [0] * hg.n
            for i, pv in enumerate(order):
                emb[pv] = image[i]
            return dict(enumerate(emb))
    return None


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
