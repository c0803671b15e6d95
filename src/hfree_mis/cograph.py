"""Cograph (P4-free) tools via complement-components recursion.

Cographs are exactly the graphs whose every induced subgraph on >= 2
vertices is disconnected or has a disconnected complement; alpha and a
minimum clique cover fall out of the same recursion.  Cographs are perfect,
so the cover size equals alpha; both routines check that.
"""

from __future__ import annotations

from .errors import InternalCheckError, PatternViolationError
from .graph import Graph, bits, complement


def find_p4(g: Graph, mask: int | None = None) -> tuple[int, ...] | None:
    """Some induced P4 inside ``mask`` (as an ordered path), or None."""
    if mask is None:
        mask = g.full_mask
    vs = list(bits(mask))
    for b in vs:
        for c in bits(g.adj[b] & mask):
            for a in bits(g.adj[b] & mask & ~g.adj[c] & ~(1 << c)):
                # a-b-c is an induced path; extend by d adjacent to c only
                cand = g.adj[c] & mask & ~g.adj[b] & ~g.adj[a] & ~(1 << a) & ~(1 << b)
                if cand:
                    d = (cand & -cand).bit_length() - 1
                    return (a, b, c, d)
    return None


def is_p4_free(g: Graph, mask: int | None = None) -> bool:
    return find_p4(g, mask) is None


def _cotree_split(g: Graph, co: Graph, mask: int) -> tuple[str, list[int]]:
    """Split a vertex mask into union parts or join parts; ``co`` is the
    complement of ``g``.

    Returns ("union", comps) when g[mask] is disconnected, ("join", comps)
    when its complement is disconnected, and raises otherwise (not a
    cograph) with an induced P4 witness.
    """
    comps = g.connected_components(mask)
    if len(comps) > 1:
        return "union", comps
    co_comps = co.connected_components(mask)
    if len(co_comps) > 1:
        return "join", co_comps
    p4 = find_p4(g, mask)
    if p4 is None:
        raise InternalCheckError("graph and complement both connected, yet no induced P4")
    raise PatternViolationError("P4", p4, "not a cograph")


def cograph_alpha(g: Graph, mask: int | None = None) -> tuple[int, int]:
    """(alpha, witness mask) of a P4-free graph; raises on a P4."""
    if mask is None:
        mask = g.full_mask
    co = complement(g)

    def rec(m: int) -> tuple[int, int]:
        if m.bit_count() <= 1:
            return m.bit_count(), m
        kind, parts = _cotree_split(g, co, m)
        if kind == "union":
            total, wit = 0, 0
            for p in parts:
                a, w = rec(p)
                total += a
                wit |= w
            return total, wit
        best, bw = -1, 0
        for p in parts:
            a, w = rec(p)
            if a > best:
                best, bw = a, w
        return best, bw

    if not mask:
        return 0, 0
    alpha, wit = rec(mask)
    if wit.bit_count() != alpha or not g.is_independent_mask(wit):
        raise InternalCheckError(f"cotree witness {tuple(bits(wit))} is not an "
                                 f"independent set of size {alpha}")
    return alpha, wit


def cograph_clique_cover(g: Graph, mask: int | None = None) -> list[int]:
    """Minimum clique cover (list of masks) of a P4-free graph.

    By perfection the cover size equals alpha; checked on every call.
    """
    if mask is None:
        mask = g.full_mask
    co = complement(g)

    def rec(m: int) -> list[int]:
        if m.bit_count() <= 1:
            return [m] if m else []
        kind, parts = _cotree_split(g, co, m)
        covers = [rec(p) for p in parts]
        if kind == "union":
            out = []
            for c in covers:
                out.extend(c)
            return out
        # join: cliques on the two sides merge pairwise across all parts
        out = covers[0]
        for cov in covers[1:]:
            merged = []
            for i in range(max(len(out), len(cov))):
                a = out[i] if i < len(out) else 0
                b = cov[i] if i < len(cov) else 0
                merged.append(a | b)
            out = merged
        return out

    if not mask:
        return []
    cover = rec(mask)
    for cls in cover:
        if not g.is_clique_mask(cls):
            raise InternalCheckError(f"cover class {tuple(bits(cls))} is not a clique")
    alpha, _ = cograph_alpha(g, mask)
    if len(cover) != alpha:
        raise InternalCheckError(f"clique cover of size {len(cover)} but alpha is {alpha}")
    return cover


def random_cograph(n_ops: int, rng) -> Graph:
    """Random cograph grown by union/join of random smaller pieces."""
    g = Graph(1)
    for _ in range(n_ops):
        h = Graph(1)
        if rng.random() < 0.5:
            from .graph import disjoint_union
            g = disjoint_union(g, h)
        else:
            from .graph import join
            g = join(g, h)
        if rng.random() < 0.3 and g.n >= 2:
            # occasionally duplicate a vertex as a twin to fatten parts
            v = rng.randrange(g.n)
            adj = [row | ((row >> v & 1) << g.n) for row in g.adj]
            newrow = g.adj[v]
            if rng.random() < 0.5:
                newrow |= 1 << v
                adj[v] |= 1 << g.n
            adj.append(newrow)
            g = Graph.from_adj(adj)
    return g
