"""Cograph (P4-free) tools via complement-components recursion.

Cographs are exactly the graphs whose every induced subgraph on >= 2
vertices is disconnected or has a disconnected complement (Corneil, Lerchs
& Stewart Burlingham, DAM 1981); alpha and a minimum clique cover fall out
of the same recursion.  Each step splits a vertex mask with
``Graph.connected_components`` or ``Graph.co_components``, so no
complement is ever built.  Cographs are perfect, so the cover size equals
alpha; every call checks that.
"""

from __future__ import annotations

from .errors import InternalCheckError, PatternViolationError
from .graph import Graph, bits


def find_p4(g: Graph, mask: int | None = None) -> tuple[int, ...] | None:
    """Some induced P4 inside ``mask`` (as an ordered path), or None."""
    mask = g.vertex_mask(mask)
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


def _cotree_split(g: Graph, mask: int) -> tuple[str, list[int]]:
    """Split a vertex mask into union parts or join parts.

    Returns ("union", comps) when g[mask] is disconnected, ("join", comps)
    when its complement is disconnected, and raises otherwise (not a
    cograph) with an induced P4 witness.
    """
    comps = g.connected_components(mask)
    if len(comps) > 1:
        return "union", comps
    co_comps = g.co_components(mask)
    if len(co_comps) > 1:
        return "join", co_comps
    p4 = find_p4(g, mask)
    if p4 is None:
        raise InternalCheckError("graph and complement both connected, yet no induced P4")
    raise PatternViolationError("P4", p4, "not a cograph")


def cograph_decompose(g: Graph, mask: int | None = None) -> tuple[int, int, list[int]]:
    """(alpha, witness mask, minimum clique cover as a list of masks) of a
    P4-free G[mask] from one cotree recursion; raises on a P4.

    The three certify each other, checked on every call: the witness is an
    independent set inside ``mask``, the cover classes are cliques whose
    union is ``mask``, and the cover has as many classes as the witness has
    vertices.
    """
    mask = g.vertex_mask(mask)

    def rec(m: int) -> tuple[int, int, list[int]]:
        if m.bit_count() <= 1:
            return m.bit_count(), m, [m] if m else []
        kind, parts = _cotree_split(g, m)
        subs = [rec(p) for p in parts]
        if kind == "union":
            total, wit, cover = 0, 0, []
            for a, w, c in subs:
                total += a
                wit |= w
                cover.extend(c)
            return total, wit, cover
        # join: alpha from the best side; cliques merge pairwise across sides
        best, bw, cover = -1, 0, []
        for a, w, c in subs:
            if a > best:
                best, bw = a, w
            cover = [(cover[i] if i < len(cover) else 0) | (c[i] if i < len(c) else 0)
                     for i in range(max(len(cover), len(c)))]
        return best, bw, cover

    if not mask:
        return 0, 0, []
    alpha, wit, cover = rec(mask)
    if wit.bit_count() != alpha or wit & ~mask or not g.is_independent_mask(wit):
        raise InternalCheckError(f"cotree witness {tuple(bits(wit))} is not an "
                                 f"independent set of size {alpha} in the mask")
    covered = 0
    for cls in cover:
        if not g.is_clique_mask(cls):
            raise InternalCheckError(f"cover class {tuple(bits(cls))} is not a clique")
        covered |= cls
    if covered != mask:
        raise InternalCheckError(f"cover classes miss vertices {tuple(bits(mask & ~covered))}")
    if len(cover) != alpha:
        raise InternalCheckError(f"clique cover of size {len(cover)} but alpha is {alpha}")
    return alpha, wit, cover


def cograph_alpha(g: Graph, mask: int | None = None) -> tuple[int, int]:
    """(alpha, witness mask) of a P4-free graph; raises on a P4."""
    alpha, wit, _ = cograph_decompose(g, mask)
    return alpha, wit

