"""Simple undirected graphs over vertex indices with bitmask adjacency rows.

A vertex set is an int whose bit i is vertex i.  All operations treat graphs
as immutable: mutators return new graphs, so instances are safe to share
across threads.  The two searches the algorithms keep coming back to work
on a vertex mask of the graph, with no relabelled copy:
``Graph.connected_components(mask)``, its complement-side twin
``Graph.co_components(mask)`` (the components of the complement of
G[mask], found without building the complement), the clique searches
``Graph.cliques(mask, r)`` and ``Graph.max_clique(mask)``, and the
neighbourhood union ``Graph.neighborhood(mask)``.  These take masks
unchecked; public entries elsewhere check a caller's mask once with
``Graph.vertex_mask``.  Every layer's witness passes one check,
``Graph.checked_witness``.  A graph carries no vertex names.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .errors import InternalCheckError


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Undirected graph on vertices 0..n-1, no self-loops.

    ``adj[v]`` is the neighbor bitmask of v; a graph is nothing but ``n``
    and these rows.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = adj

    @classmethod
    def from_adj(cls, adj: list[int]) -> "Graph":
        """Trusted constructor from prebuilt adjacency rows (symmetric, loop-free)."""
        g = object.__new__(cls)
        g.n = len(adj)
        g.adj = list(adj)
        return g

    # -- basic queries ------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertex_mask(self, mask: int | None) -> int:
        """``mask`` once it is known to name vertices of G, or all of G for
        None; a negative mask, or one with vertices outside V(G), is a
        ValueError."""
        if mask is None:
            return (1 << self.n) - 1
        if mask < 0:
            raise ValueError(f"mask {mask} is negative")
        if mask >> self.n:
            raise ValueError(f"mask holds vertices {tuple(bits(mask >> self.n << self.n))} "
                             f"outside the {self.n} vertices of G")
        return mask

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def closed_neighborhood(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def neighborhood(self, mask: int) -> int:
        """The union of the rows of ``mask``: every vertex with a neighbour
        in it (members of ``mask`` included when they have one there)."""
        adj = self.adj
        out = 0
        while mask:
            low = mask & -mask
            out |= adj[low.bit_length() - 1]
            mask ^= low
        return out

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2

    def is_clique_mask(self, mask: int) -> bool:
        """Whether ``mask`` lies inside the common closed neighbourhood of
        its members, that is, its vertices are pairwise adjacent."""
        adj = self.adj
        rest = mask
        while rest:
            low = rest & -rest
            if mask & (adj[low.bit_length() - 1] | low) != mask:
                return False
            rest ^= low
        return True

    def is_independent_mask(self, mask: int) -> bool:
        for v in bits(mask):
            if mask & self.adj[v]:
                return False
        return True

    def is_clique(self, vertices: Iterable[int]) -> bool:
        return self.is_clique_mask(mask_of(vertices))

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        return self.is_independent_mask(mask_of(vertices))

    def checked_witness(self, vertices: Iterable[int], k: int, what: str) -> tuple[int, ...]:
        """``vertices`` as a sorted tuple, once they are known to be at least
        max(k, 0) distinct, pairwise non-adjacent vertices of G.  Anything
        else is a bug of the layer ``what`` names: InternalCheckError."""
        wit = tuple(sorted(vertices))
        inside = not wit or 0 <= wit[0] and wit[-1] < self.n
        if not (len(wit) >= k and inside and len(set(wit)) == len(wit)
                and self.is_independent_mask(mask_of(wit))):
            raise InternalCheckError(f"{what} witness {wit} is not an independent set "
                                     f"of {k} vertices of G")
        return wit

    # -- derived graphs -----------------------------------------------------

    def induced(self, mask: int) -> tuple["Graph", list[int]]:
        """Induced subgraph on the vertices of ``mask``.

        Returns (subgraph, mapping) where mapping[i] is the original index of
        the subgraph's vertex i.
        """
        keep = list(bits(mask))
        pos = {v: i for i, v in enumerate(keep)}
        adj = [0] * len(keep)
        for i, v in enumerate(keep):
            row = self.adj[v] & mask
            for w in bits(row):
                adj[i] |= 1 << pos[w]
        return Graph.from_adj(adj), keep

    def connected_components(self, mask: int | None = None) -> list[int]:
        """Vertex masks of the components of G[mask] (default: the whole
        graph), in order of their smallest member."""
        if mask is None:
            mask = (1 << self.n) - 1
        comps = []
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                frontier = self.neighborhood(frontier) & mask & ~comp
                comp |= frontier
            comps.append(comp)
            mask &= ~comp
        return comps

    def co_components(self, mask: int | None = None) -> list[int]:
        """Vertex masks of the components of the complement of G[mask]
        (default: the whole graph), in order of their smallest member; the
        complement is never built."""
        if mask is None:
            mask = (1 << self.n) - 1
        adj = self.adj
        comps = []
        while mask:
            comp = frontier = mask & -mask
            rest = mask ^ comp
            while frontier and rest:
                low = frontier & -frontier
                frontier ^= low
                reach = rest & ~adj[low.bit_length() - 1]
                rest ^= reach
                frontier |= reach
                comp |= reach
            comps.append(comp)
            mask &= ~comp
        return comps

    def cliques(self, mask: int, r: int) -> Iterator[tuple[int, ...]]:
        """The r-cliques of G[mask] as increasing tuples, in lexicographic
        order."""
        adj = self.adj

        def grow(cur: tuple[int, ...], cands: int):
            if len(cur) == r:
                yield cur
            elif len(cur) + cands.bit_count() >= r:
                for v in bits(cands):
                    yield from grow(cur + (v,), cands & adj[v] & ~((1 << (v + 1)) - 1))

        return grow((), mask)

    def max_clique(self, mask: int | None = None) -> int:
        """Mask of a largest clique of G[mask] (default: the whole graph):
        the first one a depth-first search in vertex order meets."""
        adj = self.adj
        best = best_size = 0

        def grow(cur: int, size: int, cands: int):
            nonlocal best, best_size
            if size > best_size:
                best, best_size = cur, size
            if size + cands.bit_count() <= best_size:
                return
            for v in bits(cands):
                grow(cur | 1 << v, size + 1, cands & adj[v] & ~((1 << (v + 1)) - 1))

        grow(0, 0, (1 << self.n) - 1 if mask is None else mask)
        return best

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


# -- graph algebra ----------------------------------------------------------

def complement(g: Graph) -> Graph:
    full = g.full_mask
    adj = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    return Graph.from_adj(adj)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    return Graph.from_adj(list(g1.adj) + [row << g1.n for row in g2.adj])


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    out = disjoint_union(g1, g2)
    left = (1 << g1.n) - 1
    right = out.full_mask & ~left
    for v in range(g1.n):
        out.adj[v] |= right
    for v in range(g1.n, out.n):
        out.adj[v] |= left
    return out


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)
