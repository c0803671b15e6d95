"""The benchmark's own input generators and answer checks.

Nothing here imports the package under test: inputs are plain edge lists
and tile tuples, and every check (independence, induced embeddings, tiling
feasibility) is re-implemented, so a change to the package can move neither
the inputs nor the gate that judges its answers.
"""

from __future__ import annotations

import itertools
import random

# -- graphs as (n, edges, adjacency masks) ------------------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def edges_of(adj: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]


def gnm(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform graph with exactly round(p * n(n-1)/2) edges.  A fixed edge
    count removes the density spread of G(n, p), a large share of the
    run-to-run spread in search cost."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def relabel(edges, perm) -> list[tuple[int, int]]:
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def plant(n: int, edges, h_adj: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """Force an induced copy of H on |H| random vertices of the host."""
    spots = rng.sample(range(n), len(h_adj))
    inside = set(spots)
    kept = [(u, v) for u, v in edges if not (u in inside and v in inside)]
    for a in range(len(h_adj)):
        for b in range(a + 1, len(h_adj)):
            if h_adj[a] >> b & 1:
                u, v = spots[a], spots[b]
                kept.append((min(u, v), max(u, v)))
    return sorted(kept)


# Hosts that exclude a pattern by construction, for exhaustive misses.

def k4_free(n: int, p: float, rng: random.Random):
    """Random 3-partite graph: every clique has at most 3 vertices."""
    colour = [rng.randrange(3) for _ in range(n)]
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if colour[u] != colour[v] and rng.random() < p]


def complete_multipartite(n: int, parts: int, rng: random.Random):
    """Excludes every pattern with an induced K2 + K1 (paw, P4, gem)."""
    side = [rng.randrange(parts) for _ in range(n)]
    return [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]


def multipartite_pieces(n: int, piece: int, parts: int, rng: random.Random):
    """Disjoint complete multipartite graphs of about ``piece`` vertices:
    a cograph, so no P4 and no gem, whose dense pieces keep the search busy."""
    piece_of = [v // piece for v in range(n)]
    side = [rng.randrange(parts) for _ in range(n)]
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if piece_of[u] == piece_of[v] and side[u] != side[v]]


def co_bipartite(n: int, p: float, rng: random.Random):
    """Complement of a random bipartite graph: no three independent
    vertices, so no claw."""
    side = [rng.randrange(2) for _ in range(n)]
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if side[u] == side[v] or rng.random() >= p]


def split_graph(n: int, p: float, rng: random.Random):
    """Clique plus independent set with random cross edges: no C4, no 2K2."""
    in_clique = [rng.random() < 0.5 for _ in range(n)]
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if (in_clique[u] and in_clique[v])
            or (in_clique[u] != in_clique[v] and rng.random() < p)]


# -- answer checks -------------------------------------------------------------


def is_independent(adj: list[int], vertices) -> bool:
    mask = 0
    for v in vertices:
        if not 0 <= v < len(adj) or mask >> v & 1:
            return False
        mask |= 1 << v
    return all(not adj[v] & mask for v in vertices)


def is_induced_copy(adj: list[int], h_adj: list[int], embedding: dict[int, int]) -> bool:
    """Does ``embedding`` (pattern vertex -> host vertex) induce H?"""
    if sorted(embedding) != list(range(len(h_adj))):
        return False
    image = [embedding[a] for a in range(len(h_adj))]
    if len(set(image)) != len(image) or not all(0 <= v < len(adj) for v in image):
        return False
    return all((h_adj[a] >> b & 1) == (adj[image[a]] >> image[b] & 1)
               for a in range(len(h_adj)) for b in range(a + 1, len(h_adj)))


def greedy_lower(adj: list[int]) -> int:
    """Size of a min-degree greedy independent set: a lower bound on alpha."""
    cands = (1 << len(adj)) - 1
    size = 0
    while cands:
        v = min((w for w in range(len(adj)) if cands >> w & 1),
                key=lambda w: (adj[w] & cands).bit_count())
        cands &= ~(adj[v] | 1 << v)
        size += 1
    return size


def cover_upper(adj: list[int]) -> int:
    """Classes of a first-fit clique cover: an upper bound on alpha."""
    classes: list[int] = []
    for v in range(len(adj)):
        for i, cls in enumerate(classes):
            if cls & ~adj[v] == 0:
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


# -- grid tilings --------------------------------------------------------------


def tiling(k: int, m: int, n_t: int, rng: random.Random, planted: bool):
    """Tiles as tuples of (row value, column value) pairs; a planted tiling
    holds the pairs of one feasible choice."""
    universe = [(a, b) for a in range(m) for b in range(m)]
    rows = [rng.randrange(m) for _ in range(k)]
    cols = [rng.randrange(m) for _ in range(k)]
    tiles = []
    for i in range(k):
        row = []
        for j in range(k):
            forced = {(rows[i], cols[j])} if planted else set()
            pool = [pair for pair in universe if pair not in forced]
            rng.shuffle(pool)
            row.append(tuple(sorted(forced | set(pool[: n_t - len(forced)]))))
        tiles.append(tuple(row))
    return tuple(tiles)


def feasible(tiles, m: int) -> bool:
    """Exhaustive feasibility.  First coordinates agree along each (toroidal)
    row and second coordinates along each column, so a solution is one value
    per row and one per column with (row value, column value) in every tile.
    Once the row values are fixed the columns no longer interact, so each
    column needs only one value that every tile in it allows."""
    k = len(tiles)
    # allowed[i][j][a]: bit b set when tile (i, j) holds the pair (a, b)
    allowed = [[[0] * m for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            for a, b in tiles[i][j]:
                allowed[i][j][a] |= 1 << b
    for rows in itertools.product(range(m), repeat=k):
        for j in range(k):
            common = (1 << m) - 1
            for i in range(k):
                common &= allowed[i][j][rows[i]]
            if not common:
                break
        else:
            return True
    return False


# -- every graph on at most six vertices -----------------------------------------


def _canonical(adj: list[int]) -> tuple:
    """Smallest upper-triangle code over the orderings that respect a degree
    refinement; equal for isomorphic graphs."""
    n = len(adj)
    deg = [a.bit_count() for a in adj]
    key = [(deg[v], tuple(sorted(deg[w] for w in range(n) if adj[v] >> w & 1))) for v in range(n)]
    classes: dict = {}
    for v in range(n):
        classes.setdefault(key[v], []).append(v)
    order = sorted(classes)
    best = None
    for combo in itertools.product(*[itertools.permutations(classes[c]) for c in order]):
        seq = [v for grp in combo for v in grp]
        code = 0
        bit = 0
        for i in range(n):
            for j in range(i + 1, n):
                if adj[seq[i]] >> seq[j] & 1:
                    code |= 1 << bit
                bit += 1
        if best is None or code < best:
            best = code
    return (n, tuple(order), best)


def small_graphs(max_n: int = 6) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """One representative per isomorphism class with 1..max_n vertices, as
    (key, n, edges), in a fixed order; 208 classes for max_n = 6."""
    out = []
    level = [[0]]
    out.append(("1:0", 1, []))
    for n in range(2, max_n + 1):
        seen: dict = {}
        for adj in level:
            for s in range(1 << (n - 1)):
                grown = [a | (1 << (n - 1) if s >> w & 1 else 0) for w, a in enumerate(adj)] + [s]
                code = _canonical(grown)
                if code not in seen:
                    seen[code] = grown
        level = list(seen.values())
        for code, adj in seen.items():
            out.append((f"{n}:{code[2]}", n, edges_of(adj)))
    return out
