"""Builders for structured rainbow instances with planted solutions.

Each builder assembles a FaugInstance satisfying the structural invariants
by construction, embeds a transversal independent set, and verifies the
host graph is free of the matching forbidden pattern before returning, so
solver tests exercise exactly the promised preconditions.
"""

from __future__ import annotations

import random

from hfree_mis.errors import InternalCheckError
from hfree_mis.graph import Graph, mask_of
from hfree_mis.induced import find_induced
from hfree_mis.iterexp import FaugInstance, RamseyCliques
from hfree_mis.patterns import clique_minus_bipartite, clique_minus_clique, pattern


def _build_graph(n: int, edges: set[tuple[int, int]]) -> Graph:
    return Graph(n, sorted(edges))


def _check_planted(g: Graph, planted: tuple[int, ...]) -> None:
    if not g.is_independent_set(planted):
        raise InternalCheckError(f"planted set {planted} is not independent")


def planted_path_instance(k: int, r: int, rng: random.Random,
                          part_size: int = 3, long_edges: int = 2):
    """Instance for the clique-minus-triangle solver: parts are cliques on a
    path of extracted cliques with empty pairwise relations; the planted
    transversal is the only non-edge between consecutive parts, and a few
    long edges land on non-planted vertices.

    Returns (instance, planted vertices).  Host is K_{r+3}-minus-triangle
    free by construction (verified).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    n = 0
    cliques = []
    for _p in range(k - 1):
        cliques.append(tuple(range(n, n + r)))
        n += r
    parts = []
    for _i in range(k):
        parts.append(tuple(range(n, n + part_size)))
        n += part_size

    edges: set[tuple[int, int]] = set()

    def add(u, v):
        if u != v:
            edges.add((min(u, v), max(u, v)))

    for cl in cliques:
        for a in range(r):
            for b in range(a + 1, r):
                add(cl[a], cl[b])
    for p in parts:
        for a in range(len(p)):
            for b in range(a + 1, len(p)):
                add(p[a], p[b])
    # path bipartite graph: part i sees cliques i-1 and i completely
    for i, p in enumerate(parts):
        for ci in (i - 1, i):
            if 0 <= ci < k - 1:
                for u in p:
                    for w in cliques[ci]:
                        add(u, w)
    planted = tuple(p[0] for p in parts)
    # consecutive parts: complete except the planted pair
    for i in range(k - 1):
        for u in parts[i]:
            for w in parts[i + 1]:
                if (u, w) != (planted[i], planted[i + 1]):
                    add(u, w)
    # a few long edges between middle parts, avoiding the planted transversal;
    # endpoints stay distinct so no vertex sees a whole part across a long gap
    middle = [i for i in range(1, k - 1)]
    attempts = 0
    placed = 0
    used_ends: set[int] = set()
    while placed < long_edges and attempts < 50 and len(middle) >= 2:
        attempts += 1
        i, j = sorted(rng.sample(middle, 2))
        if j - i < 2:
            continue
        u = rng.choice(parts[i][1:])
        w = rng.choice(parts[j][1:])
        if u in used_ends or w in used_ends:
            continue
        add(u, w)
        used_ends.update((u, w))
        placed += 1

    g = _build_graph(n, edges)
    forbidden = clique_minus_clique(r + 3, 3)
    if find_induced(g, forbidden) is not None:
        raise InternalCheckError("builder produced a non-free host")
    rc = RamseyCliques.build(g, tuple(cliques))
    inst = FaugInstance.build(g, k, tuple(mask_of(p) for p in parts), rc)
    _check_planted(g, planted)
    return inst, planted


def planted_bipartite_instance(k: int, r: int, rng: random.Random,
                               part_size: int = 2, max_tries: int = 200):
    """Instance for the clique-minus-complete-bipartite solver: every part
    sees every extracted 3r-clique, clique relations are full, and the part
    union keeps a planted transversal while staying free of two disjoint
    r-cliques with no cross edges.

    Returns (instance, planted vertices)."""
    if k < 2:
        raise ValueError("need k >= 2")
    forbidden = clique_minus_bipartite(3 * r, r, r)
    for _try in range(max_tries):
        n = 0
        cliques = []
        for _p in range(k - 1):
            cliques.append(tuple(range(n, n + 3 * r)))
            n += 3 * r
        parts = []
        for _i in range(k):
            parts.append(tuple(range(n, n + part_size)))
            n += part_size

        edges: set[tuple[int, int]] = set()

        def add(u, v):
            if u != v:
                edges.add((min(u, v), max(u, v)))

        for cl in cliques:
            for a in range(3 * r):
                for b in range(a + 1, 3 * r):
                    add(cl[a], cl[b])
        # full relations between cliques: everything except equal columns
        for pa in range(k - 1):
            for pb in range(pa + 1, k - 1):
                for x in range(3 * r):
                    for y in range(3 * r):
                        if x != y:
                            add(cliques[pa][x], cliques[pb][y])
        for p in parts:
            for a in range(len(p)):
                for b in range(a + 1, len(p)):
                    add(p[a], p[b])
        for p in parts:
            for cl in cliques:
                for u in p:
                    for w in cl:
                        add(u, w)
        planted = tuple(p[0] for p in parts)
        # dense cross edges among parts, sparing the planted transversal
        for i in range(k):
            for j in range(i + 1, k):
                for u in parts[i]:
                    for w in parts[j]:
                        if u in planted and w in planted:
                            continue
                        if rng.random() < 0.8:
                            add(u, w)
        g = _build_graph(n, edges)
        if find_induced(g, forbidden) is not None:
            continue
        rc = RamseyCliques.build(g, tuple(cliques))
        inst = FaugInstance.build(g, k, tuple(mask_of(p) for p in parts), rc)
        _check_planted(g, planted)
        return inst, planted
    raise RuntimeError("could not sample a free host")


def planted_gem_instance(k: int, rng: random.Random, part_size: int = 4):
    """Instance for the gem solver: single-vertex extracted cliques on a
    path-shaped bipartite graph; each part is two cliques, and the second
    cliques of consecutive parts are fully joined, so every adjacent part
    pair lacks a balanced diamond and the branching rule has work to do.

    Returns (instance, planted vertices)."""
    if k < 2:
        raise ValueError("need k >= 2")
    gem = pattern("gem")
    n = k - 1  # centers first
    centers = tuple(range(k - 1))
    parts = []
    sizes = [max(2, part_size + rng.randrange(-1, 2)) for _ in range(k)]
    for i in range(k):
        parts.append(tuple(range(n, n + sizes[i])))
        n += sizes[i]

    edges: set[tuple[int, int]] = set()

    def add(u, v):
        if u != v:
            edges.add((min(u, v), max(u, v)))

    # part i dominated by centers i-1 and i: a path-shaped bipartite graph
    for i, p in enumerate(parts):
        for ci in (i - 1, i):
            if 0 <= ci < k - 1:
                for u in p:
                    add(u, centers[ci])
    blocks = []
    for p in parts:
        half = len(p) // 2
        first, second = p[:half], p[half:]
        blocks.append((first, second))
        for block in (first, second):
            for a in range(len(block)):
                for b in range(a + 1, len(block)):
                    add(block[a], block[b])
    # joining consecutive second blocks keeps each pair union a cluster,
    # hence gem-free, while the pair has cross edges and no balanced diamond
    for i in range(k - 1):
        for u in blocks[i][1]:
            for w in blocks[i + 1][1]:
                add(u, w)
    planted = tuple(b[0][0] for b in blocks)

    g = _build_graph(n, edges)
    if find_induced(g, gem) is not None:
        raise InternalCheckError("builder produced a gem")
    singles = tuple((c,) for c in centers)
    rc = RamseyCliques.build(g, singles)
    inst = FaugInstance.build(g, k, tuple(mask_of(p) for p in parts), rc)
    _check_planted(g, planted)
    return inst, planted
