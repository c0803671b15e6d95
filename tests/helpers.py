"""Shared samplers and small utilities for the test suite."""

from __future__ import annotations

import random
from itertools import combinations, permutations

from hfree_mis.graph import Graph, disjoint_union, join, random_graph
from hfree_mis.induced import find_induced
from hfree_mis.patterns import HPattern, complete


def random_graphs(count: int, max_n: int, seed: int, densities=(0.15, 0.3, 0.5, 0.7)):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        yield random_graph(n, rng.choice(densities), rng), rng


def sample_hfree(pattern: HPattern | Graph, count: int, max_n: int, seed: int,
                 densities=(0.1, 0.2, 0.3), max_tries: int = 20000):
    """Up to ``count`` random graphs verified free of the pattern."""
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count and tries < max_tries:
        tries += 1
        n = rng.randrange(1, max_n + 1)
        g = random_graph(n, rng.choice(densities), rng)
        if find_induced(g, pattern) is None:
            out.append(g)
    return out


def near_clique(rng: random.Random, extra: tuple[int, int], p: float) -> Graph:
    """A clique of 26-30 vertices and ``randrange(*extra)`` more vertices,
    each missing at most two of it and adjacent to each earlier extra vertex
    with probability p: the Turing kernel's emitting case when K5-K1,3-free."""
    c, b = rng.randrange(26, 31), rng.randrange(*extra)
    edges = complete(c).edges()
    for u in range(c, c + b):
        miss = set(rng.sample(range(c), rng.choice((0, 1, 2))))
        edges += [(u, x) for x in range(c) if x not in miss]
        edges += [(u, w) for w in range(c, u) if rng.random() < p]
    return Graph(c + b, edges)


def is_witness(g: Graph, witness, k: int) -> bool:
    """``witness`` is max(k, 0) distinct vertices, independent in G."""
    return len(set(witness)) == len(witness) == max(k, 0) and g.is_independent_set(witness)


def check_yes_witness(g: Graph, out, k: int) -> None:
    """A yes carries an independent witness of exactly max(k, 0) vertices."""
    assert is_witness(g, out.witness, k), (out.method, out.witness, k)


def random_cograph(n_ops: int, rng) -> Graph:
    """Random cograph grown by union/join of random smaller pieces."""
    g = Graph(1)
    for _ in range(n_ops):
        h = Graph(1)
        if rng.random() < 0.5:
            g = disjoint_union(g, h)
        else:
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


def brute_force_induced(g: Graph, h: Graph) -> bool:
    """Independent oracle: try every |V(h)|-subset and every bijection."""
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
