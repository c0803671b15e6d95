import random
from itertools import combinations

import pytest

from hfree_mis.errors import InternalCheckError
from hfree_mis.graph import Graph, bits, complement, disjoint_union, join, mask_of, random_graph
from hfree_mis.oracle import alpha_exact
from hfree_mis.patterns import complete, empty_graph, pattern


def test_no_self_loops():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_edge_range_checked():
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


def test_adjacency_symmetric():
    rng = random.Random(0)
    for _ in range(20):
        g = random_graph(8, 0.4, rng)
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)
            assert not g.has_edge(u, u)


def test_join_of_single_vertices_is_edge():
    g = join(empty_graph(1), empty_graph(1))
    assert g.n == 2 and g.has_edge(0, 1)


def test_complement_involution():
    rng = random.Random(1)
    for _ in range(25):
        g = random_graph(rng.randrange(1, 13), rng.random(), rng)
        assert complement(complement(g)) == g


def test_union_of_two_edges_alpha():
    g = disjoint_union(complete(2), complete(2))
    assert alpha_exact(g).alpha == 2


def test_join_alpha_is_max():
    rng = random.Random(2)
    for _ in range(25):
        g1 = random_graph(rng.randrange(1, 11), rng.random(), rng)
        g2 = random_graph(rng.randrange(1, 11), rng.random(), rng)
        a = alpha_exact(join(g1, g2)).alpha
        assert a == max(alpha_exact(g1).alpha, alpha_exact(g2).alpha)


def test_disjoint_union_alpha_is_sum():
    rng = random.Random(3)
    for _ in range(25):
        g1 = random_graph(rng.randrange(1, 11), rng.random(), rng)
        g2 = random_graph(rng.randrange(1, 11), rng.random(), rng)
        a = alpha_exact(disjoint_union(g1, g2)).alpha
        assert a == alpha_exact(g1).alpha + alpha_exact(g2).alpha


def _connected_by_pairs(g, vertices):
    """Connectivity of g[vertices] by growing a reached list edge by edge."""
    reached = [vertices[0]]
    for u in reached:
        for w in vertices:
            if w not in reached and g.has_edge(u, w):
                reached.append(w)
    return len(reached) == len(vertices)


def test_components_partition_vertices():
    # every mask of seeded graphs with n <= 10, against brute force
    rng = random.Random(4)
    for n in list(range(1, 11)) + [8, 9, 10]:
        g = random_graph(n, rng.choice((0.15, 0.3, 0.5, 0.7)), rng)
        assert g.connected_components() == g.connected_components(g.full_mask)
        is_clique = [g.is_clique_mask(m) for m in range(1 << n)]
        omega = [0] * (1 << n)
        for mask in range(1, 1 << n):
            omega[mask] = mask.bit_count() if is_clique[mask] else max(
                omega[mask & ~(1 << v)] for v in bits(mask))
        for mask in range(1 << n):
            comps = g.connected_components(mask)
            total = 0
            for c in comps:
                assert c and total & c == 0
                assert _connected_by_pairs(g, list(bits(c)))
                total |= c
            assert total == mask
            for i, c in enumerate(comps):
                for d in comps[i + 1:]:
                    assert not any(g.adj[v] & d for v in bits(c))
            lows = [c & -c for c in comps]
            assert lows == sorted(lows)
            for r in range(1, 5):
                expected = [t for t in combinations(bits(mask), r) if is_clique[mask_of(t)]]
                assert list(g.cliques(mask, r)) == expected
            best = g.max_clique(mask)
            assert best & ~mask == 0 and is_clique[best] and best.bit_count() == omega[mask]


def test_clique_mask_matches_pairwise_definition():
    # every mask of seeded graphs with n <= 10, the empty mask and the
    # singletons included: a clique is a set of pairwise adjacent vertices
    rng = random.Random(5)
    assert Graph(0).is_clique_mask(0)
    largest = 0
    for n in list(range(1, 11)) + [9, 10]:
        g = random_graph(n, rng.choice((0.3, 0.5, 0.7, 0.9)), rng)
        for mask in range(1 << n):
            pairwise = all(g.has_edge(u, v) for u, v in combinations(bits(mask), 2))
            assert g.is_clique_mask(mask) == pairwise
            largest = max(largest, mask.bit_count() if pairwise else 0)
    assert largest >= 5


def _masks(g, rng):
    yield None
    yield 0
    yield g.full_mask
    for _ in range(4):
        yield rng.getrandbits(g.n)


def test_checked_witness_accepts_only_independent_sets_of_g():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])   # P3 + K2
    assert g.checked_witness(iter((3, 2, 0)), 3, "test") == (0, 2, 3)
    assert g.checked_witness((2, 0, 4), 2, "test") == (0, 2, 4)    # more than k is fine
    assert g.checked_witness((), 0, "test") == g.checked_witness((), -1, "test") == ()
    for bad, k in (((0, 1), 2), ((0, 2), 3), ((0, 0, 2), 3), ((0, 5), 2), ((-1, 2), 2)):
        with pytest.raises(InternalCheckError, match=r"^test witness"):
            g.checked_witness(bad, k, "test")


def test_co_components_are_the_complements_components():
    rng = random.Random(41)
    for _ in range(150):
        g = random_graph(rng.randrange(0, 41), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng)
        co = complement(g)
        for mask in _masks(g, rng):
            assert g.co_components(mask) == co.connected_components(mask)


def test_neighborhood_is_the_union_of_rows():
    rng = random.Random(42)
    for _ in range(150):
        g = random_graph(rng.randrange(0, 41), rng.choice((0.1, 0.3, 0.5)), rng)
        for mask in _masks(g, rng):
            mask = g.vertex_mask(mask)
            union = 0
            for v in range(g.n):
                if mask >> v & 1:
                    union |= g.adj[v]
            assert g.neighborhood(mask) == union


def test_induced_subgraph_keeps_edges():
    g = pattern("C5").graph
    sub, kept = g.induced(mask_of([0, 1, 3]))
    assert sub.n == 3
    for i in range(3):
        for j in range(3):
            if i != j:
                assert sub.has_edge(i, j) == g.has_edge(kept[i], kept[j])


def test_bits_round_trip():
    m = mask_of([0, 3, 7])
    assert list(bits(m)) == [0, 3, 7]
