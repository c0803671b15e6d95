import hashlib
import random
from itertools import combinations

import pytest

from hfree_mis.classify import join_factors

from hfree_mis.graph import Graph, complement, disjoint_union, random_graph
from hfree_mis.induced import is_isomorphic
from hfree_mis.patterns import (
    HPattern,
    clique_minus_bipartite,
    clique_minus_clique,
    clique_minus_star,
    cluster,
    complete,
    cycle,
    parse_pattern,
    path,
    pattern,
    recognize_family,
    star,
    t_spider,
)


def test_named_patterns_shapes():
    assert pattern("claw").graph == star(3)
    assert is_isomorphic(pattern("paw").graph, clique_minus_star(4, 2))
    assert is_isomorphic(pattern("diamond").graph, clique_minus_clique(4, 2))
    gem = pattern("gem").graph
    assert gem.n == 5 and gem.edge_count() == 7
    assert sorted(gem.degree(v) for v in range(5)) == [2, 2, 3, 3, 4]
    cricket = pattern("cricket").graph
    assert is_isomorphic(cricket, t_spider(1, 1, 2))
    assert pattern("2K2").graph == cluster(2, 2)
    assert is_isomorphic(pattern("K3+K1").graph, disjoint_union(complete(3), complete(1)))


def test_clique_minus_constructions():
    # removing a spanning star isolates the center
    g = clique_minus_star(4, 3)
    assert is_isomorphic(g, disjoint_union(complete(3), complete(1)))
    # removing one edge from the triangle gives the path
    assert is_isomorphic(clique_minus_clique(3, 2), path(3))
    # complete bipartite removal: ends see the middle, not each other
    g = clique_minus_bipartite(5, 1, 2)
    assert g.n == 5 and g.edge_count() == 10 - 2


def test_pattern_cap():
    with pytest.raises(ValueError):
        HPattern(complete(11))


def test_parse_edge_list():
    h = parse_pattern("n:4;e:0-1,1-2")
    assert h.graph.n == 4 and h.graph.edge_count() == 2
    h = parse_pattern("n:3")
    assert h.graph.n == 3 and h.graph.edge_count() == 0


def test_recognize_families():
    assert recognize_family(complete(5)).kind == "complete"
    m = recognize_family(cluster(3, 2))
    assert m.kind == "cluster" and m.params == (3, 2)
    m = recognize_family(clique_minus_clique(5, 2))
    assert m.kind == "clique_minus_clique" and m.params == (5, 2)
    m = recognize_family(clique_minus_clique(6, 3))
    assert m.kind == "clique_minus_clique" and m.params == (6, 3)
    m = recognize_family(clique_minus_bipartite(6, 2, 2))
    assert m.kind == "clique_minus_bipartite" and m.params == (6, 2, 2)
    m = recognize_family(clique_minus_star(5, 2))
    assert m.kind == "clique_minus_bipartite" and m.params == (5, 1, 2)
    assert recognize_family(pattern("gem").graph).kind == "gem"
    assert recognize_family(cycle(4)) is None
    assert recognize_family(pattern("cricket").graph) is None
    # a disconnected cluster stays a cluster even when its complement is a star
    m = recognize_family(disjoint_union(complete(4), complete(1)))
    assert m.kind == "cluster" and m.params == (4, 2)


# sha256 over the records of test_family_recognition_is_pinned, recorded
# while both functions still built H's complement
PINNED_FAMILIES = "8bd95416aefddf17b881e09f1e967208249eb5e5310739ea7affd1c4088cb442"


def test_family_recognition_is_pinned():
    """recognize_family and join_factors on every labelled graph with at
    most five vertices and on 3,000 seeded graphs with 6-8 vertices."""
    graphs = [Graph(n, [e for i, e in enumerate(combinations(range(n), 2)) if sel >> i & 1])
              for n in range(6) for sel in range(1 << n * (n - 1) // 2)]
    rng = random.Random(13)
    graphs += [random_graph(rng.randrange(6, 9), rng.random(), rng) for _ in range(3000)]
    total = hashlib.sha256()
    for g in graphs:
        fam = recognize_family(g)
        record = (tuple(g.adj), None if fam is None else (fam.kind, fam.params),
                  [tuple(f.adj) for f in join_factors(g)])
        total.update(repr(record).encode())
    assert total.hexdigest() == PINNED_FAMILIES
