import random
from functools import reduce

import pytest

from hfree_mis.graph import disjoint_union, random_graph
from hfree_mis.induced import brute_force_induced, find_induced, is_isomorphic
from hfree_mis.patterns import HPattern, complete, complete_multipartite, cycle, pattern, petersen


def _embedding_is_induced(g, h, emb):
    for a in range(h.n):
        for b in range(a + 1, h.n):
            assert g.has_edge(emb[a], emb[b]) == h.has_edge(a, b)
    assert len(set(emb.values())) == h.n


def test_triangle_free_cycle():
    assert find_induced(cycle(5), pattern("K3")) is None


def test_triangle_in_k4():
    emb = find_induced(pattern("K4").graph, pattern("K3"))
    assert emb is not None
    _embedding_is_induced(pattern("K4").graph, pattern("K3").graph, emb)


def test_petersen_has_c5_not_c4():
    assert find_induced(petersen(), pattern("C4")) is None
    emb = find_induced(petersen(), pattern("C5"))
    assert emb is not None
    _embedding_is_induced(petersen(), pattern("C5").graph, emb)


def test_pattern_cap_rejected():
    with pytest.raises(ValueError):
        find_induced(complete(12), complete(11))


def _check_against_brute_force(g, h, mask=None):
    fast = find_induced(g, h, mask=mask)
    sub = g if mask is None else g.induced(mask)[0]
    assert (fast is not None) == brute_force_induced(sub, h), (g.edges(), h.edges(), mask)
    if fast is not None:
        _embedding_is_induced(g, h, fast)
        if mask is not None:
            assert all(mask >> v & 1 for v in fast.values())
    if h.is_connected():
        # a connected H is searched one component at a time, each as if it
        # were the whole host: the answer is the first component's own
        assert fast == _first_by_component(g, h, mask), (g.edges(), h.edges(), mask)


def _first_by_component(g, h, mask):
    for comp in g.connected_components(mask):
        piece, keep = g.induced(comp)
        emb = find_induced(piece, h)
        if emb is not None:
            return {p: keep[v] for p, v in emb.items()}
    return None


def _pieces(h, rng):
    """Two to four pieces for a disjoint union: dense pieces (p 0.6-0.95),
    pieces with fewer vertices than H, and pieces of exactly |H| vertices,
    half of them a relabelled copy of H."""
    out = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            out.append(random_graph(rng.randint(h.n, 5), rng.uniform(0.6, 0.95), rng))
        elif kind == 1:
            out.append(random_graph(rng.randint(1, h.n - 1), rng.random(), rng))
        elif rng.random() < 0.5:
            perm = list(range(h.n))
            rng.shuffle(perm)
            out.append(h.relabel(perm))
        else:
            out.append(random_graph(h.n, rng.random(), rng))
    return out


SMALL = ("K3", "P4", "C4", "claw", "paw", "2K2", "K3+K1")
# twin classes of two or three vertices cover most of these
TWIN_RICH = ("claw", "2K2", "C4", "K5-K2", "K6-K3")


def test_agrees_with_brute_force():
    """Hosts of any density; hosts denser than 1/2, which are searched in
    the complement's order; random masks, which restrict the search to the
    subgraph they induce; patterns rich in twins, where a vertex with a
    twin placed earlier only takes host vertices above the twin's image;
    and disjoint unions of dense pieces, small pieces and pieces of exactly
    |H| vertices, whole or cut by masks, where a connected H is searched
    per component in the order of that component's own density."""
    rng = random.Random(9)
    small = [pattern(p).graph for p in SMALL]
    for _ in range(60):
        g = random_graph(rng.randrange(1, 13), rng.random(), rng)
        for h in small:
            _check_against_brute_force(g, h)
    for _ in range(40):
        g = random_graph(rng.randrange(4, 13), rng.uniform(0.6, 0.95), rng)
        for h in small:
            _check_against_brute_force(g, h)
    for _ in range(40):
        n = rng.randrange(1, 16)
        g = random_graph(n, rng.random(), rng)
        mask = rng.getrandbits(n)
        for h in small:
            _check_against_brute_force(g, h, mask)
    twin_rich = [pattern(p).graph for p in TWIN_RICH]
    for _ in range(30):
        n = rng.randrange(4, 10)
        g = random_graph(n, rng.choice([rng.random(), rng.uniform(0.6, 0.95)]), rng)
        mask = rng.getrandbits(n) if rng.random() < 0.3 else None
        for h in twin_rich:
            _check_against_brute_force(g, h, mask)
    for _ in range(12):
        for h in small:
            g = reduce(disjoint_union, _pieces(h, rng))
            _check_against_brute_force(g, h)
            _check_against_brute_force(g, h, rng.getrandbits(g.n))


CONNECTED = ("P4", "C4", "claw", "paw", "bull", "gem", "K5-K2")


def test_union_answers_piece_by_piece():
    """On a disjoint union, a connected H is found exactly when some piece
    holds it, and the copy found lies inside one piece."""
    rng = random.Random(14)
    hits = misses = 0
    for _ in range(40):
        pieces = [random_graph(rng.randint(1, 9), rng.choice([rng.uniform(0.1, 0.5),
                                                              rng.uniform(0.6, 0.95)]), rng)
                  for _ in range(rng.randint(2, 4))]
        g = reduce(disjoint_union, pieces)
        piece_of = [i for i, piece in enumerate(pieces) for _ in range(piece.n)]
        for name in CONNECTED:
            h = pattern(name).graph
            emb = find_induced(g, h)
            in_pieces = [find_induced(piece, h) for piece in pieces]
            assert (emb is None) == all(e is None for e in in_pieces), (name, g.edges())
            if emb is None:
                misses += 1
                continue
            hits += 1
            _embedding_is_induced(g, h, emb)
            assert len({piece_of[v] for v in emb.values()}) == 1, (name, g.edges(), emb)
    assert hits >= 40 and misses >= 40, (hits, misses)


def test_gem_misses_multipartite_pieces():
    """Four complete 4-partite pieces of about 20 vertices: sparse as a
    whole, dense inside each piece, and gem-free (each piece is a cograph)."""
    rng = random.Random(15)
    pieces = [complete_multipartite([rng.randint(2, 8) for _ in range(4)]) for _ in range(4)]
    g = reduce(disjoint_union, pieces)
    assert 2 * g.edge_count() < g.n * (g.n - 1) // 2
    assert find_induced(g, pattern("gem")) is None
    assert find_induced(g, pattern("C4")) is not None


def test_mask_outside_the_host_is_rejected():
    g = cycle(5)
    with pytest.raises(ValueError, match=r"\(5, 7\)"):
        find_induced(g, pattern("P3"), mask=0b10100011)
    with pytest.raises(ValueError, match="negative"):
        find_induced(g, pattern("P3"), mask=-1)
    assert find_induced(g, pattern("P3"), mask=g.full_mask) is not None


def test_embedding_is_keyed_in_pattern_order():
    """The embedding lists H's vertices in H's order, whatever order the
    search placed them in, on sparse and on dense hosts."""
    rng = random.Random(12)
    hits = 0
    for p in (0.3, 0.8):
        for name in ("P4", "paw", "bull", "gem", "K5-K2"):
            h = pattern(name).graph
            for _ in range(5):
                g = random_graph(14, p, rng)
                emb = find_induced(g, h)
                if emb is None:
                    continue
                hits += 1
                assert list(emb) == list(range(h.n))
                images = tuple(emb.values())
                for a in range(h.n):
                    for b in range(a + 1, h.n):
                        assert g.has_edge(images[a], images[b]) == h.has_edge(a, b)
    assert hits >= 30, hits


def test_isomorphism_basics():
    assert is_isomorphic(cycle(5), cycle(5))
    assert not is_isomorphic(cycle(5), pattern("P5").graph)
    assert is_isomorphic(pattern("K3-K1,1").graph, pattern("P3").graph)
