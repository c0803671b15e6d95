import random

import pytest

from hfree_mis.graph import random_graph
from hfree_mis.induced import brute_force_induced, find_induced, is_isomorphic
from hfree_mis.patterns import HPattern, complete, cycle, pattern, petersen


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


SMALL = ("K3", "P4", "C4", "claw", "paw", "2K2", "K3+K1")
# twin classes of two or three vertices cover most of these
TWIN_RICH = ("claw", "2K2", "C4", "K5-K2", "K6-K3")


def test_agrees_with_brute_force():
    """Hosts of any density; hosts denser than 1/2, which are searched in
    the complement's order; random masks, which restrict the search to the
    subgraph they induce; and patterns rich in twins, where a vertex with
    a twin placed earlier only takes host vertices above the twin's image."""
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
