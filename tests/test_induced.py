import hashlib
import random
from functools import reduce

import pytest

from hfree_mis.graph import Graph, bits, complement, disjoint_union, random_graph
from hfree_mis.induced import _fitting, _plan, find_induced, is_isomorphic
from hfree_mis.patterns import HPattern, complete, complete_multipartite, cycle, pattern, petersen

from helpers import brute_force_induced


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
            out.append(Graph(h.n, [(perm[u], perm[v]) for u, v in h.edges()]))
        else:
            out.append(random_graph(h.n, rng.random(), rng))
    return out


def _split(n, p, rng):
    """A clique and an independent set, each vertex on either side with
    probability 1/2, joined by cross edges of probability p."""
    side = [rng.random() < 0.5 for _ in range(n)]
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (side[u] and side[v]) or (side[u] != side[v] and rng.random() < p)])


def _threshold(n, rng):
    """Built by adding vertices one at a time, each isolated or dominating."""
    return Graph(n, [(u, v) for v in range(n) if rng.random() < 0.5 for u in range(v)])


def _co_bipartite(n, p, rng):
    """The complement of a random bipartite graph with edge probability p."""
    side = [rng.randrange(2) for _ in range(n)]
    return complement(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if side[u] != side[v] and rng.random() < p]))


def _plant(g, h, rng):
    """``g`` with an induced copy of ``h`` forced on h.n random vertices."""
    spots = rng.sample(range(g.n), h.n)
    inside = set(spots)
    edges = {(u, v) for u, v in g.edges() if not (u in inside and v in inside)}
    edges |= {(min(spots[a], spots[b]), max(spots[a], spots[b])) for a, b in h.edges()}
    return Graph(g.n, sorted(edges))


SMALL = ("K3", "P4", "C4", "claw", "paw", "2K2", "K3+K1")
# twin classes of two or three vertices cover most of these
TWIN_RICH = ("claw", "2K2", "C4", "K5-K2", "K6-K3")


def test_agrees_with_brute_force():
    """Hosts of any density; hosts denser than 1/2, which are searched in
    the complement's order; random masks, which restrict the search to the
    subgraph they induce; patterns rich in twins, where a vertex with a
    twin placed earlier only takes host vertices above the twin's image;
    disjoint unions of dense pieces, small pieces and pieces of exactly
    |H| vertices, whole or cut by masks, where a connected H is searched
    per component in the order of that component's own density; and split,
    threshold and co-bipartite hosts, with and without a planted H, whole
    or masked, where the neighbourhood signatures prune most candidates."""
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
    c5 = pattern("C5").graph
    for _ in range(8):
        for make in (lambda n: _split(n, rng.random(), rng), lambda n: _threshold(n, rng),
                     lambda n: _co_bipartite(n, rng.random(), rng)):
            n = rng.randint(5, 10)
            g = make(n)
            for h in small + [c5]:
                for host in (g, _plant(g, h, rng)):
                    _check_against_brute_force(host, h)
                    _check_against_brute_force(host, h, rng.getrandbits(n))


def test_split_hosts_exclude_2k2_c4_c5():
    """Split graphs are exactly the (2K2, C4, C5)-free graphs (Foldes and
    Hammer, 1977): on seeded split hosts of up to 120 vertices, whole or
    masked, all three are missed, and each is found once planted."""
    rng = random.Random(17)
    excluded = [pattern(name).graph for name in ("2K2", "C4", "C5")]
    for n in (6, 20, 40, 80, 120):
        for _ in range(3):
            g = _split(n, rng.random(), rng)
            for h in excluded:
                assert find_induced(g, h) is None, (n, h.edges(), g.edges())
                assert find_induced(g, h, mask=rng.getrandbits(n)) is None, (n, h.edges())
                planted = _plant(g, h, rng)
                emb = find_induced(planted, h)
                assert emb is not None, (n, h.edges(), planted.edges())
                _embedding_is_induced(planted, h, emb)


def _signature(h, x):
    nb = h.adj[x]
    rest = h.full_mask & ~nb & ~(1 << x)
    return (nb.bit_count(), rest.bit_count(), not h.is_clique_mask(nb),
            not h.is_independent_mask(rest))


def test_signatures_match_their_definition():
    """The plan gives each level the signature of its pattern vertex x:
    deg(x), |H| - 1 - deg(x), whether H[N(x)] has a non-edge and whether
    H - N[x] has an edge; a host vertex w of a part fits a signature
    exactly when G[part] gives w at least that degree and non-degree, a
    non-edge in N(w) if N(x) has one and an edge in part - N[w] if
    H - N[x] has one."""
    rng = random.Random(18)
    for _ in range(300):
        h = random_graph(rng.randint(1, 8), rng.random(), rng)
        order, _cons, _twins, level_sig, sigs = _plan(h, rng.random() < 0.5)
        assert [sigs[s] for s in level_sig] == [_signature(h, x) for x in order], h.edges()
        assert len(set(sigs)) == len(sigs)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.random(), rng)
        part = rng.getrandbits(n) if rng.random() < 0.5 else g.full_mask
        sig = (rng.randint(0, 4), rng.randint(0, 4), rng.random() < 0.5, rng.random() < 0.5)
        vs = part & rng.getrandbits(n)
        want = 0
        for w in bits(vs):
            sub = _signature(g.induced(part)[0], (part & ((1 << w) - 1)).bit_count())
            if (sub[0] >= sig[0] and sub[1] >= sig[1] and sub[2] >= sig[2]
                    and sub[3] >= sig[3]):
                want |= 1 << w
        assert _fitting(g.adj, part, sig, vs) == want, (g.edges(), part, sig, vs)


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


PINNED = ("2K2", "C4", "C5", "P4", "P5", "paw", "claw", "gem", "K3", "K1,4", "3K1",
          "K5-K2", "K6-K3", "K6-K2,2", "K5-K1,3")

# sha256 over the records of test_first_embedding_is_pinned, recorded
# before the search pruned candidates by neighbourhood signatures
PINNED_EMBEDDINGS = "09556a8790d32e97bc6e5451146757409d6ce7deb7d2099124ca8204605d4faa"


def test_first_embedding_is_pinned():
    """The first embedding found, or None, for 15 patterns on seeded G(n, p)
    hosts with n from 4 to 30 (half of them under a random mask) and on
    split and threshold hosts."""
    rng = random.Random(16)
    hosts = []
    for i in range(160):
        n = rng.randint(4, 30)
        g = random_graph(n, rng.random(), rng)
        hosts.append((g, rng.getrandbits(n) if i % 2 else None))
    for _ in range(30):
        hosts.append((_split(rng.randint(4, 30), rng.random(), rng), None))
        hosts.append((_threshold(rng.randint(4, 30), rng), None))
    pats = [pattern(name).graph for name in PINNED]
    total = hashlib.sha256()
    for g, mask in hosts:
        for name, h in zip(PINNED, pats):
            emb = find_induced(g, h, mask=mask)
            record = (tuple(g.adj), mask, name, None if emb is None else tuple(emb.items()))
            total.update(repr(record).encode())
    assert total.hexdigest() == PINNED_EMBEDDINGS


def test_isomorphism_basics():
    assert is_isomorphic(cycle(5), cycle(5))
    assert not is_isomorphic(cycle(5), pattern("P5").graph)
    assert is_isomorphic(pattern("K3-K1,1").graph, pattern("P3").graph)


def _with_edges(n, m, rng):
    """A uniform graph on n vertices with exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, m))


def _capped(n, d, rng):
    """Random edges added while both ends stay below degree d, so the
    largest degree is at most d (and mostly exactly d)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < d and deg[v] < d and rng.random() < 0.7:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)


# connected and disconnected patterns of three to five vertices
FILTERED = ("P4", "C4", "claw", "paw", "bull", "K3+K1", "2K2", "P3+K2", "3K1")


def test_count_filter_agrees_with_brute_force_at_its_edges(monkeypatch):
    """The count filter drops a host part before planning when it has fewer
    edges, non-edges, a smaller largest degree or largest non-degree than
    H, or, at |H| vertices, another degree sequence.  At those edges (hosts
    with exactly H's edge count, hosts and masks of exactly |H| vertices,
    hosts whose largest degree is H's, dense hosts searched in the
    complement's order, disconnected patterns) the answer is brute force's,
    and the first embedding is the one found with the filter switched off.
    Both outcomes of the filter occur in every group."""
    import hfree_mis.induced as induced

    real = induced._may_hold
    outcomes = []

    def recording(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    def check(g, h, mask=None):
        monkeypatch.setattr(induced, "_may_hold", recording)
        fast = find_induced(g, h, mask=mask)
        monkeypatch.setattr(induced, "_may_hold", lambda *args: True)
        assert fast == find_induced(g, h, mask=mask), (g.edges(), h.edges(), mask)
        monkeypatch.setattr(induced, "_may_hold", real)
        _check_against_brute_force(g, h, mask)

    rng = random.Random(27)
    pats = [pattern(name).graph for name in FILTERED]
    groups = {
        "equal edges": lambda h: _with_edges(rng.randint(h.n, h.n + 2), h.edge_count(), rng),
        "|H| vertices": lambda h: random_graph(h.n, rng.random(), rng),
        "largest degree": lambda h: _capped(rng.randint(h.n, h.n + 3),
                                            max(h.degree(v) for v in range(h.n)), rng),
        "dense": lambda h: random_graph(rng.randint(h.n, 8), rng.uniform(0.6, 0.95), rng),
        "pieces of |H|": lambda h: reduce(disjoint_union, [random_graph(h.n, rng.random(), rng)
                                                           for _ in range(2)]),
    }
    for group, make in groups.items():
        outcomes.clear()
        for _ in range(12):
            for h in pats:
                g = make(h)
                check(g, h)
                check(g, h, rng.getrandbits(g.n))
        assert True in outcomes and False in outcomes, group
    # the way classify.verdict asks whether H lies inside P6 or the claw:
    # seeded relabelled patterns of four to six vertices
    outcomes.clear()
    for host in (pattern("P6").graph, pattern("claw").graph):
        for _ in range(80):
            h = random_graph(rng.randint(4, 6), rng.choice([0.2, 0.35, 0.5]), rng)
            if h.n <= host.n:
                check(host, h)
    assert True in outcomes and False in outcomes


def test_count_filter_rejects_before_planning(monkeypatch):
    """K4 has more edges than P6, and C4 more than the claw: neither search
    plans the pattern."""
    import hfree_mis.induced as induced

    def no_plan(*args):
        raise AssertionError("planned a pattern the counts exclude")

    monkeypatch.setattr(induced, "_plan", no_plan)
    # empty caches, so that a pattern the counts let through is planned
    # here whatever earlier tests have cached
    monkeypatch.setattr(induced, "_SHAPES", {})
    monkeypatch.setattr(induced, "_PLANS", ({}, {}))
    assert find_induced(pattern("P6").graph, pattern("K4")) is None
    assert find_induced(pattern("claw").graph, pattern("C4")) is None
