import random

import pytest

from hfree_mis import oracle
from hfree_mis.errors import BudgetExceededError, InternalCheckError
from hfree_mis.graph import Graph, bits, mask_of, random_graph
from hfree_mis.hardness import (
    VARIANTS,
    brute_force_feasible,
    build_construction,
    construction_alpha_reaches,
    gen_grid_tiling,
)
from hfree_mis.oracle import (
    alpha_exact,
    alpha_reaches,
    enumerate_independent_sets,
    greedy_clique_cover,
    greedy_independent_set,
)
from hfree_mis.patterns import complete, cycle, pattern, petersen


def test_c5_alpha_two():
    assert alpha_exact(cycle(5)).alpha == 2


def test_clique_alpha_one():
    for n in (1, 4, 9):
        res = alpha_exact(complete(n))
        assert res.alpha == 1 and len(res.witness) == 1


def test_petersen_alpha_four():
    assert alpha_exact(petersen()).alpha == 4


def test_witness_always_independent_and_optimal():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 13), rng.random(), rng)
        res = alpha_exact(g)
        assert g.is_independent_set(res.witness)
        assert len(res.witness) == res.alpha
        best = max(m.bit_count() for m in enumerate_independent_sets(g))
        assert res.alpha == best


def test_greedy_cover_bounds_alpha():
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 14), rng.random(), rng)
        cover = greedy_clique_cover(g)
        total = 0
        for cls in cover:
            assert g.is_clique_mask(cls)
            assert total & cls == 0
            total |= cls
        assert total == g.full_mask
        assert len(cover) >= alpha_exact(g).alpha


def test_greedy_independent_set_valid():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng.randrange(1, 14), rng.random(), rng)
        assert g.is_independent_mask(greedy_independent_set(g))


def test_budget_exceeded_is_loud():
    g = random_graph(30, 0.5, random.Random(0))
    with pytest.raises(BudgetExceededError):
        alpha_exact(g, budget=3)


def test_supplied_cover_gives_same_answer():
    rng = random.Random(8)
    for _ in range(15):
        g = random_graph(rng.randrange(2, 12), rng.random(), rng)
        cover = greedy_clique_cover(g, order=list(range(g.n)))
        assert alpha_exact(g, cover=cover).alpha == alpha_exact(g).alpha
        # an empty class covers nothing and changes nothing, tree included
        assert alpha_exact(g, cover=[0] + cover) == alpha_exact(g, cover=cover)


def test_non_independent_witness_raises_internal_check(monkeypatch):
    # a corrupt initial bound that no search can beat reaches the final check
    monkeypatch.setattr(oracle, "greedy_independent_set", lambda g, mask=None: g.full_mask)
    with pytest.raises(InternalCheckError):
        oracle.alpha_exact(cycle(5))


def _random_clique_cover(g, rng):
    """Cliques grown from random seeds until they cover V; classes overlap."""
    cover, covered = [], 0
    for v in rng.sample(range(g.n), g.n):
        if covered >> v & 1 and rng.random() < 0.7:
            continue
        cls = 1 << v
        for u in rng.sample(range(g.n), g.n):
            if cls & ~g.adj[u] == 0 and rng.random() < 0.6:
                cls |= 1 << u
        cover.append(cls)
        covered |= cls
    return cover


def test_alpha_reaches_matches_enumeration():
    # propagation at tight nodes is sound for every clique cover, including
    # one whose classes overlap
    rng, cover_rng = random.Random(9), random.Random(11)
    overlapping = 0
    for _ in range(60):
        g = random_graph(rng.randrange(0, 13), rng.random(), rng)
        alpha = max(m.bit_count() for m in enumerate_independent_sets(g))
        random_cover = _random_clique_cover(g, cover_rng)
        overlapping += sum(cls.bit_count() for cls in random_cover) > g.n
        for cover in (None, greedy_clique_cover(g, order=rng.sample(range(g.n), g.n)), random_cover):
            res = alpha_exact(g, cover=cover)
            assert res.alpha == alpha == len(res.witness)
            assert g.is_independent_set(res.witness)
            for k in range(alpha + 2):
                found = alpha_reaches(g, k, cover=cover)
                if k <= alpha:
                    assert found is not None and len(set(found)) == k
                    assert g.is_independent_set(found)
                else:
                    assert found is None
    assert overlapping >= 20


def test_alpha_reaches_budget_exceeded_is_loud():
    g = random_graph(30, 0.5, random.Random(0))
    with pytest.raises(BudgetExceededError):
        alpha_reaches(g, alpha_exact(g).alpha + 1, budget=3)


def test_bad_cover_raises_value_error():
    g = cycle(5)
    not_a_clique = [0b00011, 0b01100, 0b10100]       # {2, 4} is no edge of C5
    misses_a_vertex = [0b00011, 0b01100]              # vertex 4 is uncovered
    outside_v = [0b00011, 0b01100, 0b110000]          # names a sixth vertex
    for cover in (not_a_clique, misses_a_vertex, outside_v):
        with pytest.raises(ValueError):
            alpha_exact(g, cover=cover)
        with pytest.raises(ValueError):
            alpha_reaches(g, 2, cover=cover)


# (n, alpha, witness, nodes_used) of alpha_exact on _pinned_graphs().  The
# alphas and witnesses date from before each node filtered its parent's live
# classes instead of the cover; nodes_used was re-recorded once the search
# began propagating at tight nodes and deciding the discard branch at the
# parent (7,869 nodes in all before, 3,348 after), and again once a tight
# subtree settled every one-vertex part at once and stopped at its first
# better set (3,310 after)
PINNED_ALPHA = [
    (29, 9, (0, 6, 8, 11, 12, 13, 22, 23, 26), 69),
    (51, 20, (1, 2, 6, 8, 11, 14, 15, 21, 22, 25, 27, 28, 30, 31, 38, 41, 43, 45, 47, 49), 229),
    (40, 19, (0, 1, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 15, 17, 22, 26, 31, 33, 34), 23),
    (25, 11, (1, 3, 4, 7, 8, 12, 13, 18, 21, 22, 24), 33),
    (26, 8, (1, 9, 10, 11, 12, 13, 18, 20), 39),
    (41, 10, (1, 3, 8, 12, 16, 20, 21, 22, 31, 39), 92),
    (57, 12, (0, 3, 7, 17, 33, 35, 39, 42, 47, 48, 53, 56), 549),
    (52, 12, (4, 5, 17, 18, 20, 36, 38, 40, 43, 44, 49, 51), 493),
    (40, 10, (0, 1, 2, 3, 5, 7, 12, 25, 27, 39), 195),
    (53, 13, (6, 8, 14, 15, 17, 21, 23, 30, 32, 33, 38, 41, 45), 475),
    (21, 7, (0, 4, 6, 8, 11, 12, 15), 5),
    (38, 9, (0, 2, 5, 9, 10, 12, 20, 26, 28), 156),
    (31, 8, (6, 10, 12, 14, 15, 27, 28, 29), 61),
    (24, 5, (0, 6, 7, 13, 18), 7),
    (27, 11, (0, 1, 2, 4, 5, 10, 13, 16, 19, 24, 25), 37),
    (31, 14, (1, 5, 7, 8, 9, 11, 13, 14, 15, 17, 20, 23, 26, 29), 32),
    (36, 10, (0, 8, 9, 13, 16, 18, 20, 25, 28, 30), 219),
    (48, 12, (4, 8, 10, 18, 20, 26, 32, 34, 39, 42, 44, 45), 282),
    (40, 7, (2, 4, 6, 7, 18, 24, 28), 105),
    (43, 13, (0, 2, 6, 7, 9, 10, 12, 16, 18, 19, 24, 31, 42), 209),
]


def _pinned_graphs():
    rng = random.Random(505)
    for _ in range(len(PINNED_ALPHA)):
        n = rng.randrange(20, 61)
        yield random_graph(n, rng.choice((0.1, 0.2, 0.3, 0.5)), rng)


def test_alpha_exact_search_tree_is_pinned():
    got = []
    for g in _pinned_graphs():
        res = alpha_exact(g)
        got.append((g.n, res.alpha, res.witness, res.nodes_used))
    assert got == PINNED_ALPHA


def test_floor_keeps_alpha_and_witness():
    rng = random.Random(10)
    graphs = list(_pinned_graphs()) + [random_graph(rng.randrange(0, 13), rng.random(), rng)
                                       for _ in range(40)]
    for g in graphs:
        plain = alpha_exact(g)
        assert alpha_exact(g, floor=greedy_independent_set(g)) == plain
        empty = alpha_exact(g, floor=0)
        assert empty.alpha == plain.alpha and g.is_independent_set(empty.witness)


def test_bad_floor_raises_value_error():
    g = cycle(5)
    for floor in (0b00011, 0b100000, -1):    # an edge; a sixth vertex; not a mask
        with pytest.raises(ValueError):
            alpha_exact(g, floor=floor)


def test_constructions_end_within_few_nodes():
    # second-variant tilings: a set of k' vertices takes one vertex from every
    # main clique, so every node is tight; propagation refutes a no-instance
    # (redrawn until infeasible) within 20 nodes, and settling each main
    # clique cut down to one vertex walks down to a planted solution in a
    # handful of nodes
    for k, m, n_t in ((2, 5, 8), (3, 2, 3)):
        for seed in range(8):
            gt, _ = gen_grid_tiling(k, m, n_t, True, random.Random(seed))
            assert construction_alpha_reaches(build_construction(gt, "second", 1), budget=8) is True
            rng = random.Random(seed)
            gt, _ = gen_grid_tiling(k, m, n_t, False, rng)
            while brute_force_feasible(gt) is not None:
                gt, _ = gen_grid_tiling(k, m, n_t, False, rng)
            assert construction_alpha_reaches(build_construction(gt, "second", 1), budget=20) is False


def test_settled_subtree_charges_the_budget():
    # the root of a construction's reach is tight, so every later node lies
    # in the settled subtree; this planted dive takes more than two nodes
    gt, _ = gen_grid_tiling(2, 5, 8, True, random.Random(4))
    out = build_construction(gt, "second", 1)
    with pytest.raises(BudgetExceededError):
        construction_alpha_reaches(out, budget=2)
    assert construction_alpha_reaches(out, budget=8) is True


def test_overlapping_classes_settle_one_vertex_once():
    # C4 0-1-2-3 under classes {0, 1}, {1, 2}, {3}: at the tight root both
    # overlapping classes shrink to vertex 1, which may count only once
    g = cycle(4)
    cover = [0b0011, 0b0110, 0b1000]
    res = alpha_exact(g, cover=cover)
    assert (res.alpha, res.witness) == (2, (0, 2))
    assert alpha_reaches(g, 3, cover=cover) is None
    assert alpha_reaches(g, 2, cover=cover) == (1, 3)


def _widened_cover(out):
    """The main cliques of a construction, each grown greedily by vertices
    adjacent to the whole class: k' classes, and a vertex taken into another
    class lies in two."""
    adj = out.graph.adj
    cover = []
    for cls in out.cover.classes:
        common = out.graph.full_mask
        for v in bits(cls):
            common &= adj[v]
        while common:
            low = common & -common
            cls |= low
            common &= adj[low.bit_length() - 1]
        cover.append(cls)
    return cover


def test_long_propagation_over_overlapping_classes():
    # every widened class is a live part at the tight root, so the search
    # runs long propagation in tight subtrees over parts that share
    # vertices: deleting a shared vertex must cut every part holding it
    rng = random.Random(31)
    kinds, shared = set(), 0
    for variant in VARIANTS:
        for planted in (True, False):
            for _ in range(4):
                gt, _ = gen_grid_tiling(2, 3, 2, planted, rng)
                out = build_construction(gt, variant, 1)
                cover = _widened_cover(out)
                shared += sum(map(int.bit_count, cover)) - out.graph.n
                witness = alpha_reaches(out.graph, out.k_prime, budget=10_000, cover=cover)
                feasible = brute_force_feasible(gt) is not None
                assert (witness is not None) == feasible
                if witness is not None:
                    assert len(witness) == out.k_prime
                    assert out.graph.is_independent_set(witness)
                kinds.add((variant, feasible))
    assert kinds == {(v, f) for v in VARIANTS for f in (True, False)}
    assert shared >= 24


def _masked_cases():
    """Seeded graphs with an empty, a full and a random vertex mask each."""
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng.randrange(0, 36), rng.choice((0.05, 0.15, 0.3, 0.6)), rng)
        for mask in (0, g.full_mask, rng.getrandbits(g.n) if g.n else 0):
            yield g, mask


def test_mask_searches_the_induced_copy():
    # the same tree as on the relabelled copy: alpha, witness and nodes
    for g, mask in _masked_cases():
        sub, kept = g.induced(mask)
        copy = alpha_exact(sub)
        res = alpha_exact(g, mask=mask)
        assert res.witness == tuple(kept[v] for v in copy.witness)
        assert (res.alpha, res.nodes_used) == (copy.alpha, copy.nodes_used)
        assert mask_of(res.witness) & ~mask == 0


def test_class_index_is_kept_per_graph_size():
    """Equal classes on graphs of two sizes get an index each: a reach on a
    construction, and alpha_exact on the construction plus seven isolated
    vertices, masked to the construction and started one short of alpha so
    that its root is tight.  Either order gives the same answers, and each
    n is served its own index."""
    gt, _ = gen_grid_tiling(2, 3, 2, True, random.Random(26))
    out = build_construction(gt, "second", 1)
    small, mask = out.graph, out.graph.full_mask
    big = Graph.from_adj(small.adj + [0] * 7)
    classes = out.cover.classes
    big_cover = oracle.check_cover(big, classes, mask)
    assert big_cover.classes == classes
    floor = mask_of(alpha_reaches(small, out.k_prime)[1:])
    answers = set()
    for order in ((small, big), (big, small)):
        oracle._class_index.cache_clear()
        got = {}
        for g in order * 2:
            if g is small:
                got[g] = alpha_reaches(small, out.k_prime, cover=out.cover)
            else:
                res = alpha_exact(big, cover=big_cover, floor=floor, mask=mask)
                got[g] = (res.alpha, res.witness, res.nodes_used)
        assert len(got[small]) == out.k_prime and got[big][0] == out.k_prime
        info = oracle._class_index.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
        for g in order:
            assert len(oracle._class_index(classes, g.n)[0]) == g.n
        answers.add((got[small], got[big]))
    assert len(answers) == 1
    oracle._class_index.cache_clear()


def test_mask_runs_out_at_the_copys_budget():
    checked = 0
    for g, mask in _masked_cases():
        sub, _ = g.induced(mask)
        nodes = alpha_exact(sub).nodes_used
        if nodes < 2:
            continue
        checked += 1
        for route in (lambda b: alpha_exact(sub, b), lambda b: alpha_exact(g, b, mask=mask)):
            with pytest.raises(BudgetExceededError):
                route(nodes - 1)
            assert route(nodes).nodes_used == nodes
    assert checked >= 20


def test_bad_mask_inputs_raise_value_error():
    g = cycle(5)
    mask = 0b00111                                   # the path 0-1-2
    for bad in (0b100000, -1):                       # a sixth vertex; not a mask
        with pytest.raises(ValueError):
            alpha_exact(g, mask=bad)
    for cover in ([0b00011, 0b01100, 0b10000],       # covers V, not the mask
                  [0b00011]):                        # misses vertex 2
        with pytest.raises(ValueError):
            alpha_exact(g, mask=mask, cover=cover)
    with pytest.raises(ValueError):
        alpha_exact(g, mask=mask, floor=0b01000)     # vertex 3 is outside the mask
    res = alpha_exact(g, mask=mask, cover=[0b00011, 0b00100], floor=0b00001)
    assert res.alpha == 2 and res.witness == (0, 2)
