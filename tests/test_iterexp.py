import random

import pytest

from hfree_mis.errors import PatternViolationError
from hfree_mis.graph import Graph, mask_of, random_graph
from hfree_mis.iterexp import (
    FaugInstance,
    RamseyCliques,
    StageConfig,
    classify_relation,
    g_faithful,
    h_faithful,
    iterexp_driver,
    pair_type,
    ramsey_extraction_stage,
)
from hfree_mis.oracle import alpha_exact
from hfree_mis.patterns import complete, empty_graph


def _two_cliques(relation: str, q: int = 3) -> Graph:
    edges = []
    a = list(range(q))
    b = list(range(q, 2 * q))
    for xs in (a, b):
        edges += [(xs[i], xs[j]) for i in range(q) for j in range(i + 1, q)]
    for i in range(q):
        for j in range(q):
            if relation == "full" and i != j:
                edges.append((a[i], b[j]))
            elif relation == "semi_asc" and i < j:
                edges.append((a[i], b[j]))
            elif relation == "semi_desc" and i > j:
                edges.append((a[i], b[j]))
    return Graph(2 * q, edges)


def test_relation_classification_all_shapes():
    for rel in ("empty", "full", "semi_asc", "semi_desc"):
        g = _two_cliques(rel)
        got = classify_relation(g, (0, 1, 2), (3, 4, 5))
        assert got == rel


def test_relation_rejects_other_shapes():
    g = _two_cliques("empty")
    adj = [row for row in g.adj]
    g2 = Graph(6, g.edges() + [(0, 3), (0, 4)])
    assert classify_relation(g2, (0, 1, 2), (3, 4, 5)) is None
    with pytest.raises(ValueError):
        RamseyCliques.build(g2, ((0, 1, 2), (3, 4, 5)))


def test_columns_must_be_independent():
    g = _two_cliques("full")
    g2 = Graph(6, g.edges() + [(0, 3)])  # break the anti-matching diagonal
    with pytest.raises(ValueError):
        RamseyCliques.build(g2, ((0, 1, 2), (3, 4, 5)))


def test_pair_type_bits():
    g = Graph(4, [(0, 2), (1, 3), (0, 3)])
    t = pair_type(g, (0, 1), (2, 3))
    # bit layout: (a0,b0), (a0,b1), (a1,b0), (a1,b1)
    assert t == (1 << 0) | (1 << 1) | (1 << 3)


def test_faug_instance_validation():
    g = _two_cliques("empty", q=2)
    # add two parts seeing the cliques fully / not at all
    edges = g.edges()
    n = g.n
    edges += [(n, 0), (n, 1)]           # part 0 sees clique A fully
    edges += [(n + 1, 2), (n + 1, 3)]   # part 1 sees clique B fully
    g2 = Graph(n + 2, edges)
    rc = RamseyCliques.build(g2, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        FaugInstance.build(g2, 3, (1 << n, 1 << (n + 1), 0), rc)  # empty part
    with pytest.raises(ValueError):
        FaugInstance.build(g2, 2, (1 << n, 1 << (n + 1)), rc)  # clique count off


def test_faug_partial_adjacency_rejected():
    q = 2
    g = _two_cliques("empty", q)
    edges = g.edges()
    n = g.n
    edges += [(n, 0)]  # sees only half of clique A
    edges += [(n, 2), (n, 3)]
    edges += [(n + 1, 0), (n + 1, 1)]
    g2 = Graph(n + 2, edges)
    rc = RamseyCliques.build(g2, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        FaugInstance.build(g2, 2, (1 << n, 1 << (n + 1)), rc)


def test_faug_connectivity_required():
    q = 2
    g = _two_cliques("empty", q)
    n = g.n
    edges = g.edges() + [(n, 0), (n, 1), (n + 1, 0), (n + 1, 1)]
    g2 = Graph(n + 2, edges)  # nothing sees clique B
    rc = RamseyCliques.build(g2, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        FaugInstance.build(g2, 2, (1 << n, 1 << (n + 1)), rc)


@pytest.mark.parametrize("k", [1, 0])
def test_rainbow_instances_need_k_at_least_two(k):
    """The driver answers k <= 1 itself, so neither the instance nor the
    stage takes one."""
    g = complete(3)
    with pytest.raises(ValueError, match="k >= 2"):
        FaugInstance.build(g, k, (g.full_mask,) * k, RamseyCliques((), ()))
    with pytest.raises(ValueError, match="k >= 2"):
        ramsey_extraction_stage(g, k, [(0,), (1,)], 1, random.Random(0))


def test_thresholds():
    assert h_faithful(2, 1) == 4
    assert g_faithful(2, 1) == 20
    assert h_faithful(3, 2) == 2 * 64


def _exact_expansion(gg, kk, sets, solve):
    res = alpha_exact(gg)
    return res.witness[:kk] if res.alpha >= kk else None


def test_driver_base_cases():
    g = empty_graph(5)
    hit = iterexp_driver(g, 1, lambda kk: 3, _exact_expansion)
    assert hit is not None and len(hit) == 1
    # the greedy phase alone covers edgeless graphs
    hit = iterexp_driver(g, 4, lambda kk: 3, _exact_expansion)
    assert hit is not None and len(hit) >= 4
    assert iterexp_driver(empty_graph(2), 3, lambda kk: 3, _exact_expansion) is None


def test_driver_matches_oracle_with_exact_expansion():
    rng = random.Random(19)
    for _ in range(30):
        g = random_graph(rng.randrange(1, 15), rng.random(), rng)
        truth = alpha_exact(g).alpha
        for k in range(1, 5):
            hit = iterexp_driver(g, k, lambda kk: 2, _exact_expansion)
            assert (hit is not None) == (truth >= k)
            if hit is not None:
                assert g.is_independent_set(hit) and len(hit) >= k


def test_driver_is_complete_when_expansion_finds_nothing():
    """The driver's own branching decides every instance, full batches
    included, when the expansion solver never returns a witness."""
    for batch in (1, 2):
        rng = random.Random(12)
        for _ in range(30):
            g = random_graph(rng.randrange(1, 15), rng.random(), rng)
            truth = alpha_exact(g).alpha
            for k in range(1, 6):
                hit = iterexp_driver(g, k, lambda kk: batch, lambda *a: None)
                assert (hit is not None) == (truth >= k), (batch, g.edges(), k)
                if hit is not None:
                    assert g.is_independent_set(hit) and len(hit) >= k


def test_driver_branches_when_building_stalls():
    """A never-succeeding expansion is still complete when building stalls
    first, because stalling proves every solution meets the batch."""
    rng = random.Random(20)
    for _ in range(20):
        g = random_graph(rng.randrange(1, 11), rng.choice([0.5, 0.8]), rng)
        truth = alpha_exact(g).alpha
        k = truth  # tight target: batches of k-1 sets stall quickly
        if k < 2:
            continue
        hit = iterexp_driver(g, k, lambda kk: g.n + 1, lambda *a: None)
        assert hit is not None and len(hit) >= k


def test_driver_lifts_violations_from_its_copies():
    """A violation raised inside the driver's relabelled copy of G[mask]
    names vertices of the graph the driver was given."""
    g = complete(8)

    def expansion(gg, kk, sets, solve):
        if gg.n == g.n:
            return solve(mask_of((1, 3, 5, 7)), kk)
        raise PatternViolationError("test", (1, 2))  # ids of the copy
    with pytest.raises(PatternViolationError) as err:
        iterexp_driver(g, 2, lambda kk: 1, expansion)
    assert err.value.vertices == (3, 5)


def test_stage_k2_type_classification():
    # two seed sets of one vertex each, non-adjacent: relation empty
    g = empty_graph(6)
    rng = random.Random(0)
    out = ramsey_extraction_stage(g, 2, [(0,), (1,), (2,), (3,)], 1, rng,
                                  StageConfig(color_rounds=8))
    # columns of the monochromatic batch are independent: early set of size 2
    assert out.early_set is not None and len(out.early_set) >= 2


def test_stage_good_branch_carries_planted_transversal():
    """With a planted transversal and enough colorings, some emitted branch
    has the planted vertices spread one per part."""
    from math import ceil, e

    k = 3
    q = 4
    a = list(range(q))
    b = list(range(q, 2 * q))
    edges = [(a[i], a[j]) for i in range(q) for j in range(i + 1, q)]
    edges += [(b[i], b[j]) for i in range(q) for j in range(i + 1, q)]
    for i in range(q):
        for j in range(q):
            if i != j:
                edges.append((a[i], b[j]))
    planted = [2 * q, 2 * q + 1, 2 * q + 2]
    n = 2 * q + 3
    for v in planted:
        for w in range(2 * q):
            edges.append((v, w))
    g = Graph(n, edges)
    sets = [(a[i], b[i]) for i in range(q)]
    rounds = ceil(2 * e**k)
    hits = 0
    trials = 10
    for t in range(trials):
        rng = random.Random(t)
        out = ramsey_extraction_stage(g, k, sets, 2, rng,
                                      StageConfig(color_rounds=rounds))
        good = False
        for inst in out.instances:
            placed = [[v for v in planted if p >> v & 1] for p in inst.parts]
            if all(len(h) >= 1 for h in placed):
                good = True
                break
        hits += good
    assert hits >= trials // 2


def test_stage_emits_connected_instances():
    # two column cliques related by an anti-matching, plus free candidates
    rng = random.Random(4)
    q = 4
    a = list(range(q))
    b = list(range(q, 2 * q))
    edges = [(a[i], a[j]) for i in range(q) for j in range(i + 1, q)]
    edges += [(b[i], b[j]) for i in range(q) for j in range(i + 1, q)]
    for i in range(q):
        for j in range(q):
            if i != j:
                edges.append((a[i], b[j]))
    extra = 2 * q
    n = extra + 3
    # three extra vertices adjacent to every seed vertex: candidates
    for v in range(extra, n):
        for w in range(extra):
            edges.append((v, w))
    g = Graph(n, edges)
    sets = [(a[i], b[i]) for i in range(q)]  # columns: independent pairs
    out = ramsey_extraction_stage(g, 3, sets, 2, rng, StageConfig(color_rounds=16))
    assert out.mono_clique_size >= 2
    assert out.instances, "at least one coloring must split the candidates"
    for inst in out.instances:
        assert inst.k == 3
        assert all(p for p in inst.parts)
        assert inst.cliques.size == 2
