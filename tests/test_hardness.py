import hashlib
import random
from itertools import combinations, product

import pytest

from hfree_mis import hardness, oracle
from hfree_mis.errors import InternalCheckError
from hfree_mis.graph import Graph, bits, mask_of, random_graph
from hfree_mis.hardness import (
    VARIANTS,
    brute_force_feasible,
    build_construction,
    build_tile_gadget,
    construction_alpha_reaches,
    gen_grid_tiling,
    is_feasible,
    lift_solution,
    or_compose,
    project_solution,
    verify_exclusions,
)
from hfree_mis.induced import find_induced
from hfree_mis.oracle import alpha_exact, alpha_reaches
from hfree_mis.patterns import HPattern, cycle, pattern, star

from helpers import random_graphs


def test_k1_tiles_always_feasible():
    rng = random.Random(0)
    gt, _ = gen_grid_tiling(1, 3, 2, False, rng)
    assert brute_force_feasible(gt) is not None


def test_planted_instances_verify():
    rng = random.Random(1)
    for _ in range(10):
        gt, sol = gen_grid_tiling(2, 3, 2, True, rng)
        assert sol is not None and is_feasible(gt, sol)


def test_unplanted_matches_exhaustive():
    rng = random.Random(2)
    for _ in range(10):
        gt, _ = gen_grid_tiling(2, 2, 1, False, rng)
        sol = brute_force_feasible(gt)
        assert sol is None or is_feasible(gt, sol)


def test_main_cliques_partition_and_are_cliques():
    rng = random.Random(3)
    gt, _ = gen_grid_tiling(2, 2, 2, True, rng)
    for variant in ("first", "second", "third"):
        out = build_construction(gt, variant, 1)
        assert out.k_prime == 8 * 2 * 4
        seen = 0
        for vs in out.main_cliques:
            m = mask_of(vs)
            assert out.graph.is_clique(vs)
            assert seen & m == 0
            seen |= m
        assert seen == out.graph.full_mask


def test_singleton_construction_is_edgeless():
    rng = random.Random(4)
    gt, _ = gen_grid_tiling(1, 1, 1, True, rng)
    out = build_construction(gt, "first", 1)
    assert out.graph.n == 16 and out.graph.edge_count() == 0
    assert alpha_exact(out.graph).alpha == 16 == out.k_prime


def test_lift_project_round_trip():
    rng = random.Random(5)
    for _ in range(6):
        gt, sol = gen_grid_tiling(2, 3, 2, True, rng)
        for variant in ("first", "second", "third"):
            out = build_construction(gt, variant, 1)
            w = lift_solution(sol, out)
            assert len(w) == out.k_prime
            assert out.graph.is_independent_set(w)
            assert project_solution(w, out) == sol


def test_project_rejects_wrong_size():
    rng = random.Random(6)
    gt, sol = gen_grid_tiling(2, 2, 2, True, rng)
    out = build_construction(gt, "first", 1)
    w = lift_solution(sol, out)
    with pytest.raises(ValueError):
        project_solution(w[:-1], out)


def test_feasibility_equivalence_all_variants():
    rng = random.Random(7)
    for t in range(8):
        gt, _ = gen_grid_tiling(2, 2, 1 + t % 2, t % 3 == 0, rng)
        feas = brute_force_feasible(gt) is not None
        for variant in ("first", "second", "third"):
            out = build_construction(gt, variant, 1)
            assert construction_alpha_reaches(out) == feas


# sha256 over the per-output digests of _seeded_outputs(), recorded when
# constructions were still built from an edge list: the adjacency rows,
# labels and clique maps built from row masks must stay identical
PINNED_CONSTRUCTIONS = "1c5834f5b6a7e3bb58e084ec61ca0c9f770c4af0e5c53d51bb84b277b388b0bd"


def _seeded_outputs():
    rng = random.Random(77)
    for k in (1, 2, 3):
        for t in range(4):
            gt, _ = gen_grid_tiling(k, 2 + t, 1 + 2 * t, t % 2 == 0, rng)
            for variant in VARIANTS:
                for p in (1, 2):
                    yield build_construction(gt, variant, p)
            yield build_tile_gadget(gt.tiles[0][0], 1 + t % 2, VARIANTS[t % 3])


def test_construction_build_is_pinned():
    total = hashlib.sha256()
    for out in _seeded_outputs():
        # the per-vertex labels the graph once carried, read off the clique map
        labels = tuple((i, j, key, a) for (i, j, key), vs in out.clique_at.items()
                       for a in range(len(vs)))
        record = (tuple(out.graph.adj), labels, out.main_cliques,
                  sorted(out.clique_at.items()), sorted(out.cycle_cliques.items()), out.k_prime)
        total.update(hashlib.sha256(repr(record).encode()).hexdigest().encode())
    assert total.hexdigest() == PINNED_CONSTRUCTIONS


# sha256 over the witnesses alpha_reaches returns inside
# construction_alpha_reaches on _reach_instances(), recorded when the cover
# was built with mask_of over the main cliques' vertex tuples
PINNED_REACH_WITNESSES = "c4bfd19dac78d5b9bed418ccc78fbf493de6f735b9fe0677091d4c21411982a3"


def _reach_instances():
    rng = random.Random(79)
    for k, m, n_t in ((2, 3, 3), (3, 3, 2)):
        for variant in VARIANTS:
            for planted in (True, False):
                for _ in range(2):
                    gt, _ = gen_grid_tiling(k, m, n_t, planted, rng)
                    yield gt, build_construction(gt, variant, 1)


def test_reach_witnesses_are_pinned(monkeypatch):
    """The main-clique cover searches the same tree however it is built:
    every variant, k = 2 and 3, planted and not, feasible and not."""
    found = []

    def recording(*args, **kwargs):
        found.append(alpha_reaches(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(hardness, "alpha_reaches", recording)
    total = hashlib.sha256()
    kinds = set()
    for gt, out in _reach_instances():
        reached = construction_alpha_reaches(out)
        witness = found[-1]
        assert reached == (witness is not None) == (brute_force_feasible(gt) is not None)
        if reached:
            assert len(witness) == out.k_prime and out.graph.is_independent_set(witness)
        kinds.add((gt.k, out.variant, reached))
        total.update(repr((gt.k, out.variant, witness)).encode())
    assert kinds == {(k, v, r) for k in (2, 3) for v in VARIANTS for r in (True, False)}
    assert total.hexdigest() == PINNED_REACH_WITNESSES


def _clear_shape_caches():
    hardness._tiled_template.cache_clear()
    hardness._gadget_layout.cache_clear()
    oracle._class_index.cache_clear()


@pytest.fixture
def fresh_caches():
    """Every per-process cache of a construction's shape, emptied before and
    after the test."""
    _clear_shape_caches()
    yield
    _clear_shape_caches()


def test_broken_template_clique_raises(monkeypatch, fresh_caches):
    """The build checks every main clique of the finished graph, so a gadget
    template missing one edge inside its first clique is caught.  The
    template cache starts empty, so every variant makes its template with
    the broken rows."""
    template = hardness._gadget_rows

    def broken(*args):
        rows = template(*args)
        rows[0] &= ~0b10
        rows[1] &= ~0b01
        return rows

    monkeypatch.setattr(hardness, "_gadget_rows", broken)
    gt, _ = gen_grid_tiling(2, 3, 2, True, random.Random(13))
    for variant in VARIANTS:
        with pytest.raises(InternalCheckError, match=r"main clique \(0, 1\) is not a clique"):
            build_construction(gt, variant, 1)


# (variant, p, n_t, k) of the interleaved builds: both cached variants, two
# values of p, of n_t and of k
INTERLEAVED_SHAPES = (("second", 1, 2, 2), ("third", 2, 3, 3), ("second", 2, 3, 2),
                      ("third", 1, 2, 3), ("second", 1, 3, 3), ("third", 2, 2, 2))


def _shape_record(out):
    """Everything a build returns, and its reach search's set and nodes."""
    g, cover = out.graph, out.cover
    found, nodes = oracle._search(g, cover.classes, cover.root_dead, g.full_mask, 0,
                                  out.k_prime - 1, out.k_prime, oracle.DEFAULT_BUDGET)
    return (tuple(g.adj), out.main_cliques, out.cycle_cliques, dict(out.clique_at), cover.classes,
            cover.root_dead, construction_alpha_reaches(out), found, nodes)


def test_cached_shapes_never_leak_between_builds(fresh_caches):
    """Builds of six shapes, planted and not, interleaved so that most of them
    meet templates and indexes left by builds of other tilings, give what a
    build after emptying every cache gives."""
    rng = random.Random(24)
    builds = []
    for _ in range(2):
        for variant, p, n_t, k in INTERLEAVED_SHAPES:
            for planted in (True, False):
                gt, _ = gen_grid_tiling(k, 2, n_t, planted, rng)
                builds.append((gt, variant, p, _shape_record(build_construction(gt, variant, p))))
    assert hardness._tiled_template.cache_info().hits > 0
    assert oracle._class_index.cache_info().hits > 0
    answers = set()
    for gt, variant, p, record in builds:
        _clear_shape_caches()
        assert _shape_record(build_construction(gt, variant, p)) == record
        answers.add(record[6])
        assert record[6] == (brute_force_feasible(gt) is not None)
    assert answers == {True, False}


def test_a_build_mutated_leaves_the_next_unchanged(fresh_caches):
    """The cached template and index are tuples, and a build's graph rows are
    its own list: mutating one build changes no later build."""
    gt, _ = gen_grid_tiling(2, 3, 3, True, random.Random(25))
    first = build_construction(gt, "third", 1)
    record = _shape_record(first)
    template = hardness._tiled_template("third", 1, 3, 2)
    owner, _shared = oracle._class_index(first.cover.classes, first.graph.n)
    assert type(template) is tuple and type(owner) is tuple
    first.graph.adj[0] = 0
    first.graph.adj[1] |= 1 << 40
    first.clique_at.clear()
    assert _shape_record(build_construction(gt, "third", 1)) == record
    assert hardness._tiled_template.cache_info().hits >= 1


def test_reach_checks_the_main_cliques_once(monkeypatch):
    """The build's check is the only one a reach makes: the oracle takes the
    checked cover as it stands, for that graph object alone."""
    calls = []
    check = oracle.check_cover

    def spy(*args, **kwargs):
        calls.append(args[0])
        return check(*args, **kwargs)

    monkeypatch.setattr(oracle, "check_cover", spy)
    monkeypatch.setattr(hardness, "check_cover", spy)
    gt, _ = gen_grid_tiling(2, 3, 2, True, random.Random(14))
    for variant in VARIANTS:
        calls.clear()
        out = build_construction(gt, variant, 1)
        assert construction_alpha_reaches(out) is True
        assert calls == [out.graph]
        copy = Graph.from_adj(out.graph.adj)
        assert alpha_reaches(copy, out.k_prime, cover=out.cover) is not None
        assert calls == [out.graph, copy]


def test_checked_cover_reused_on_another_graph_raises():
    # a graph missing one edge of a main clique: the checked cover of the
    # intact graph is checked again, by both entries
    gt, _ = gen_grid_tiling(2, 3, 2, True, random.Random(15))
    out = build_construction(gt, "first", 1)
    u, v = out.clique_at[(0, 0, ("cycle", 0))][:2]
    adj = list(out.graph.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    broken = Graph.from_adj(adj)
    with pytest.raises(ValueError, match=rf"cover class \({u}, {v}\) is not a clique"):
        alpha_exact(broken, cover=out.cover)
    with pytest.raises(ValueError, match=rf"cover class \({u}, {v}\) is not a clique"):
        alpha_reaches(broken, out.k_prime, cover=out.cover)


def test_infeasible_construction_alpha_short():
    # mismatched singleton tiles: row values disagree
    tiles = (
        (((0, 0),), ((1, 0),)),
        (((0, 0),), ((0, 0),)),
    )
    from hfree_mis.hardness import GridTiling

    gt = GridTiling(2, 2, tiles)
    assert brute_force_feasible(gt) is None
    out = build_construction(gt, "first", 1)
    assert not construction_alpha_reaches(out)
    assert alpha_exact(out.graph).alpha < out.k_prime


def test_gadget_propagation_property():
    # every maximum independent set of a standalone gadget hits all cycle
    # cliques at one common index
    rng = random.Random(8)
    gt, _ = gen_grid_tiling(1, 3, 2, False, rng)
    tile = gt.tiles[0][0]
    out = build_tile_gadget(tile, 1, "first")
    g = out.graph
    assert g.n == 32 and out.k_prime == 16
    cliques = list(out.main_cliques)
    found = 0
    for combo in product(*[vs for vs in cliques]):
        if g.is_independent_set(combo):
            found += 1
            cyc = {a for (i, j, t), vs in out.cycle_cliques.items()
                   for a, v in enumerate(vs) if v in combo}
            assert len(cyc) == 1
    assert found >= 1


def test_second_variant_anti_matching_shape():
    rng = random.Random(9)
    gt, _ = gen_grid_tiling(1, 2, 2, True, rng)
    out = build_construction(gt, "second", 1)
    # inside the gadget, consecutive cycle cliques meet in an anti-matching
    a = out.clique_at[(0, 0, ("cycle", 0))]
    b = out.clique_at[(0, 0, ("cycle", 1))]
    for x in range(2):
        for y in range(2):
            assert out.graph.has_edge(a[x], b[y]) == (x != y)


def test_exclusions_first_variant_clean():
    rng = random.Random(10)
    gt, _ = gen_grid_tiling(2, 2, 2, True, rng)
    out = build_construction(gt, "first", 4)
    two_claws = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4)])
    rep = verify_exclusions(out, 5, 2, trees=(HPattern(two_claws, "two-claws"),))
    assert rep.clean


def test_exclusions_second_variant_c4():
    rng = random.Random(11)
    gt, _ = gen_grid_tiling(2, 2, 2, True, rng)
    out = build_construction(gt, "second", 1)
    rep = verify_exclusions(out, 4, 1)
    assert "C4" in rep.found()


def test_or_compose_identity_and_alpha():
    gs = [pattern("C5").graph, pattern("C5").graph]
    j = or_compose(gs)
    assert alpha_exact(j).alpha == 2
    single = or_compose([pattern("P4").graph])
    assert single == pattern("P4").graph
    k3 = or_compose([pattern("K1").graph] * 3)
    assert k3.n == 3 and k3.edge_count() == 3


def test_or_compose_alpha_is_max_random():
    rng = random.Random(12)
    for _ in range(12):
        gs = [random_graph(rng.randrange(1, 8), rng.random(), rng)
              for _ in range(rng.randrange(1, 4))]
        j = or_compose(gs)
        assert alpha_exact(j).alpha == max(alpha_exact(g).alpha for g in gs)
