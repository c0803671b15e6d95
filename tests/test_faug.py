import hashlib
import random

import pytest

from hfree_mis.errors import PatternViolationError
from hfree_mis.faug import (
    _path_dp,
    solve_faug_clique_minus_bipartite,
    solve_faug_clique_minus_triangle,
    solve_faug_gem,
)
from hfree_mis.graph import Graph, mask_of
from hfree_mis.induced import find_induced
from hfree_mis.iterexp import FaugInstance, RamseyCliques
from hfree_mis.oracle import alpha_exact
from hfree_mis.patterns import clique_minus_bipartite, clique_minus_clique, pattern

from planted import planted_bipartite_instance, planted_gem_instance, planted_path_instance


def _oracle_callback(g):
    """Branching callback on g: ``callback(mask, k)`` asks the oracle for an
    independent set of size k in g[mask], named in g's vertex ids."""
    def callback(mask, k):
        sub, kept = g.induced(mask)
        res = alpha_exact(sub)
        return tuple(kept[v] for v in res.witness[:k]) if res.alpha >= k else None
    return callback


def _rainbow_exists(inst):
    """Exhaustive transversal check, small instances only."""
    g = inst.graph

    def rec(i, blocked, chosen):
        if i == inst.k:
            return chosen
        from hfree_mis.graph import bits

        for v in bits(inst.parts[i] & ~blocked):
            hit = rec(i + 1, blocked | g.closed_neighborhood(v), chosen + (v,))
            if hit:
                return hit
        return None

    return rec(0, 0, ())


# -- clique minus a triangle ---------------------------------------------------

def test_triangle_solver_finds_planted():
    for seed in range(6):
        rng = random.Random(seed)
        inst, planted = planted_path_instance(4, 3, rng)
        res = solve_faug_clique_minus_triangle(inst, 3, rng, _oracle_callback(inst.graph),
                                               part_threshold=1)
        assert res is not None
        assert inst.graph.is_independent_set(res)


def test_triangle_solver_dp_route_no_long_edges():
    rng = random.Random(3)
    inst, planted = planted_path_instance(6, 3, rng, long_edges=0)
    res = solve_faug_clique_minus_triangle(inst, 3, rng, _oracle_callback(inst.graph),
                                           separation_rounds=1, part_threshold=1)
    assert res is not None


def test_triangle_solver_separation_success_rate():
    # planted instances with few long-edge endpoints: most seeds succeed
    hits = 0
    trials = 20
    for t in range(trials):
        rng = random.Random(100 + t)
        inst, planted = planted_path_instance(6, 3, rng, long_edges=3)
        res = solve_faug_clique_minus_triangle(inst, 3, rng, _oracle_callback(inst.graph),
                                               separation_rounds=1024, part_threshold=1)
        hits += res is not None
    assert hits >= trials // 2


def test_triangle_solver_one_sided_on_no_instance():
    rng = random.Random(2)
    inst, planted = planted_path_instance(5, 3, rng)
    g = inst.graph
    # destroy every transversal by completing the planted pairs
    extra = []
    for i in range(4):
        extra.append((planted[i], planted[i + 1]))
    g2 = Graph(g.n, g.edges() + extra)
    rc = RamseyCliques.build(g2, inst.cliques.cliques)
    inst2 = FaugInstance.build(g2, inst.k, inst.parts, rc)
    if find_induced(g2, clique_minus_clique(6, 3)) is not None:
        pytest.skip("completion broke freeness for this seed")
    assert _rainbow_exists(inst2) is None
    for seed in range(5):
        res = solve_faug_clique_minus_triangle(inst2, 3, random.Random(seed),
                                               _oracle_callback(inst2.graph), part_threshold=1,
                                               separation_rounds=64)
        assert res is None


def test_triangle_solver_small_part_branching():
    rng = random.Random(13)
    inst, planted = planted_path_instance(4, 3, rng)
    # with the faithful threshold every part is small: branching decides
    res = solve_faug_clique_minus_triangle(inst, 3, rng, _oracle_callback(inst.graph))
    assert res is not None


def test_path_dp():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    parts = [mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5])]
    hit = _path_dp(g, parts)
    assert hit is not None and len(hit) == 3
    # per-level blocking: middle part fully adjacent to a chosen end
    g2 = Graph(4, [(0, 1), (0, 2), (1, 2)])
    assert _path_dp(g2, [mask_of([0]), mask_of([1, 2])]) is None


# -- clique minus a complete bipartite graph ------------------------------------

def test_bipartite_solver_finds_planted():
    for seed in range(5):
        rng = random.Random(seed)
        inst, planted = planted_bipartite_instance(3, 2, rng)
        res = solve_faug_clique_minus_bipartite(inst, 2, _oracle_callback(inst.graph),
                                                part_threshold=1)
        assert res is not None
        assert inst.graph.is_independent_set(res)


def test_bipartite_solver_matches_exhaustive():
    for seed in range(12):
        rng = random.Random(40 + seed)
        inst, planted = planted_bipartite_instance(3, 2, rng, part_size=3)
        res = solve_faug_clique_minus_bipartite(inst, 2, _oracle_callback(inst.graph),
                                                part_threshold=1)
        has = _rainbow_exists(inst) is not None or alpha_exact(inst.graph).alpha >= inst.k
        assert (res is not None) == has or (res is not None and alpha_exact(inst.graph).alpha >= inst.k)


def test_bipartite_missing_clique_is_certified():
    # two parts, two cliques, but one part misses one clique entirely while
    # the relation graph stays connected: the forbidden pattern must emerge
    r = 2
    q = 3 * r
    k = 3
    n = 0
    cliques = []
    for _ in range(k - 1):
        cliques.append(tuple(range(n, n + q)))
        n += q
    parts = [tuple(range(n + i * r, n + i * r + r)) for i in range(k)]
    n += k * r
    edges = []
    for cl in cliques:
        edges += [(cl[i], cl[j]) for i in range(q) for j in range(i + 1, q)]
    for i in range(q):
        for j in range(q):
            if i != j:
                edges.append((cliques[0][i], cliques[1][j]))
    for p in parts:
        edges += [(p[i], p[j]) for i in range(r) for j in range(i + 1, r)]
    # part 0 and part 1 see both cliques; part 2 sees only clique 0
    for pi, p in enumerate(parts):
        for ci, cl in enumerate(cliques):
            if pi == 2 and ci == 1:
                continue
            for u in p:
                for w in cl:
                    edges.append((u, w))
    g = Graph(n, edges)
    rc = RamseyCliques.build(g, tuple(cliques))
    inst = FaugInstance.build(g, k, tuple(mask_of(p) for p in parts), rc)
    with pytest.raises(PatternViolationError) as err:
        solve_faug_clique_minus_bipartite(inst, r, _oracle_callback(inst.graph), part_threshold=1)
    emb = err.value.vertices
    sub, _ = g.induced(sum(1 << v for v in emb))
    assert find_induced(sub, clique_minus_bipartite(3 * r, r, r)) is not None


def test_bipartite_bridging_part_is_certified():
    # two cliques in the empty relation and a part that sees both: the part
    # bridges two relation components, so the forbidden pattern must emerge
    r = 2
    q = 3 * r
    k = 3
    cliques = [tuple(range(0, q)), tuple(range(q, 2 * q))]
    n = 2 * q
    parts = [tuple(range(n + i * r, n + i * r + r)) for i in range(k)]
    n += k * r
    edges = []
    for cl in cliques:
        edges += [(cl[i], cl[j]) for i in range(q) for j in range(i + 1, q)]
    for p in parts:
        edges += [(p[i], p[j]) for i in range(r) for j in range(i + 1, r)]
    # part 0 sees both cliques, part 1 only clique 0, part 2 only clique 1
    sees = {0: (0, 1), 1: (0,), 2: (1,)}
    for pi, p in enumerate(parts):
        for ci in sees[pi]:
            edges += [(u, w) for u in p for w in cliques[ci]]
    g = Graph(n, edges)
    rc = RamseyCliques.build(g, tuple(cliques))
    assert rc.relations[0][1] == "empty"
    inst = FaugInstance.build(g, k, tuple(mask_of(p) for p in parts), rc)
    with pytest.raises(PatternViolationError) as err:
        solve_faug_clique_minus_bipartite(inst, r, _oracle_callback(inst.graph), part_threshold=1)
    assert "bridges" in str(err.value)
    emb = err.value.vertices
    sub, _ = g.induced(sum(1 << v for v in emb))
    assert find_induced(sub, clique_minus_bipartite(3 * r, r, r)) is not None


def test_bipartite_smallest_parameters():
    # r = 1, k = 2: one clique of size three, both parts dominated by it;
    # on a valid host the part union is a clique, so no transversal exists
    edges = [(0, 1), (0, 2), (1, 2), (3, 4)]
    edges += [(v, c) for v in (3, 4) for c in (0, 1, 2)]
    g = Graph(5, edges)  # this is the complete graph on five vertices
    rc = RamseyCliques.build(g, ((0, 1, 2),))
    inst = FaugInstance.build(g, 2, (mask_of([3]), mask_of([4])), rc)
    res = solve_faug_clique_minus_bipartite(inst, 1, _oracle_callback(inst.graph), part_threshold=1)
    assert res is None


# -- the gem ---------------------------------------------------------------------

def test_gem_solver_finds_planted():
    for seed in range(8):
        rng = random.Random(seed)
        inst, planted = planted_gem_instance(3, rng)
        res = solve_faug_gem(inst, rng, rounds=256)
        assert res is not None
        assert inst.graph.is_independent_set(res)


def test_gem_success_rate_on_planted():
    hits = 0
    trials = 40
    for t in range(trials):
        rng = random.Random(900 + t)
        inst, planted = planted_gem_instance(3, rng)
        res = solve_faug_gem(inst, rng, rounds=2 ** (3 * 3 + 1))
        hits += res is not None
    assert hits >= trials // 2


def _gem_no_instance():
    """A path of fully joined cliques: alpha = 2 < k = 3."""
    edges = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6), (1, 7),
             (2, 3), (4, 5), (6, 7),
             (2, 4), (2, 5), (3, 4), (3, 5),
             (4, 6), (4, 7), (5, 6), (5, 7)]
    g = Graph(8, edges)
    rc = RamseyCliques.build(g, ((0,), (1,)))
    return FaugInstance.build(g, 3, (mask_of([2, 3]), mask_of([4, 5]), mask_of([6, 7])), rc)


def test_gem_solver_never_false_positive():
    # the answer must be no
    inst = _gem_no_instance()
    assert find_induced(inst.graph, pattern("gem")) is None
    assert alpha_exact(inst.graph).alpha < 3
    for seed in range(10):
        res = solve_faug_gem(inst, random.Random(seed), rounds=128)
        assert res is None


# -- all three ---------------------------------------------------------------------

# sha256 over the answers of test_rainbow_answers_are_pinned, recorded
# while the solvers still wrapped their answers in a result type
PINNED_RAINBOW_ANSWERS = "f446d055f346942b941d7079f7d9b74f5f79f50c3dffdfe975c47fef11e7edab"


def _without_planted(inst, planted, forbidden):
    """The instance with its planted transversal made a clique, or None
    when that puts the forbidden pattern into the host."""
    g = inst.graph
    extra = [(u, w) for i, u in enumerate(planted) for w in planted[i + 1:]]
    g2 = Graph(g.n, g.edges() + extra)
    if find_induced(g2, forbidden) is not None:
        return None
    return FaugInstance.build(g2, inst.k, inst.parts, RamseyCliques.build(g2, inst.cliques.cliques))


def _rainbow_cases():
    """(label, instance, planted vertices, forbidden pattern, solve) over
    seeded planted instances of the three solvers; ``solve`` runs the solver
    on a fresh seeded generator."""
    for seed in range(8):
        k = 2 + seed % 5
        inst, planted = planted_path_instance(k, 3, random.Random(seed), long_edges=seed % 3)
        for threshold in (1, None):
            def triangle(inst, seed=seed, threshold=threshold):
                return solve_faug_clique_minus_triangle(
                    inst, 3, random.Random(seed), _oracle_callback(inst.graph),
                    separation_rounds=64, part_threshold=threshold)
            yield ("triangle", seed, threshold), inst, planted, clique_minus_clique(6, 3), triangle
    for seed in range(6):
        k = 2 + seed % 3
        inst, planted = planted_bipartite_instance(k, 2, random.Random(seed), part_size=2 + seed % 2)
        for threshold in (1, None):
            def bipartite(inst, threshold=threshold):
                return solve_faug_clique_minus_bipartite(
                    inst, 2, _oracle_callback(inst.graph), part_threshold=threshold)
            yield ("bipartite", seed, threshold), inst, planted, clique_minus_bipartite(6, 2, 2), bipartite
    for seed in range(8):
        inst, planted = planted_gem_instance(2 + seed % 3, random.Random(seed))

        def gem(inst, seed=seed):
            return solve_faug_gem(inst, random.Random(seed), rounds=16)
        yield ("gem", seed), inst, planted, pattern("gem"), gem
    yield ("gem", "no"), _gem_no_instance(), (), pattern("gem"), gem


def test_rainbow_answers_are_pinned():
    """Each solver's witness, or None, on planted instances and on their
    variants without the planted transversal."""
    total = hashlib.sha256()
    kinds = set()
    for label, inst, planted, forbidden, solve in _rainbow_cases():
        for variant, case in (("planted", inst), ("no", _without_planted(inst, planted, forbidden))):
            if case is None:
                continue
            answer = solve(case)
            if answer is not None:
                assert len(answer) >= case.k and case.graph.is_independent_set(answer), label
            kinds.add((label[0], answer is not None))
            total.update(repr((label, variant, answer)).encode())
    assert kinds == {(name, found) for name in ("triangle", "bipartite", "gem")
                     for found in (True, False)}
    assert total.hexdigest() == PINNED_RAINBOW_ANSWERS
