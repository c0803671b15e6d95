import random

import pytest

from hfree_mis import kernelize
from hfree_mis.errors import BudgetExceededError, PatternViolationError
from hfree_mis.graph import Graph, disjoint_union, mask_of, random_graph
from hfree_mis.induced import find_induced
from hfree_mis.kernelize import (
    kernel_krfree,
    kernel_paw_like,
    solve_via_isolated_clique,
    solve_via_turing,
    turing_kernel_star,
)
from hfree_mis.oracle import alpha_exact
from hfree_mis.patterns import (
    clique_minus_bipartite,
    clique_minus_star,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    pattern,
)
from hfree_mis.ramsey import ramsey_bound

from helpers import is_witness, near_clique, sample_hfree


def test_krfree_solves_large_instances():
    res = kernel_krfree(empty_graph(6), 3, 3)
    assert res.verdict == "solved_yes" and len(res.witness) >= 3


def test_krfree_keeps_small_instances():
    res = kernel_krfree(cycle(5), 3, 3)
    assert res.verdict == "reduced" and res.kept == cycle(5).full_mask
    assert alpha_exact(cycle(5), mask=res.kept).alpha == 2  # answer stays no


def test_krfree_two_c5():
    g = disjoint_union(cycle(5), cycle(5))
    res = kernel_krfree(g, 4, 3)
    assert res.verdict == "solved_yes"
    assert g.is_independent_set(res.witness) and len(res.witness) >= 4


def test_krfree_violation():
    with pytest.raises(PatternViolationError):
        kernel_krfree(complete(10), 3, 3)


@pytest.mark.parametrize("k", [0, -2])
def test_krfree_nonpositive_k_is_solved_yes(k):
    """k <= 0 is a yes with the empty witness, answered as kernel_paw_like
    answers it, before any bound is computed."""
    for g in (Graph(0), cycle(5), complete(10)):
        res = kernel_krfree(g, k, 3)
        assert (res.verdict, res.witness, res.trace) == ("solved_yes", (), ["k <= 0"])
        paw = kernel_paw_like(g, k, 4)
        assert (res.verdict, res.witness, res.trace) == (paw.verdict, paw.witness, paw.trace)


def test_paw_kernel_multipartite_rule():
    # complete multipartite with parts of size 2: alpha 2 preserved
    g = complete_multipartite([2] * 8)
    res = kernel_paw_like(g, 3, 5)
    if res.verdict == "reduced":
        assert alpha_exact(g, mask=res.kept).alpha == 2
    else:
        assert res.verdict == "solved_no"


def test_paw_kernel_star_rule_fires_r5():
    """The part-deletion rule fires where the greedy set falls short of k,
    and keeps the answer.  Both hosts are K5-K1,2-free complete multipartite
    graphs with a little more: K_{2,2,2,2,2,2} plus a vertex seeing vertex 0
    (alpha 3, so k = 4 and 5 are no), and K_{4,2,2,2,2,2} plus an edge whose
    ends both see the part of four (alpha 4, greedy 3, so k = 4 is yes)."""
    pendant = Graph(13, complete_multipartite([2] * 6).edges() + [(12, 0)])
    edge = Graph(16, complete_multipartite([4, 2, 2, 2, 2, 2]).edges() + [(14, 15)]
                 + [(d, x) for d in (14, 15) for x in range(4)])
    cases = [(pendant, 4, 3, "deleted 4 vertices beyond the 4 largest parts"),
             (pendant, 5, 3, "deleted 2 vertices beyond the 5 largest parts"),
             (edge, 4, 4, "deleted 4 vertices beyond the 4 largest parts")]
    for g, k, alpha, fired in cases:
        assert find_induced(g, clique_minus_star(5, 2)) is None
        assert alpha_exact(g).alpha == alpha
        res = kernel_paw_like(g, k, 5)
        assert res.verdict == "reduced" and fired in res.trace, res.trace
        assert res.kept & ~g.full_mask == 0
        assert (alpha_exact(g, mask=res.kept).alpha >= k) == (alpha >= k)


def test_paw_kernel_answer_preservation_random():
    graphs = sample_hfree(pattern("paw"), 60, 30, seed=50, densities=(0.06, 0.12, 0.2))
    assert len(graphs) >= 40
    for g in graphs:
        a = alpha_exact(g).alpha
        for k in range(1, 6):
            res = kernel_paw_like(g, k, 4)
            if res.verdict == "solved_yes":
                assert a >= k and g.is_independent_set(res.witness)
            elif res.verdict == "solved_no":
                assert a < k
            else:
                # the reduced instance is the subgraph the input induces on a mask
                assert res.kept & ~g.full_mask == 0
                assert (alpha_exact(g, mask=res.kept).alpha >= k) == (a >= k)


def test_paw_kernel_violation_on_lie():
    g = pattern("paw").graph
    big = disjoint_union(g, complete(9))
    with pytest.raises(PatternViolationError) as err:
        # k above alpha so no early positive exit preempts the checks
        kernel_paw_like(big, 4, 4)
    emb = err.value.vertices
    sub, _ = big.induced(sum(1 << v for v in emb))
    assert find_induced(sub, clique_minus_star(4, 2)) is not None


def test_turing_connected_required():
    g = disjoint_union(complete(3), complete(3))
    with pytest.raises(ValueError):
        turing_kernel_star(g, 2, 5)
    assert turing_kernel_star(g, 2, 5, 0b000111).subinstances == [(0b000111, 2, ())]
    for mask in (0b1000111, -1):            # a seventh vertex; not a mask
        with pytest.raises(ValueError):
            turing_kernel_star(g, 2, 5, mask)


def test_turing_small_instances_pass_through():
    g = cycle(5)
    out = turing_kernel_star(g, 2, 5)
    assert out.subinstances  # either emitted pieces or the instance itself


def test_turing_empty_mask_emits_nothing():
    # alpha of an empty mask is 0: no subinstance for k >= 1, trivially yes below
    for g, mask in ((Graph(0), None), (complete(3), 0)):
        for k in (1, 2, 3):
            assert turing_kernel_star(g, k, 5, mask).subinstances == []
        assert turing_kernel_star(g, 0, 5, mask).subinstances == [(0, 0, ())]
    assert solve_via_turing(Graph(0), 2, 5) is None
    assert solve_via_turing(Graph(0), 0, 5) == ()


def test_turing_driver_component_sum():
    g = disjoint_union(complete(8), complete(1))
    wit = solve_via_turing(g, 2, 5)
    assert wit is not None and is_witness(g, wit, 2)
    assert solve_via_turing(complete(8), 2, 5) is None


def test_turing_driver_violation_names_input_vertices():
    """A violation found in a component that is not the first names
    vertices of the input: here a K_26 with a two-vertex tail, after an
    edge."""
    clique = complete(26)
    tail = Graph(28, clique.edges() + [(26, v) for v in range(26)] + [(26, 27)])
    g = disjoint_union(complete(2), tail)
    with pytest.raises(PatternViolationError) as err:
        solve_via_turing(g, 3, 5)
    sub, _ = g.induced(sum(1 << v for v in err.value.vertices))
    assert find_induced(sub, clique_minus_star(5, 3)) is not None


def test_turing_violations_induce_the_pattern():
    # a clique inside an emitted piece is reported with a vertex of the big
    # clique and the vertex whose non-neighbourhood the piece is: together
    # they induce K5-K1,3, not just the piece's triangle
    h = clique_minus_star(5, 3)
    rng = random.Random(12)
    messages = set()
    for _ in range(400):
        g = near_clique(rng, (3, 9), 0.5)
        for k in (2, 3, 4):
            try:
                turing_kernel_star(g, k, 5)
            except PatternViolationError as exc:
                messages.add(exc.message)
                assert find_induced(g, h, mask=mask_of(exc.vertices)) is not None, exc
    assert "emitted piece contains a large clique" in messages


@pytest.mark.parametrize("k", [2, 3, 5])
def test_turing_vertex_at_distance_two_is_certified(k):
    """A 17-clique, a vertex u seeing all of it but vertex 0, and a vertex w
    seeing only u: w is at distance two from the clique, and with u and two
    clique vertices it induces K4-K1,2."""
    g = Graph(19, complete(17).edges() + [(17, v) for v in range(1, 17)] + [(17, 18)])
    with pytest.raises(PatternViolationError) as info:
        turing_kernel_star(g, k, 4)
    exc = info.value
    assert exc.message == "vertex at distance two from the clique"
    assert sorted(exc.vertices) == [1, 2, 17, 18]
    assert find_induced(g, clique_minus_star(4, 2), mask=mask_of(exc.vertices)) is not None


def test_turing_driver_oracle_equivalence():
    graphs = sample_hfree(clique_minus_star(5, 3), 40, 24, seed=51,
                          densities=(0.08, 0.15, 0.25))
    assert len(graphs) >= 25
    for g in graphs:
        a = alpha_exact(g).alpha
        for k in range(1, 6):
            wit = solve_via_turing(g, k, 5)
            assert (wit is not None) == (a >= k)
            assert wit is None or is_witness(g, wit, k), (g.edges(), k, wit)


def test_turing_subinstances_are_bounded():
    graphs = sample_hfree(clique_minus_star(5, 3), 15, 30, seed=52,
                          densities=(0.1, 0.2))
    for g in graphs:
        for comp in g.connected_components():
            out = turing_kernel_star(g, 4, 5, comp)
            for j_mask, j_k, guessed in out.subinstances:
                assert j_mask & ~comp == 0
                # the guessed vertices are independent, and the piece avoids
                # their closed neighbourhoods
                m = mask_of(guessed)
                assert g.is_independent_mask(m) and j_mask & (g.neighborhood(m) | m) == 0
                if j_mask == comp:
                    continue  # passed-through small instance
                assert j_mask.bit_count() < ramsey_bound(3, max(j_k, 1)) or j_k <= 0


def test_isolated_clique_route():
    # graphs excluding a triangle plus an isolated vertex (r = 4)
    h = disjoint_union(complete(3), complete(1))
    graphs = sample_hfree(h, 30, 16, seed=53, densities=(0.3, 0.5, 0.7))
    assert len(graphs) >= 15
    for g in graphs:
        a = alpha_exact(g).alpha
        for k in range(1, 5):
            wit = solve_via_isolated_clique(g, k, 4)
            assert (wit is not None) == (a >= k)
            assert wit is None or is_witness(g, wit, k), (g.edges(), k, wit)


def test_isolated_clique_violation_names_input_vertices():
    # a triangle in the guessed vertex's non-neighbourhood is reported with
    # that vertex, as an induced K3+K1 of the input
    h = disjoint_union(complete(3), complete(1))
    rng = random.Random(3)
    raised = 0
    for _ in range(300):
        g = random_graph(rng.randrange(6, 16), rng.choice((0.3, 0.5, 0.7)), rng)
        for k in (2, 3, 4):
            try:
                solve_via_isolated_clique(g, k, 4)
            except PatternViolationError as exc:
                raised += 1
                assert exc.pattern_name == "K3+K1"
                assert find_induced(g, h, mask=mask_of(exc.vertices)) is not None, exc
    assert raised >= 100


def _oracle_nodes(monkeypatch, decide) -> list[int]:
    """``nodes_used`` of each oracle call ``decide()`` makes, in order."""
    calls = []

    def recording(g, budget, *args, **kwargs):
        res = alpha_exact(g, budget, *args, **kwargs)
        calls.append(res.nodes_used)
        return res

    with monkeypatch.context() as m:
        m.setattr(kernelize, "alpha_exact", recording)
        decide()
    return calls


@pytest.mark.parametrize("route, h, r, n, seed", [
    (solve_via_turing, clique_minus_star(5, 3), 5, 24, 51),
    (solve_via_isolated_clique, disjoint_union(complete(3), complete(1)), 4, 16, 53),
])
def test_turing_routes_charge_one_budget(monkeypatch, route, h, r, n, seed):
    # a no-instance whose oracle calls each fit the budget, while together
    # they spend more than it: the route must run out, not pass each call
    # the whole budget again
    for g in sample_hfree(h, 20, n, seed=seed, densities=(0.15, 0.3)):
        k = alpha_exact(g).alpha + 1
        calls = _oracle_nodes(monkeypatch, lambda: route(g, k, r))
        if sum(calls) > max(calls, default=0) > 0:
            break
    else:
        pytest.fail("no sample spends more than its largest oracle call")
    with pytest.raises(BudgetExceededError) as err:
        route(g, k, r, budget=max(calls))
    assert err.value.budget == max(calls) < err.value.nodes_used
    assert route(g, k, r, budget=sum(calls)) is None
