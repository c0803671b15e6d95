import random

import pytest

from hfree_mis import solver
from hfree_mis.errors import InternalCheckError, PatternViolationError, UnsupportedPatternError
from hfree_mis.graph import Graph, complement, random_graph
from hfree_mis.oracle import alpha_exact
from hfree_mis.patterns import complete, pattern
from hfree_mis.solver import SolveConfig, solve_hfree, solve_paper

from helpers import check_yes_witness, sample_hfree


def _check_family(name, count, max_n, seed, densities, k_max=4):
    """Both entry points against the oracle: the exact core and the paper's
    pipeline."""
    h = pattern(name)
    graphs = sample_hfree(h, count, max_n, seed, densities)
    assert len(graphs) >= count // 2, f"sampler starved for {name}"
    for idx, g in enumerate(graphs):
        a = alpha_exact(g).alpha
        for k in range(1, k_max + 1):
            for solve in (solve_hfree, solve_paper):
                out = solve(g, k, h, seed=idx)
                assert out.decision == (a >= k), (solve.__name__, name, g.edges(), k, a)
                if out.decision:
                    check_yes_witness(g, out, k)


def test_cluster_family():
    _check_family("2K2", 30, 12, 60, (0.5, 0.7, 0.85))


def test_diamond_family():
    _check_family("K5-K2", 30, 12, 61, (0.2, 0.35, 0.5))


def test_triangle_family():
    _check_family("K6-K3", 30, 12, 62, (0.15, 0.3))


def test_p3_trivial_family():
    _check_family("K3-K1,1", 20, 10, 63, (0.2, 0.6, 0.9))


def test_gem_family():
    _check_family("gem", 30, 12, 64, (0.1, 0.2, 0.3))


def test_bipartite_family():
    _check_family("K6-K2,2", 25, 11, 65, (0.15, 0.3))


def test_turing_family():
    _check_family("K5-K1,3", 25, 12, 66, (0.1, 0.2, 0.3))


def test_p3_route_rejects_non_cluster():
    g = pattern("P4").graph  # contains an induced three-vertex path
    with pytest.raises(PatternViolationError):
        solve_hfree(g, 2, "P3", seed=0)


def test_unsupported_patterns_raise():
    g = complete(4)
    for solve in (solve_hfree, solve_paper):
        with pytest.raises(UnsupportedPatternError):
            solve(g, 2, "C4", seed=0)
        with pytest.raises(UnsupportedPatternError):
            solve(g, 2, "K6-K4", seed=0)
        with pytest.raises(UnsupportedPatternError):
            solve(g, 2, "claw", seed=0)


def test_faithful_mode_small_k():
    graphs = sample_hfree(pattern("gem"), 10, 24, seed=67, densities=(0.1, 0.2))
    for g in graphs:
        a = alpha_exact(g).alpha
        out = solve_paper(g, 2, "gem", seed=1, config=SolveConfig(faithful=True))
        assert out.decision == (a >= 2)
    with pytest.raises(ValueError):
        solve_paper(graphs[0], 3, "gem", config=SolveConfig(faithful=True))


def test_same_seed_same_outcome():
    g = sample_hfree(pattern("gem"), 1, 12, seed=68, densities=(0.25,))[0]
    a = solve_paper(g, 3, "gem", seed=5)
    b = solve_paper(g, 3, "gem", seed=5)
    assert (a.decision, a.witness) == (b.decision, b.witness)


def test_clique_is_gem_free_with_alpha_one():
    out = solve_hfree(complete(7), 2, "gem", seed=0)
    assert not out.decision
    out = solve_hfree(complete(7), 1, "gem", seed=0)
    assert out.decision and len(out.witness) == 1


def test_witnesses_returned_on_yes():
    graphs = sample_hfree(pattern("2K2"), 10, 10, seed=69, densities=(0.6,))
    for g in graphs:
        a = alpha_exact(g).alpha
        if a >= 2:
            out = solve_hfree(g, 2, "2K2", seed=0)
            assert out.decision and len(out.witness) >= 2


def test_methods_name_the_deciding_step():
    g = pattern("C5").graph  # gem-free; greedy finds 2, alpha is 2
    assert solve_hfree(g, 2, "gem").method == "greedy"
    out = solve_hfree(g, 3, "gem")
    assert (out.decision, out.method) == (False, "exact")


def test_broken_witness_raises_internal_check(monkeypatch):
    g = pattern("C5").graph
    monkeypatch.setattr(solver, "greedy_independent_set", lambda g: g.full_mask)
    with pytest.raises(InternalCheckError):
        solve_hfree(g, 3, "gem")


def test_p3_route_internal_check(monkeypatch):
    monkeypatch.setattr(solver, "find_induced", lambda g, h: None)
    with pytest.raises(InternalCheckError):
        solve_hfree(pattern("P4").graph, 2, "P3")
