import hashlib
import random
import re
import zlib

import pytest

from hfree_mis import faug, solver
from hfree_mis.errors import InternalCheckError, PatternViolationError, UnsupportedPatternError
from hfree_mis.faug import solve_faug_gem
from hfree_mis.graph import Graph, complement, mask_of, random_graph
from hfree_mis.induced import find_induced
from hfree_mis.kernelize import KernelResult
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
        with pytest.raises(UnsupportedPatternError, match="^pattern 'C4' is outside"):
            solve(g, 2, "C4", seed=0)
        with pytest.raises(UnsupportedPatternError, match=r"^pattern Graph\(n=5, m=4\) is outside"):
            solve(g, 2, pattern("P5").graph, seed=0)
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


def test_faithful_mode_runs_the_stage_without_caps(monkeypatch):
    """``SolveConfig(faithful=True)`` reaches the Ramsey stage with its
    faithful config, not with the desk caps."""
    stage = solver.ramsey_extraction_stage
    configs = []

    def spy(g, k, sets, f_k, rng, config):
        configs.append(config)
        return stage(g, k, sets, f_k, rng, config)
    monkeypatch.setattr(solver, "ramsey_extraction_stage", spy)
    out = solve_paper(complete(22), 2, "gem", config=SolveConfig(faithful=True))
    assert not out.decision
    assert configs and all(c.faithful for c in configs)


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


@pytest.mark.parametrize("h, paper_route", [
    ("P3", "component count"), ("K3", "cluster"), ("K5-K2", "kernel"),
    ("K5-K1,3", "turing kernel"), ("gem", "gem")])
def test_nonpositive_k_is_yes_with_empty_witness(h, paper_route):
    """k <= 0 is a yes with the empty witness on every route, also on the
    P3 route, which counts components and must not slice them by k."""
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])   # 3K2
    for k in (0, -1, -3):
        for solve in (solve_hfree, solve_paper):
            out = solve(g, k, h)
            assert (out.decision, out.witness) == (True, ()), (solve.__name__, h, k, out)
        assert solve_paper(g, k, h).method.startswith(paper_route)


def test_methods_name_the_deciding_step():
    g = pattern("C5").graph  # gem-free; greedy finds 2, alpha is 2
    assert solve_hfree(g, 2, "gem").method == "greedy"
    out = solve_hfree(g, 3, "gem")
    assert (out.decision, out.method) == (False, "exact")


@pytest.mark.parametrize("solve, g, k, h, name, broken", [
    (solve_hfree, pattern("C5").graph, 3, "gem", "greedy_independent_set",
     lambda g: g.full_mask),
    (solve_paper, complete(6), 2, "K5-K1,2", "kernel_paw_like",
     lambda g, k, r: KernelResult("solved_yes", (0, 1))),
    (solve_paper, complete(6), 2, "K5-K1,3", "solve_via_turing",
     lambda g, k, r, budget: (0, 1)),
    (solve_paper, complete(22), 2, "gem", "solve_faug_gem",
     lambda inst, rng, rounds: (0, 1)),
], ids=["greedy", "paw-kernel", "turing", "expansion"])
def test_broken_witness_raises_internal_check(monkeypatch, solve, g, k, h, name, broken):
    """A route that hands back a set that is not independent is caught
    before the outcome leaves, on either entry; a rainbow solver's set is
    caught by the expansion driver, not skipped."""
    monkeypatch.setattr(solver, name, broken)
    with pytest.raises(InternalCheckError):
        solve(g, k, h)


def test_p3_route_internal_check(monkeypatch):
    monkeypatch.setattr(solver, "find_induced", lambda g, h: None)
    with pytest.raises(InternalCheckError):
        solve_hfree(pattern("P4").graph, 2, "P3")


@pytest.mark.parametrize("name, draws, n_range, p_range, min_raised", [
    ("gem", 300, (9, 15), (0.5, 0.85), 4),
    ("K5-K2", 100, (8, 14), (0.5, 0.9), 1),
    # the triangle and bipartite rainbow solvers are rarely reached at this
    # size, so these two mostly check witnesses
    ("K6-K3", 100, (8, 14), (0.5, 0.9), 0),
    ("K6-K2,2", 100, (8, 14), (0.5, 0.9), 0),
    ("K5-K1,3", 100, (8, 14), (0.5, 0.9), 1),
], ids=["gem", "K5-K2", "K6-K3", "K6-K2,2", "K5-K1,3"])
def test_paper_pipeline_fuzz_on_inputs_that_are_not_h_free(name, draws, n_range, p_range, min_raised):
    """Dense random graphs, mostly not H-free: every raised embedding induces
    the caller's H in input vertex ids, and every witness is independent
    with at least k vertices.  The layer's own report must already hold H:
    ``solve_paper`` searching the input instead would hide a wrong lift."""
    h = pattern(name)
    rng = random.Random(zlib.crc32(f"{name}-fuzz".encode()))
    raised = []
    for i in range(draws):
        g = random_graph(rng.randint(*n_range), rng.uniform(*p_range), rng)
        k = alpha_exact(g).alpha + rng.randint(0, 1)
        try:
            out = solve_paper(g, k, name, seed=i)
        except PatternViolationError as exc:
            raised.append(i)
            assert exc.pattern_name == name and len(exc.vertices) == h.n, (i, str(exc))
            assert "found by searching the input" not in exc.message, (i, str(exc))
            sub, _ = g.induced(mask_of(exc.vertices))
            assert find_induced(sub, h) is not None, (i, str(exc))
            continue
        if out.decision:
            check_yes_witness(g, out, k)
    assert len(raised) >= min_raised, raised


def test_paper_violations_are_certified(monkeypatch):
    """A layer's report is re-checked against the caller's H: a false one is
    replaced by a copy of H found in the input, or, when the input is
    H-free, turned into InternalCheckError."""
    def false_report(g, k, r):
        raise PatternViolationError(f"K{r}-K1,2", (0, 1), "false report")
    monkeypatch.setattr(solver, "kernel_paw_like", false_report)
    with pytest.raises(PatternViolationError) as err:
        solve_paper(pattern("K5-K2").graph, 2, "K5-K2")
    assert (err.value.pattern_name, err.value.vertices) == ("K5-K2", (0, 1, 2, 3, 4))
    assert "found by searching the input" in err.value.message
    with pytest.raises(InternalCheckError):
        solve_paper(complete(6), 2, "K5-K2")


# complement of a 14-vertex graph that is not gem-free (alpha 4): at k = 5 a
# rainbow instance of the gem solver holds a path of four that no vertex of
# the instance sees whole
GEM_UNDOMINATED = complement(Graph(14, [
    (0, 9), (0, 10), (1, 4), (1, 8), (2, 5), (2, 6), (2, 9), (2, 10), (3, 4), (3, 6),
    (3, 9), (3, 11), (3, 12), (3, 13), (4, 6), (4, 9), (4, 13), (5, 8), (5, 11),
    (5, 13), (6, 8), (6, 12), (6, 13), (7, 9), (8, 12), (10, 11), (10, 12)]))


def test_expansion_reports_a_gem_no_vertex_dominates(monkeypatch):
    """When no vertex of a rainbow instance sees its path of four whole, the
    gem solver searches for a gem and reports it, and ``solve_paper`` checks
    the report against the input.  A gem-free input never gets here:
    adjacent cliques that finish the gem branching see the same extracted
    vertices, so such a path would have one dominating it."""
    g = GEM_UNDOMINATED
    assert find_induced(g, pattern("gem")) is not None and alpha_exact(g).alpha == 4
    raised = []

    def spy(*args, **kwargs):
        try:
            return solve_faug_gem(*args, **kwargs)
        except PatternViolationError as exc:
            raised.append(exc.message)
            raise
    monkeypatch.setattr(solver, "solve_faug_gem", spy)
    with pytest.raises(PatternViolationError) as err:
        solve_paper(g, 5, "gem", seed=0)
    assert len(raised) == 1 and "no vertex sees the path of four" in raised[0]
    assert err.value.pattern_name == "gem" and len(err.value.vertices) == 5
    assert find_induced(g, pattern("gem"), mask=mask_of(err.value.vertices)) is not None


def test_undominated_path_in_a_gem_free_graph_is_internal(monkeypatch):
    """A search that finds no gem where no vertex sees the path of four
    contradicts the argument above: InternalCheckError, not an answer."""
    monkeypatch.setattr(faug, "find_induced", lambda *args, **kwargs: None)
    with pytest.raises(InternalCheckError, match="no vertex sees the path of four"):
        solve_paper(GEM_UNDOMINATED, 5, "gem", seed=0)


# sha256 over the records of test_paper_outcomes_are_pinned, recorded
# while the rainbow solvers still wrapped their answers in a result type
PINNED_PAPER_OUTCOMES = "36b110de1a0c1da79ada575669cb91d67f4a3198de41e3c15206e8b9a9ec4a97"

# per pattern, the densities of its seeded H-free draws; the denser ones of
# the three expansion families hand the stage structured instances
PAPER_PIN_DENSITIES = {
    "P3": (0.1, 0.2), "K4": (0.2, 0.35, 0.5), "2K2": (0.5, 0.7, 0.85),
    "K5-K2": (0.2, 0.35, 0.5), "K5-K1,2": (0.2, 0.35, 0.5), "K5-K1,3": (0.1, 0.25, 0.4),
    "K6-K3": (0.15, 0.4, 0.8, 0.9), "K6-K2,2": (0.15, 0.4, 0.9, 0.95),
    "gem": (0.1, 0.3, 0.8, 0.9),
}


def _paper_record(g, k, h, seed, config=None):
    try:
        out = solve_paper(g, k, h, seed=seed, config=config)
    except PatternViolationError as exc:
        return ("violation", exc.pattern_name, exc.vertices)
    return (out.decision, out.method, tuple(out.notes), out.witness)


def test_paper_outcomes_are_pinned():
    """``solve_paper``'s decision, method, notes and witness on seeded
    H-free draws of 4-16 vertices at k = 0, alpha - 1, alpha and alpha + 1,
    per supported family, and on the faithful gem stage over K22."""
    total = hashlib.sha256()
    tried = set()
    for name, densities in PAPER_PIN_DENSITIES.items():
        h = pattern(name)
        rng = random.Random(zlib.crc32(f"{name}-paper-pin".encode()))
        graphs = []
        while len(graphs) < 14:
            g = random_graph(rng.randrange(4, 17), rng.choice(densities), rng)
            if find_induced(g, h) is None:
                graphs.append(g)
        for idx, g in enumerate(graphs):
            a = alpha_exact(g).alpha
            for k in sorted({0, a - 1, a, a + 1}):
                record = _paper_record(g, k, name, idx)
                if re.search(r"tried: [1-9]", str(record)):
                    tried.add(name)
                total.update(repr((name, tuple(g.adj), k, record)).encode())
    faithful = _paper_record(complete(22), 2, "gem", 0, SolveConfig(faithful=True))
    assert faithful == (False, "gem", ("structured instances tried: 20 (hits: 0)",), ())
    total.update(repr(faithful).encode())
    assert tried == {"K6-K3", "K6-K2,2", "gem"}, tried
    assert total.hexdigest() == PINNED_PAPER_OUTCOMES
