import hashlib
import random
from itertools import permutations

import pytest

from hfree_mis.classify import (
    CliqueDecomposition,
    find_clique_decomposition,
    is_chordal,
    is_claw_subdivision,
    is_path_graph,
    join_factors,
    np_hard_connected,
    verdict,
)
from hfree_mis.graph import Graph, bits, complement, join, random_graph
from hfree_mis.induced import find_induced, is_isomorphic
from hfree_mis.patterns import (
    cluster,
    complete,
    cycle,
    empty_graph,
    path,
    pattern,
    star,
    t_spider,
)

FOUR_VERTEX_TABLE = [
    ("4K1", "polynomial", "poly_kernel"),
    ("K2+2K1", "polynomial", "poly_kernel"),
    ("P3+K1", "polynomial", "poly_kernel"),
    ("2K2", "polynomial", "poly_kernel"),
    ("claw", "polynomial", "poly_kernel"),
    ("P4", "polynomial", "poly_kernel"),
    ("K4", "fpt", "poly_kernel"),
    ("diamond", "fpt", "poly_kernel"),
    ("paw", "fpt", "poly_kernel"),
    ("K3+K1", "fpt", "turing_kernel_no_pk"),
    ("C4", "w1_hard", "no_poly_kernel"),
]


def test_four_vertex_table():
    for name, comp, kern in FOUR_VERTEX_TABLE:
        v = verdict(pattern(name))
        assert v.complexity == comp, (name, v)
        assert v.kernel == kern, (name, v)
        assert v.rules_fired


def _all_four_vertex_patterns():
    """One representative per isomorphism class on exactly 4 vertices."""
    seen = []
    for bits_sel in range(1 << 6):
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        edges = [pairs[i] for i in range(6) if bits_sel >> i & 1]
        g = Graph(4, edges)
        if not any(is_isomorphic(g, h) for h in seen):
            seen.append(g)
    return seen


def test_exactly_eleven_classes_covered():
    pats = _all_four_vertex_patterns()
    assert len(pats) == 11
    names = {name: pattern(name).graph for name, _c, _k in FOUR_VERTEX_TABLE}
    for g in pats:
        assert any(is_isomorphic(g, hg) for hg in names.values())


def test_monotonicity_on_four_vertex_patterns():
    """Hardness is upward closed and tractability downward closed over the
    induced-subgraph order on patterns."""
    order = {"polynomial": 0, "fpt": 1, "open": 2, "np_hard_open_fpt": 2, "w1_hard": 3}
    pats = _all_four_vertex_patterns()
    pats += [pattern(n).graph for n in ("P3", "K3", "K2+K1", "3K1", "K2", "2K1", "K1")]
    for small in pats:
        for big in pats:
            if small.n > big.n or find_induced(big, small) is None:
                continue
            vs, vb = verdict(small), verdict(big)
            if vs.complexity == "w1_hard":
                assert vb.complexity == "w1_hard", (small.edges(), big.edges())
            if vb.complexity == "polynomial":
                assert order[vs.complexity] <= 1, (small.edges(), big.edges())


def test_decomposition_c4_plain_on_edge():
    dec = find_clique_decomposition(pattern("C4"), "paths", "plain")
    assert dec is not None and len(dec.parts) <= 3


def test_decomposition_gem_nearly_strong_path():
    dec = find_clique_decomposition(pattern("gem"), "paths", "nearly_strong")
    assert dec is not None


def test_decomposition_c4_not_nearly_strong():
    assert find_clique_decomposition(pattern("C4"), "paths", "nearly_strong") is None
    assert find_clique_decomposition(pattern("C4"), "claw_subdivisions", "almost_strong") is None


def test_decomposition_star4():
    # the four-leaf star does admit a plain decomposition on the claw (merge
    # the center with one leaf), which is why its hardness needs a dedicated
    # rule; under the strong mode no tree works
    dec = find_clique_decomposition(pattern("K1,4"), "t1", "plain")
    assert dec is not None
    assert find_clique_decomposition(pattern("K1,4"), "t1", "strong") is None
    assert verdict(pattern("K1,4")).complexity == "w1_hard"


def test_decomposition_spider_strong_on_claw():
    dec = find_clique_decomposition(t_spider(1, 2, 2), "claw_subdivisions", "strong")
    assert dec is not None


def test_decomposition_explicit_target():
    dec = find_clique_decomposition(pattern("K5-K2,2"), path(3), "strong")
    assert dec is not None


# -- independent brute-force decomposition oracle ------------------------------

def _oracle_partitions(n):
    """Every partition of range(n) into non-empty blocks (lists of sets)."""
    if n == 0:
        yield []
        return
    for rest in _oracle_partitions(n - 1):
        v = n - 1
        yield rest + [{v}]
        for i in range(len(rest)):
            blocks = [set(b) for b in rest]
            blocks[i].add(v)
            yield blocks


def _oracle_has_decomposition(h, family, mode):
    def interaction(pa, pb):
        cross = [(u, w) for u in pa for w in pb]
        present = [h.has_edge(u, w) for u, w in cross]
        if not any(present):
            return "empty"
        missing = sum(1 for x in present if not x)
        if missing == 0:
            return "clique"
        if missing == 1 and len(pa) + len(pb) >= 3:
            return "clique_minus_edge"
        sub, _ = h.induced(sum(1 << v for v in pa | pb))
        if find_induced(sub, cycle(4)) is None:
            return "c4_free"
        return "other"

    from hfree_mis.classify import _targets

    for blocks in _oracle_partitions(h.n):
        if not all(h.is_clique(b) for b in blocks):
            continue
        ell = len(blocks)
        for edges in _targets(family, ell):
            eset = {frozenset(e) for e in edges}
            for perm in permutations(range(ell)):
                good = True
                exceptional = 0
                for i in range(ell):
                    for j in range(i + 1, ell):
                        cls = interaction(blocks[i], blocks[j])
                        adjacent = frozenset((perm[i], perm[j])) in eset
                        if mode == "plain":
                            if cls != "empty" and not adjacent:
                                good = False
                        elif not adjacent:
                            good = cls == "empty" and good
                        elif cls == "clique":
                            pass
                        elif cls == "clique_minus_edge" and mode in ("almost_strong", "nearly_strong"):
                            pass
                        elif cls == "c4_free" and mode == "nearly_strong":
                            exceptional += 1
                            if exceptional > 1:
                                good = False
                        else:
                            good = False
                    if not good:
                        break
                if good:
                    return True
    return False


def test_decomposition_agrees_with_oracle():
    rng = random.Random(70)
    cases = [pattern(n).graph for n in ("C4", "paw", "gem", "P4", "K4", "bull",
                                        "cricket", "T1,2,2", "K1,4", "C6")]
    for _ in range(20):
        cases.append(random_graph(rng.randrange(1, 6), rng.random(), rng))
    for _ in range(6):
        cases.append(random_graph(6, rng.choice([0.3, 0.5, 0.7]), rng))
    for g in cases:
        if not g.is_connected():
            continue
        for family in ("paths", "claw_subdivisions"):
            for mode in ("plain", "strong", "almost_strong", "nearly_strong"):
                fast = find_clique_decomposition(g, family, mode) is not None
                slow = _oracle_has_decomposition(g, family, mode)
                assert fast == slow, (g.edges(), family, mode)


def test_no_soft_decomposition_rule_fires():
    """A connected chordal pattern on seven vertices, free of K1,4, of trees
    with two branching vertices and of T1,2,2, and outside the FPT families:
    it has neither a nearly strong decomposition on a path nor an almost
    strong one on a subdivided claw, so only the decomposition rule calls
    it hard."""
    h = Graph(7, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 6),
                  (3, 4), (3, 6), (4, 6), (5, 6)])
    v = verdict(h)
    assert (v.complexity, v.kernel) == ("w1_hard", "no_poly_kernel")
    assert v.rules_fired == ("w1-hard:no-soft-decomposition", "kernel:none-without-fpt")
    for family, mode in (("paths", "nearly_strong"), ("claw_subdivisions", "almost_strong")):
        assert find_clique_decomposition(h, family, mode) is None
        assert not _oracle_has_decomposition(h, family, mode)


# sha256 over the records of _pinned_cases(), recorded before the
# assignment search replaced the loop over all permutations of the parts
PINNED_CLASSIFICATION = "7a527dec2a97884d294209264f300cd9bda96ca17976626a78d59cb41cd50543"
PINNED_NAMES = ("K1", "K2", "2K1", "P3", "K3", "K2+K1", "3K1", "4K1", "K2+2K1", "P3+K1", "2K2",
                "claw", "P4", "K4", "diamond", "paw", "K3+K1", "C4", "gem", "bull", "cricket",
                "C5", "P5", "K1,4", "T1,2,2", "C6", "P6", "2K3", "K5-K2", "K5-K3", "K6-K3",
                "K5-K2,2", "K5-K1,3", "K6-K2,2", "P3+P3", "P7", "C7")


def _pinned_cases():
    for name in PINNED_NAMES:
        yield pattern(name).graph
    rng = random.Random(606)
    for _ in range(300):
        yield random_graph(rng.randrange(1, 7), rng.random(), rng)


def test_classification_is_pinned():
    """Verdicts and the decompositions found, parts and target edges, are
    the same as those of the exhaustive loop over permutations."""
    total = hashlib.sha256()
    for g in _pinned_cases():
        v = verdict(g)
        decs = []
        for family in ("paths", "claw_subdivisions", "t1"):
            for mode in ("plain", "strong", "almost_strong", "nearly_strong"):
                d = find_clique_decomposition(g, family, mode)
                decs.append(None if d is None else (d.parts, d.target_edges, d.mode))
        record = (tuple(g.adj), v.complexity, v.kernel, v.rules_fired, tuple(decs))
        total.update(hashlib.sha256(repr(record).encode()).hexdigest().encode())
    assert total.hexdigest() == PINNED_CLASSIFICATION


def test_join_factors_examples():
    f = join_factors(pattern("gem"))
    sizes = sorted(g.n for g in f)
    assert sizes == [1, 4]
    assert any(is_isomorphic(g, path(4)) for g in f)
    f = join_factors(pattern("K3+K1"))
    assert len(f) == 1 and f[0].n == 4
    f = join_factors(complete(5))
    assert len(f) == 5 and all(g.n == 1 for g in f)


def test_join_of_factors_rebuilds_pattern():
    rng = random.Random(71)
    for _ in range(20):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        factors = join_factors(g)
        rebuilt = factors[0]
        for h in factors[1:]:
            rebuilt = join(rebuilt, h)
        assert is_isomorphic(rebuilt, g)


def test_np_hard_connected_rules():
    assert not np_hard_connected(path(4))
    assert np_hard_connected(cycle(4))
    assert np_hard_connected(pattern("K3+K1"))
    assert not np_hard_connected(pattern("K2+K1"))
    assert not np_hard_connected(t_spider(1, 1, 1))  # the claw itself
    assert np_hard_connected(pattern("cricket"))


def test_path_and_subdivision_recognizers():
    assert is_path_graph(path(5))
    assert not is_path_graph(cycle(5))
    assert is_claw_subdivision(star(3))
    assert is_claw_subdivision(Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]))
    assert not is_claw_subdivision(star(4))


def test_chordality():
    assert is_chordal(complete(5))
    assert is_chordal(pattern("gem").graph)
    assert not is_chordal(cycle(4))
    assert not is_chordal(cycle(6))
    assert is_chordal(pattern("paw").graph)


def test_verdicts_for_open_and_hard_cases():
    assert verdict(pattern("cricket")).complexity == "np_hard_open_fpt"
    assert verdict(t_spider(1, 2, 2)).complexity == "w1_hard"
    assert verdict(pattern("gem")).complexity == "fpt"
    v = verdict(pattern("K5-K3"))
    assert v.complexity == "fpt" and v.kernel == "open_kernel"
    v = verdict(pattern("K5-K2,2"))
    assert v.complexity == "fpt" and v.kernel == "open_kernel"
    assert verdict(pattern("P7")).complexity == "open"
    assert verdict(pattern("C7")).complexity == "w1_hard"
    # disconnected beyond clusters stays open
    v = verdict(pattern("P3+P3"))
    assert v.complexity == "open"
    assert "open:disconnected-beyond-clusters" in v.rules_fired
