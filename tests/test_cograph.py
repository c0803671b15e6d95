import random

import pytest

from hfree_mis import cograph
from hfree_mis.cograph import cograph_alpha, cograph_decompose, find_p4
from hfree_mis.errors import InternalCheckError, PatternViolationError
from hfree_mis.graph import mask_of
from hfree_mis.oracle import alpha_exact
from hfree_mis.patterns import complete_bipartite, path, pattern

from helpers import random_cograph


def test_p4_detected():
    assert find_p4(path(4)) is not None
    a, b, c, d = find_p4(path(4))
    g = path(4)
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert not (g.has_edge(a, c) or g.has_edge(b, d) or g.has_edge(a, d))


def test_complete_bipartite_alpha_and_cover():
    g = complete_bipartite(3, 3)
    alpha, wit, cover = cograph_decompose(g)
    assert alpha == 3 and g.is_independent_mask(wit)
    assert len(cover) == 3
    assert cograph_alpha(g) == (alpha, wit)


def test_p4_inputs_raise_with_witness():
    with pytest.raises(PatternViolationError) as err:
        cograph_alpha(path(5))
    assert len(err.value.vertices) == 4


def test_random_cographs_match_oracle():
    rng = random.Random(12)
    for _ in range(40):
        g = random_cograph(rng.randrange(1, 5), rng)
        if g.n > 14:
            continue
        assert find_p4(g) is None
        alpha, wit = cograph_alpha(g)
        assert alpha == alpha_exact(g).alpha
        _, _, cover = cograph_decompose(g)
        assert len(cover) == alpha
        total = 0
        for cls in cover:
            assert g.is_clique_mask(cls)
            assert total & cls == 0
            total |= cls
        assert total == g.full_mask


def test_alpha_within_mask():
    g = pattern("gem").graph
    apex = next(v for v in range(g.n) if g.degree(v) == 4)
    ends = [v for v in range(g.n) if g.degree(v) == 2]
    # dropping one path end leaves a fan on four vertices, a cograph
    mask = g.full_mask & ~(1 << ends[0])
    alpha, wit = cograph_alpha(g, mask)
    assert alpha == 2 and g.is_independent_mask(wit)
    assert not (wit >> apex & 1) or wit.bit_count() == 1


def test_cover_that_misses_vertices_raises_internal_check(monkeypatch):
    """A recursion that drops a component still returns an independent
    witness and a cover of cliques of equal size; only the union check sees
    that the cover no longer bounds alpha."""
    split = cograph._cotree_split

    def drop_last_component(g, m):
        kind, parts = split(g, m)
        return kind, parts[:-1] if kind == "union" else parts
    monkeypatch.setattr(cograph, "_cotree_split", drop_last_component)
    with pytest.raises(InternalCheckError):
        cograph_decompose(pattern("2K2").graph)
