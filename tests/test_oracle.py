import random

import pytest

from hfree_mis import oracle
from hfree_mis.errors import BudgetExceededError, InternalCheckError
from hfree_mis.graph import random_graph
from hfree_mis.oracle import (
    alpha_exact,
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


def test_non_independent_witness_raises_internal_check(monkeypatch):
    # a corrupt initial bound that no search can beat reaches the final check
    monkeypatch.setattr(oracle, "greedy_independent_set", lambda g: g.full_mask)
    with pytest.raises(InternalCheckError):
        oracle.alpha_exact(cycle(5))
