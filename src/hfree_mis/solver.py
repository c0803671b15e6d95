"""Maximum Independent Set in H-free graphs: the exact decision core and the
paper's pipeline as a reproduction.

``solve_hfree`` recognises H first and raises ``UnsupportedPatternError``
outside the supported families (disjoint unions of cliques; a clique minus
one edge, a two-leaf star, a triangle, a complete bipartite graph or a
star K_{1,r-2}; the gem).  Three-vertex-path-free inputs are decided by
counting components.  Every other supported family is decided in two
steps: a greedy independent set answers yes when it reaches k, and
otherwise the exact oracle ``alpha_exact``, starting from that greedy set,
decides under ``SolveConfig.budget``.

``solve_paper`` runs the paper's pipeline per family:

* disjoint unions of cliques -> the cluster-free enumeration solver;
* a clique minus one edge, or minus a two-leaf star -> kernelize, then
  decide the bounded kernel exactly;
* a clique with a pendant vertex removed (K_r - K_{1,r-2}) -> the Turing
  kernel driver;
* a clique minus a triangle, minus a complete bipartite graph, or the gem
  -> iterative expansion: accumulate disjoint size-(k-1) independent sets,
  run the Ramsey extraction stage, hand structured instances to the
  matching rainbow solver.

Expansion thresholds at their faithful values are astronomically large, so
the structured stage runs under desk-mode caps and the expansion driver
closes every undecided case by its own vertex branching; decisions are
therefore exact (never a false yes or a false no), while the structured
machinery is still exercised whenever the caps allow.  Faithful thresholds are available for
k <= 2.  The pipeline is a reproduction, not the decision path: on every
benchmarked family it is slower than the exact core.

Every route of both entries ends in ``_decided``: a yes carries a witness of
k vertices, checked before it is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from .cluster import solve_cluster_free
from .errors import InternalCheckError, PatternViolationError, UnsupportedPatternError
from .faug import (
    solve_faug_clique_minus_bipartite,
    solve_faug_clique_minus_triangle,
    solve_faug_gem,
)
from .graph import Graph, bits, mask_of
from .induced import find_induced, is_isomorphic
from .iterexp import StageConfig, g_faithful, iterexp_driver, ramsey_extraction_stage
from .kernelize import kernel_paw_like, solve_via_turing
from .oracle import DEFAULT_BUDGET, alpha_exact, greedy_independent_set
from .patterns import FamilyMatch, HPattern, path, pattern, recognize_family


EXTRA_SEED_SETS = 2       # expansion batch size above f(k) in desk mode


@dataclass
class SolveConfig:
    """``solve_hfree`` reads only ``budget``; the other fields tune
    ``solve_paper``."""

    faithful: bool = False
    separation_rounds: int = 256
    gem_rounds: int = 8
    budget: int = DEFAULT_BUDGET


@dataclass
class SolveOutcome:
    decision: bool
    witness: tuple[int, ...]
    method: str
    notes: list[str] = field(default_factory=list)


def _decided(g: Graph, k: int, found, method: str, notes=()) -> SolveOutcome:
    """The outcome of a route that found the independent set ``found``, or
    None for no.  A yes keeps the first max(k, 0) sorted vertices, checked
    by ``Graph.checked_witness``."""
    if found is None:
        return SolveOutcome(False, (), method, list(notes))
    wit = g.checked_witness(tuple(sorted(found))[:max(k, 0)], k, method)
    return SolveOutcome(True, wit, method, list(notes))


def solve_hfree(g: Graph, k: int, h: HPattern | Graph | str, seed: int = 0,
                config: SolveConfig | None = None) -> SolveOutcome:
    """Decide whether G has an independent set of size k, given that G is
    H-free for a supported pattern H.  Unsupported patterns raise, never
    fall back silently.  ``method`` is ``greedy`` or ``exact``, naming the
    step that decided.  ``seed`` is accepted, as callers that also run
    ``solve_paper`` pass one, but nothing reads it: no step draws random
    numbers."""
    budget = config.budget if config else DEFAULT_BUDGET
    if _recognize(h) is None:
        return _solve_p3_free(g, k)
    greedy = greedy_independent_set(g)
    if greedy.bit_count() >= k:
        return _decided(g, k, bits(greedy), "greedy")
    exact = alpha_exact(g, budget, floor=greedy)
    return _decided(g, k, exact.witness if exact.alpha >= k else None, "exact")


def _recognize(h: HPattern | Graph | str) -> FamilyMatch | None:
    """H's supported family, or None for the three-vertex path; raises
    UnsupportedPatternError for every other pattern."""
    return _family(*_named(h))


# a spec names one pattern for the life of the process; a spec that fails to
# parse raises afresh on every call, since lru_cache keeps no exceptions
_parsed = lru_cache(maxsize=256)(pattern)


def _named(h: HPattern | Graph | str) -> tuple[str | None, Graph]:
    """H's name (None for a bare graph), and its graph."""
    hp = _parsed(h) if isinstance(h, str) else h
    hg = hp.graph if isinstance(hp, HPattern) else hp
    return getattr(hp, "name", None), hg


@lru_cache(maxsize=256)
def _family(name: str | None, hg: Graph) -> FamilyMatch | None:
    """``_recognize`` for the pattern graph ``hg`` named ``name``, run once
    per pattern (graphs hash by their adjacency rows)."""
    if is_isomorphic(hg, path(3)):
        return None
    fam = recognize_family(hg)
    if fam is None:
        raise UnsupportedPatternError(f"pattern {name or hg!r} is outside the supported families")
    if fam.kind == "clique_minus_clique":
        r, s = fam.params
        if s == 3 and r - 3 < 2:
            raise UnsupportedPatternError(
                "claw-free inputs need a different algorithm (polynomial prior work)")
        if s >= 4:
            raise UnsupportedPatternError(
                f"removing a clique of size {s} >= 4 puts the class in the hard regime")
    return fam


def solve_paper(g: Graph, k: int, h: HPattern | Graph | str, seed: int = 0,
                config: SolveConfig | None = None) -> SolveOutcome:
    """The paper's pipeline for the same question as ``solve_hfree``, kept as
    a tested reproduction.  Decisions are exact, and every yes carries a
    checked witness, the Turing-kernel route's (K_r - K_{1,r-2}) included.

    A PatternViolationError names the caller's H and input vertices that
    induce it: every embedding a layer reports is checked with
    ``find_induced`` before it leaves."""
    try:
        return _solve_paper(g, k, h, seed, config or SolveConfig())
    except PatternViolationError as exc:
        raise _certified(g, h, exc) from None


def _certified(g: Graph, h: HPattern | Graph | str, exc: PatternViolationError) -> PatternViolationError:
    """The violation as an induced copy of the caller's H among its reported
    vertices; when they hold none, the first copy in the input, with a
    message that says so.  An H-free input means the report was false:
    InternalCheckError."""
    name, hg = _named(h)
    name = name or repr(hg)
    emb = find_induced(g, hg, mask=mask_of(exc.vertices) & g.full_mask)
    if emb is not None:
        return PatternViolationError(name, tuple(emb.values()), exc.message)
    emb = find_induced(g, hg)
    if emb is None:
        raise InternalCheckError(f"reported {exc.pattern_name} on {exc.vertices}, "
                                 f"but the input is {name}-free")
    return PatternViolationError(name, tuple(emb.values()), "found by searching the input; "
                                 f"the report named {exc.pattern_name} on {exc.vertices}")


def _solve_paper(g: Graph, k: int, h: HPattern | Graph | str, seed: int,
                 config: SolveConfig) -> SolveOutcome:
    rng = random.Random(seed)
    if config.faithful and k > 2:
        raise ValueError("faithful thresholds are only computable for k <= 2")

    fam = _recognize(h)
    if fam is None:
        return _solve_p3_free(g, k)
    if fam.kind in ("complete", "cluster"):
        r, q = (fam.params[0], 1) if fam.kind == "complete" else fam.params
        res = solve_cluster_free(g, k, r, q)
        return _decided(g, k, res.witness if res.found else None, f"cluster r={r} q={q}",
                        [f"family insertions: {res.family_insertions}"])

    if fam.kind == "clique_minus_clique":
        r, s = fam.params
        if s == 2:
            return _solve_by_paw_kernel(g, k, r + 1, config)
        rho = r - 3

        def triangle(inst, solve):
            return solve_faug_clique_minus_triangle(
                inst, rho, rng, solve, separation_rounds=config.separation_rounds)
        return _expansion_solve(g, k, rho, triangle, rng, config,
                                f"clique-minus-triangle rho={rho}")

    if fam.kind == "clique_minus_bipartite":
        r, s1, s2 = fam.params
        if (s1, s2) == (1, 2):
            return _solve_by_paw_kernel(g, k, r, config)
        if s1 == 1 and s2 == r - 2:
            return _decided(g, k, solve_via_turing(g, k, r, config.budget), f"turing kernel r={r}")
        rho = max(s1, s2, r - s1 - s2)

        def bipartite(inst, solve):
            return solve_faug_clique_minus_bipartite(inst, rho, solve)
        return _expansion_solve(g, k, 3 * rho, bipartite, rng, config,
                                f"clique-minus-bipartite rho={rho}")

    def gem(inst, solve):
        return solve_faug_gem(inst, rng, rounds=config.gem_rounds)
    return _expansion_solve(g, k, 1, gem, rng, config, "gem")


def _solve_p3_free(g: Graph, k: int) -> SolveOutcome:
    """Three-vertex-path-free graphs are disjoint unions of cliques: alpha
    is the number of components."""
    comps = g.connected_components()
    for comp in comps:
        if not g.is_clique_mask(comp):
            p3 = find_induced(g, path(3))
            if p3 is None:
                raise InternalCheckError("a component is not a clique, yet no induced P3 was found")
            raise PatternViolationError("P3", tuple(p3.values()))
    found = [next(bits(c)) for c in comps] if len(comps) >= k else None
    return _decided(g, k, found, "component count (P3-free)")


def _solve_by_paw_kernel(g: Graph, k: int, r: int, config: SolveConfig) -> SolveOutcome:
    res = kernel_paw_like(g, k, r)
    if res.solved:
        found = res.witness if res.verdict == "solved_yes" else None
        return _decided(g, k, found, f"kernel r={r}", res.trace)
    exact = alpha_exact(g, config.budget, mask=res.kept)
    return _decided(g, k, exact.witness if exact.alpha >= k else None,
                    f"kernel r={r} + exact", res.trace)


# -- iterative expansion -------------------------------------------------------

def _expansion_solve(g: Graph, k: int, f_k: int, faug_runner, rng: random.Random,
                     config: SolveConfig, method: str) -> SolveOutcome:
    """Run the expansion driver with the Ramsey stage and the family's
    rainbow solver as its expansion step.  The step only has to be sound:
    the driver's own vertex branching closes whatever the desk-mode caps
    leave undecided, so the decision is exact.  A rainbow solver's witness
    goes back to the driver as it is, and the driver checks it."""
    stats = {"instances": 0, "structured_hits": 0}
    stage = StageConfig(faithful=config.faithful)

    def batch_size(kk: int) -> int:
        return g_faithful(kk, f_k) if config.faithful else f_k + EXTRA_SEED_SETS

    def expansion(gg: Graph, kk: int, sets, solve) -> tuple[int, ...] | None:
        # the driver has branched on the seed sets: what is left avoids them
        outcome = ramsey_extraction_stage(gg, kk, sets, f_k, rng, stage)
        if outcome.early_set is not None:
            return outcome.early_set
        for inst in outcome.instances:
            stats["instances"] += 1
            wit = faug_runner(inst, solve)
            if wit is not None:
                stats["structured_hits"] += 1
                return wit
        return None

    wit = iterexp_driver(g, k, batch_size, expansion)
    return _decided(g, k, wit, method, [f"structured instances tried: {stats['instances']}"
                                        f" (hits: {stats['structured_hits']})"])
