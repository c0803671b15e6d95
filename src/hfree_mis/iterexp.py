"""Iterative expansion and the Ramsey extraction stage.

The driver turns a solver for the structured rainbow problem into a full
independent-set solver: it greedily accumulates vertex-disjoint independent
sets of size k-1, branching into k-1 subproblems when it gets stuck, and
hands a complete batch to the expansion solver.

The extraction stage converts such a batch into structured instances: it
types every ordered pair of seed sets by its bipartite adjacency matrix,
finds a monochromatic clique in the type-colored auxiliary graph, turns its
columns into the extracted cliques, branches over index subsets and
color-coding outcomes, and emits every branch whose part/clique bipartite
graph is connected.

Faithful thresholds (the multicolor Ramsey bounds) are astronomically
large, so the stage also runs in a desk mode where the batch size, index
subsets and repetition counts are caller-supplied; sub-procedures stay
individually testable on planted instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product

from .errors import PatternViolationError
from .graph import Graph, bits, mask_of
from .ramsey import ramsey_multicolor_bound

def classify_relation(g: Graph, ca: tuple[int, ...], cb: tuple[int, ...]) -> str | None:
    """Match the adjacency between two ordered cliques against the four
    allowed shapes, edge by edge."""
    qlen = len(ca)
    empty = full = asc = desc = True
    for i in range(qlen):
        for j in range(qlen):
            e = g.has_edge(ca[i], cb[j])
            if e:
                empty = False
            if e != (i != j):
                full = False
            if e != (i < j):
                asc = False
            if e != (i > j):
                desc = False
    if empty:
        return "empty"
    if full:
        return "full"
    if asc:
        return "semi_asc"
    if desc:
        return "semi_desc"
    return None


@dataclass(frozen=True)
class RamseyCliques:
    """k-1 ordered vertex-disjoint cliques of equal size whose columns are
    independent sets and whose pairwise relations are empty, full or
    semi-full."""

    cliques: tuple[tuple[int, ...], ...]
    relations: tuple[tuple[str | None, ...], ...]

    @property
    def count(self) -> int:
        return len(self.cliques)

    @property
    def size(self) -> int:
        return len(self.cliques[0]) if self.cliques else 0

    @classmethod
    def build(cls, g: Graph, cliques: tuple[tuple[int, ...], ...]) -> "RamseyCliques":
        """Validate the definition and classify every pair relation."""
        qlen = len(cliques[0]) if cliques else 0
        for cl in cliques:
            if len(cl) != qlen:
                raise ValueError("cliques must share one size")
            if not g.is_clique(cl):
                raise ValueError(f"not a clique: {cl}")
        for j in range(qlen):
            col = [cl[j] for cl in cliques]
            if not g.is_independent_set(col):
                raise ValueError(f"column {j} is not independent")
        m = len(cliques)
        rel = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(m):
                if a == b:
                    continue
                rel[a][b] = classify_relation(g, cliques[a], cliques[b])
                if rel[a][b] is None:
                    raise ValueError(f"relation between cliques {a} and {b} matches no allowed shape")
        return cls(tuple(cliques), tuple(tuple(row) for row in rel))


@dataclass(frozen=True)
class FaugInstance:
    """A structured rainbow instance on vertices of ``graph``: candidate
    parts X_1..X_k and extracted cliques C_1..C_{k-1}, for k >= 2.

    Every part sees every clique completely or not at all, and the bipartite
    part/clique adjacency graph is connected.  The instance promises that
    any independent set of size k lies inside the union of the parts.  The
    goal is an independent set of size >= k, or a certificate that no
    independent set meets every part.
    """

    graph: Graph
    k: int
    parts: tuple[int, ...]            # vertex masks, one per part
    cliques: RamseyCliques
    bip: tuple[int, ...]              # per part: bitmask over clique indices

    @classmethod
    def build(cls, g: Graph, k: int, parts: tuple[int, ...],
              cliques: RamseyCliques) -> "FaugInstance":
        """Validate the structure."""
        if k < 2:
            raise ValueError("rainbow instances need k >= 2")
        if len(parts) != k:
            raise ValueError("need exactly k parts")
        if cliques.count != k - 1:
            raise ValueError("need exactly k-1 cliques")
        if any(p == 0 for p in parts):
            raise ValueError("parts must be non-empty")
        clique_masks = [mask_of(cl) for cl in cliques.cliques]
        bip = []
        for p in parts:
            row = 0
            for ci, cm in enumerate(clique_masks):
                links = _part_clique_adjacency(g, p, cm)
                if links == "partial":
                    raise ValueError(f"part sees clique {ci} partially")
                if links == "all":
                    row |= 1 << ci
            bip.append(row)
        # parts 0..k-1, then cliques k..2k-2
        bip_graph = Graph.from_adj(
            [row << k for row in bip]
            + [mask_of(i for i in range(k) if bip[i] >> ci & 1) for ci in range(k - 1)])
        if len(bip_graph.connected_components()) > 1:
            raise ValueError("part/clique bipartite graph is disconnected")
        return cls(g, k, tuple(parts), cliques, tuple(bip))

    def all_parts_mask(self) -> int:
        m = 0
        for p in self.parts:
            m |= p
        return m

    @property
    def mask(self) -> int:
        """The instance's vertices in ``graph``: its parts and cliques."""
        return self.all_parts_mask() | mask_of(v for cl in self.cliques.cliques for v in cl)


def _part_clique_adjacency(g: Graph, part: int, clique_mask: int) -> str:
    seen_all = seen_none = False
    for v in bits(part):
        row = g.adj[v] & clique_mask
        if row == clique_mask:
            seen_all = True
        elif row == 0:
            seen_none = True
        else:
            return "partial"
    if seen_all and seen_none:
        return "partial"
    return "all" if seen_all else "none"


# -- the expansion driver ------------------------------------------------------

def iterexp_driver(g: Graph, k: int, batch_size, expansion_solver):
    """Decide an independent set of size k through iterative expansion.

    Accumulates ``batch_size(k)`` vertex-disjoint independent sets of size
    k-1 (built by recursive self-calls).  The driver alone makes the search
    complete, by branching on a vertex v into a k-1 subproblem outside N[v]:
    on every accumulated vertex when building stalls or the batch is full,
    and, after a full batch, on every other vertex when
    ``expansion_solver(graph, k, sets, solve)`` finds nothing.  That solver
    need only be sound: a witness of size >= k, or None.  ``solve(mask,
    k')`` is a ``MisCallback`` on that graph that re-enters the driver.

    Returns a sorted witness tuple, or None.  Every witness of a subproblem,
    the expansion solver's included, passes ``Graph.checked_witness`` before
    it is memoised, so a bad one raises InternalCheckError.  A
    PatternViolationError names vertices of ``g``.
    """
    memo: dict[tuple[Graph, int], tuple[int, ...] | None] = {}

    def solve(gg: Graph, kk: int) -> tuple[int, ...] | None:
        if kk <= 0:
            return ()
        if gg.n < kk:
            return None
        if kk == 1:
            return (0,)
        key = (gg, kk)
        if key in memo:
            return memo[key]
        wit = _inner(gg, kk)
        if wit is not None:
            wit = gg.checked_witness(wit, kk, "driver")
        memo[key] = wit
        return wit

    def solve_within(gg: Graph, mask: int, kk: int) -> tuple[int, ...] | None:
        """Witness of size kk inside gg[mask], in gg's vertex ids, or None.

        This relabelled copy is kept on purpose: the memo is keyed on it,
        and twin-heavy inputs reach many different masks whose copies are
        equal.  Keyed on the vertex set instead, four gem no-instances on
        24 vertices (disjoint complete multipartite pieces, k = alpha + 1)
        solved 72,124 subproblems instead of 3,415 and ran 17 times slower.
        """
        sub, kept = gg.induced(mask)
        try:
            wit = solve(sub, kk)
        except PatternViolationError as exc:
            raise exc.lifted(kept) from None
        return None if wit is None else tuple(kept[w] for w in wit)

    def branch(gg: Graph, kk: int, vertices) -> tuple[int, ...] | None:
        """A witness holding one of ``vertices``, tried in order, or None."""
        for v in vertices:
            wit = solve_within(gg, gg.full_mask & ~gg.closed_neighborhood(v), kk - 1)
            if wit is not None:
                return wit + (v,)
        return None

    def _inner(gg: Graph, kk: int) -> tuple[int, ...] | None:
        from .oracle import greedy_independent_set

        gi = greedy_independent_set(gg)
        if gi.bit_count() >= kk:
            return tuple(bits(gi))[:kk]
        sets: list[tuple[int, ...]] = []
        used = 0
        target = batch_size(kk)
        while len(sets) < target:
            wit = solve_within(gg, gg.full_mask & ~used, kk - 1)
            if wit is None:
                # every independent set of size kk meets the accumulated sets
                return branch(gg, kk, bits(used))
            s = wit[: kk - 1]
            sets.append(s)
            for v in s:
                used |= 1 << v
        wit = branch(gg, kk, bits(used))
        if wit is None:
            wit = expansion_solver(gg, kk, sets, partial(solve_within, gg))
        if wit is None:
            wit = branch(gg, kk, bits(gg.full_mask & ~used))
        return wit

    return solve(g, k)


# -- pair types and the auxiliary monochromatic clique ------------------------

def pair_type(g: Graph, sa: tuple[int, ...], sb: tuple[int, ...]) -> int:
    """Bit matrix of the adjacency between two ordered (k-1)-sets."""
    t = 0
    idx = 0
    for a in sa:
        for b in sb:
            if g.has_edge(a, b):
                t |= 1 << idx
            idx += 1
    return t


def _max_monochromatic_clique(m: int, color: dict[tuple[int, int], int]) -> list[int]:
    """Largest vertex set of the complete graph on [m] whose pairs all share
    one color; ties go to the color met first, then to the first clique in
    vertex order."""
    best: list[int] = [0] if m else []
    by_color: dict[int, list[int]] = {}
    for (i, j), c in color.items():
        by_color.setdefault(c, []).append((i, j))
    for pairs in by_color.values():
        adj = [0] * m
        for i, j in pairs:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        clique = Graph.from_adj(adj).max_clique()
        if clique.bit_count() > len(best):
            best = list(bits(clique))
    return best


# -- thresholds ---------------------------------------------------------------

def h_faithful(k: int, f_k: int) -> int:
    return f_k * (1 << (k * (k - 1)))


def g_faithful(k: int, f_k: int) -> int:
    """Seed-batch size making the monochromatic clique unconditional."""
    colors = 1 << ((k - 1) * (k - 1))
    return ramsey_multicolor_bound(colors, h_faithful(k, f_k))


# desk-mode caps on the stage's index subsets and signature tuples
MAX_INDEX_SUBSETS = 64
MAX_SIGNATURE_TUPLES = 256


@dataclass(frozen=True)
class StageConfig:
    """The extraction stage's colour-coding rounds.  ``faithful=True`` runs
    one round and lifts the caps MAX_INDEX_SUBSETS and MAX_SIGNATURE_TUPLES
    (only viable for k <= 2)."""

    faithful: bool = False
    color_rounds: int = 4


@dataclass
class StageOutcome:
    instances: list[FaugInstance]
    early_set: tuple[int, ...] | None
    mono_clique_size: int


def ramsey_extraction_stage(g: Graph, k: int, seed_sets: list[tuple[int, ...]],
                            f_k: int, rng: random.Random,
                            config: StageConfig | None = None) -> StageOutcome:
    """Turn disjoint (k-1)-sized independent sets into structured instances.

    Emits one instance per surviving (index subset, coloring, signature
    tuple) branch; may instead return an early independent set when an
    extracted column set turns out independent.  ValueError for k < 2: the
    driver answers k <= 1 itself.
    """
    if k < 2:
        raise ValueError("rainbow instances need k >= 2")
    config = config or StageConfig()
    for s in seed_sets:
        if len(s) != k - 1:
            raise ValueError("seed sets must have size k-1")

    m = len(seed_sets)
    colors = {(i, j): pair_type(g, seed_sets[i], seed_sets[j])
              for i in range(m) for j in range(i + 1, m)}
    mono = sorted(_max_monochromatic_clique(m, colors)) if m > 1 else list(range(m))
    h_req = h_faithful(k, f_k) if config.faithful else f_k
    if len(mono) < max(h_req, f_k):
        return StageOutcome([], None, len(mono))

    # columns of the monochromatic batch form the candidate cliques
    full_cliques = tuple(tuple(seed_sets[i][p] for i in mono) for p in range(k - 1))
    for col in full_cliques:
        if g.is_independent_set(col):
            if len(col) >= k:
                return StageOutcome([], tuple(col[:k]), len(mono))

    subsets = list(combinations(range(len(mono)), f_k))
    if not config.faithful:
        subsets = subsets[:MAX_INDEX_SUBSETS]

    clique_vertices = mask_of(v for cl in full_cliques for v in cl)
    instances: list[FaugInstance] = []
    rounds = 1 if config.faithful else config.color_rounds
    for sel in subsets:
        cliques = tuple(tuple(cl[i] for i in sel) for cl in full_cliques)
        try:
            rc = RamseyCliques.build(g, cliques)
        except ValueError:
            continue  # a restricted column went non-clique: not a usable branch
        cmasks = [mask_of(cl) for cl in cliques]
        used = mask_of(v for cl in cliques for v in cl)
        survivors = 0
        for v in bits(g.full_mask & ~clique_vertices | (clique_vertices & ~used)):
            sig_ok = True
            for cm in cmasks:
                row = g.adj[v] & cm
                if row != 0 and row != cm:
                    sig_ok = False
                    break
            if sig_ok:
                survivors |= 1 << v
        for _ in range(rounds):
            coloring = [rng.randrange(k) for _ in range(g.n)]
            classes: list[dict[int, int]] = [dict() for _ in range(k)]
            for v in bits(survivors):
                sig = 0
                for ci, cm in enumerate(cmasks):
                    if g.adj[v] & cm:
                        sig |= 1 << ci
                cls = classes[coloring[v]]
                cls[sig] = cls.get(sig, 0) | (1 << v)
            if any(not c for c in classes):
                continue
            tuples = list(product(*[sorted(c.items()) for c in classes]))
            if not config.faithful:
                tuples = tuples[:MAX_SIGNATURE_TUPLES]
            for combo in tuples:
                parts = tuple(mask for _sig, mask in combo)
                try:
                    instances.append(FaugInstance.build(g, k, parts, rc))
                except ValueError:
                    continue  # degenerate branch: disconnected bipartite graph
    return StageOutcome(instances, None, len(mono))
