"""Kernelizations: the Ramsey kernel for clique-free graphs, the polynomial
kernel for graphs excluding a clique minus a two-leaf star, and the
polynomial Turing kernel for graphs excluding a clique with a pendant
vertex.

Every reduction keeps the answer: a KernelResult is either the instance
solved outright (with a verified witness for yes), or a reduced instance
that is an induced subgraph of the input and is yes iff the input was.
The kernels and the Turing drivers name every subgraph by its vertex mask
of the input, so witnesses and violations are in input vertex ids.
Structural checks are verified computationally; when one fails, the
offending induced pattern is raised, never an unsound deletion applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, InternalCheckError, PatternViolationError
from .graph import Graph, bits, mask_of
from .oracle import DEFAULT_BUDGET, alpha_exact, greedy_independent_set
from .ramsey import eh_extract, ramsey_bound, ramsey_extract


@dataclass
class KernelResult:
    """A solved instance, or the reduced instance G[kept] with the same k."""

    verdict: str                      # "reduced" | "solved_yes" | "solved_no"
    witness: tuple[int, ...] = ()
    kept: int = 0                     # the reduced instance's vertex mask
    trace: list[str] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.verdict != "reduced"


def kernel_krfree(g: Graph, k: int, r: int) -> KernelResult:
    """Ramsey kernel for K_r-free graphs.

    Large instances are immediately yes (the clique branch of the extractor
    is impossible); anything below ramsey_bound(r, k) is its own kernel.
    """
    if k <= 0:
        return KernelResult("solved_yes", trace=["k <= 0"])
    if g.n >= ramsey_bound(r, k):
        out = ramsey_extract(g, r, k)
        if out.kind == "clique":
            raise PatternViolationError(f"K{r}", out.members, "input is not clique-free")
        return KernelResult("solved_yes", out.members, trace=[f"ramsey: n >= bound({r},{k})"])
    return KernelResult("reduced", kept=g.full_mask,
                        trace=[f"below bound({r},{k}) = {ramsey_bound(r, k)}"])


# -- clique minus a two-leaf star ---------------------------------------------

def _maximalize_clique(g: Graph, clique: int, mask: int) -> int:
    for v in bits(mask & ~clique):
        if clique & ~g.adj[v] == 0:
            clique |= 1 << v
    return clique


def _multipartite_classes(g: Graph, c_mask: int, b_mask: int, r: int) -> list[int]:
    """Partition C u B into the parts of a complete multipartite graph, or
    raise with the clique-minus-star witness refuting it.

    Every B vertex misses exactly one C vertex; same miss means non-edge,
    different miss means edge.  Requires |C| >= r-1 so witnesses exist.
    """
    c_list = list(bits(c_mask))
    part_of = {x: i for i, x in enumerate(c_list)}
    parts = [1 << x for x in c_list]
    miss = {}
    for u in bits(b_mask):
        non = c_mask & ~g.adj[u]
        if non.bit_count() != 1:
            raise InternalCheckError(f"vertex {u} misses {non.bit_count()} core vertices, not one")
        x = next(bits(non))
        miss[u] = x
        parts[part_of[x]] |= 1 << u
    bs = list(bits(b_mask))
    for i, u in enumerate(bs):
        for w in bs[i + 1:]:
            if miss[u] == miss[w] and g.has_edge(u, w):
                others = [x for x in c_list if x != miss[u]][: r - 3]
                raise PatternViolationError(
                    f"K{r}-K1,2", (u, w, miss[u], *others), "equal misses but adjacent")
            if miss[u] != miss[w] and not g.has_edge(u, w):
                others = [x for x in c_list if x not in (miss[u], miss[w])][: r - 3]
                raise PatternViolationError(
                    f"K{r}-K1,2", (miss[u], u, w, *others), "distinct misses but non-adjacent")
    return parts


def kernel_paw_like(g: Graph, k: int, r: int) -> KernelResult:
    """Kernel for graphs excluding K_r minus a two-leaf star (r >= 4).

    Repeatedly extracts a clique, verifies the complete multipartite
    structure around it, and deletes all but the largest (k-1)(r-4)+1
    parts; interleaved with sound component reductions (complete
    multipartite components collapse to their largest part, clique-free
    components resolve by the Ramsey kernel, and a large greedy independent
    set answers yes outright).  Every rule works on the mask of the
    vertices still kept, which is also the reduced instance.
    """
    if r < 4:
        raise ValueError("need r >= 4")
    if k <= 0:
        return KernelResult("solved_yes", trace=["k <= 0"])
    q = (k - 1) * (r - 4) + 1
    clique_floor = max(q, 2 * r - 6)

    alive = g.full_mask
    trace: list[str] = []

    for _ in range(g.n + 1):
        if alive.bit_count() < k:
            return KernelResult("solved_no", trace=trace + ["fewer than k vertices"])
        gi = greedy_independent_set(g, alive)
        if gi.bit_count() >= k:
            trace.append("greedy independent set reached k")
            return KernelResult("solved_yes", tuple(bits(gi)), trace=trace)

        reduced, result = _component_passes(g, alive, k, r, trace)
        if result is not None:
            return result
        if reduced is not None:
            alive = reduced
            continue

        out = eh_extract(g, r, 2, mask=alive)
        if out.kind == "independent_set":
            if out.size >= k:
                trace.append("extracted independent set reached k")
                return KernelResult("solved_yes", out.members, trace=trace)
            trace.append(f"extractor returned a small independent set at n={alive.bit_count()}")
            break
        clique = _maximalize_clique(g, mask_of(out.members), alive)
        if clique.bit_count() <= clique_floor:
            trace.append(f"clique size {clique.bit_count()} at or below floor {clique_floor}")
            break

        reduced = _star_kernel_rule(g, alive, r, q, clique, trace)
        if reduced is None:
            break
        alive = reduced

    return KernelResult("reduced", kept=alive, trace=trace)


def _component_passes(g: Graph, alive: int, k: int, r: int, trace: list[str]):
    """Sound per-component reductions on G[alive]; returns (kept mask, None)
    on a deletion, (None, KernelResult) when solved, (None, None)
    otherwise."""
    comps = g.connected_components(alive)
    for comp in comps:
        # complete multipartite: its co-components, the parts, are independent
        parts = g.co_components(comp)
        if len(parts) >= 2 and all(map(g.is_independent_mask, parts)):
            largest = max(parts, key=int.bit_count)
            drop = comp & ~largest
            if drop:
                trace.append(f"multipartite component collapsed to its largest part ({largest.bit_count()})")
                return alive & ~drop, None
    for comp in comps:
        # a greedy clique is no larger than the clique number, and the
        # bound grows with the clique size, so below its bound none fires
        greedy = _maximalize_clique(g, 0, comp).bit_count()
        if comp.bit_count() < ramsey_bound(greedy + 1, k):
            continue
        omega = g.max_clique(comp).bit_count()
        if comp.bit_count() >= ramsey_bound(omega + 1, k):
            out = ramsey_extract(g, omega + 1, k, comp)
            if out.kind != "independent_set":
                raise InternalCheckError(
                    f"component has a clique larger than its clique number {omega}")
            trace.append(f"component saturated the bound for clique number {omega}")
            return None, KernelResult("solved_yes", out.members, trace=list(trace))
    return None, None


def _star_kernel_rule(g: Graph, alive: int, r: int, q: int, clique: int,
                      trace: list[str]) -> int | None:
    """One application of the part-deletion rule around a maximal clique of
    G[alive], with all structural prerequisites verified; the kept mask, or
    None when inapplicable."""
    neighborhood = g.neighborhood(clique) & alive & ~clique
    b_mask = 0
    csize = clique.bit_count()
    for u in bits(neighborhood):
        deg_c = (g.adj[u] & clique).bit_count()
        if deg_c == csize - 1:
            b_mask |= 1 << u
        elif deg_c > r - 4:
            nbrs = list(bits(g.adj[u] & clique))[: r - 3]
            nons = list(bits(clique & ~g.adj[u]))[:2]
            raise PatternViolationError(
                f"K{r}-K1,2", (u, *nbrs, *nons), "neighbor with intermediate core degree")

    parts = _multipartite_classes(g, clique, b_mask, r)

    outside = alive & ~clique & ~b_mask
    for u in bits(outside):
        touched = [pi for pi, p in enumerate(parts) if g.adj[u] & p]
        if len(touched) > r - 4:
            ys = [next(bits(parts[pi] & g.adj[u])) for pi in touched[: r - 3]]
            spare = clique & ~g.adj[u]
            for pi in touched[: r - 3]:
                spare &= ~parts[pi]
            xs = list(bits(spare))[:2]
            if len(xs) != 2:
                raise InternalCheckError("clique floor guarantees spare core vertices")
            raise PatternViolationError(
                f"K{r}-K1,2", (u, *ys, *xs), "outside vertex touching too many parts")

    parts.sort(key=int.bit_count, reverse=True)
    drop = 0
    for p in parts[q:]:
        drop |= p
    if not drop:
        trace.append("part-deletion rule inapplicable")
        return None
    trace.append(f"deleted {drop.bit_count()} vertices beyond the {q} largest parts")
    return alive & ~drop


# -- Turing kernel for a clique with a pendant vertex -------------------------

@dataclass
class TuringKernelOutput:
    """Bounded subinstances whose disjunction answers the input: triples
    (vertex mask of the input, parameter, guessed vertices), where a set of
    that many vertices in the mask plus the guessed ones is a solution;
    (0, 0, found) stands for a subinstance already solved by ``found``."""

    subinstances: list[tuple[int, int, tuple[int, ...]]]
    notes: list[str] = field(default_factory=list)


def turing_kernel_star(g: Graph, k: int, r: int, mask: int | None = None) -> TuringKernelOutput:
    """Subinstance generator for a connected G[mask] (default: all of G)
    excluding K_r minus a star with r-2 leaves (a clique of size r-1 with a
    pendant vertex); r >= 4.

    Extracts a clique C, certifies V = C u N(C) with every neighbor seeing
    all but at most r-3 of C, and emits the complement-of-neighborhood
    instances; each is clique-free enough for the Ramsey kernel to shrink it
    to O(k^(r-3)) vertices.  An empty mask (alpha 0) emits none for k >= 1.
    """
    if r < 4:
        raise ValueError("need r >= 4")
    mask = g.vertex_mask(mask)
    if len(g.connected_components(mask)) > 1:
        raise ValueError("turing_kernel_star expects a connected graph")
    if k <= 0:
        return TuringKernelOutput([(0, 0, ())], notes=["trivially yes"])
    if not mask:
        return TuringKernelOutput([], notes=["empty graph"])
    if k == 1:
        return TuringKernelOutput([(0, 0, (next(bits(mask)),))], notes=["any vertex"])

    out = eh_extract(g, r, r - 2, mask)
    if out.kind == "independent_set":
        if out.size >= k:
            return TuringKernelOutput([(0, 0, out.members[:k])], notes=["extractor found the set"])
        return TuringKernelOutput([(mask, k, ())], notes=["small instance (extractor bound)"])
    clique = _maximalize_clique(g, mask_of(out.members), mask)
    csize = clique.bit_count()
    if csize <= r * r:
        return TuringKernelOutput([(mask, k, ())], notes=["small instance (bounded clique)"])

    b_mask = g.neighborhood(clique) & mask & ~clique
    for u in bits(b_mask):
        if (g.adj[u] & clique).bit_count() < csize - (r - 3):
            nbr = next(bits(g.adj[u] & clique))
            nons = list(bits(clique & ~g.adj[u]))[: r - 2]
            raise PatternViolationError(f"K{r}-K1,{r - 2}", (u, nbr, *nons),
                                        "neighbor missing too much of the clique")
    outside = mask & ~clique & ~b_mask
    if outside:
        u = next(v for v in bits(b_mask) if g.adj[v] & outside)
        w = next(bits(g.adj[u] & outside))
        core = list(bits(g.adj[u] & clique))[: r - 2]
        raise PatternViolationError(f"K{r}-K1,{r - 2}", (w, u, *core),
                                    "vertex at distance two from the clique")

    subs: list[tuple[int, int, tuple[int, ...]]] = []
    notes: list[str] = []
    for u in bits(b_mask):
        piece = b_mask & ~g.closed_neighborhood(u)
        subs.append(_reduced_sub(g, piece, k - 1, r, clique, (u,)))
        for v in bits(clique & ~g.adj[u]):
            subs.append(_reduced_sub(g, piece & ~g.closed_neighborhood(v), k - 2, r, clique, (u, v)))
    notes.append(f"emitted {len(subs)} subinstances from a clique of size {csize}")
    return TuringKernelOutput(subs, notes=notes)


def _reduced_sub(g: Graph, piece: int, k_sub: int, r: int, clique: int,
                 guessed: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """The piece, outside the closed neighbourhoods of the guessed u (and v),
    avoids cliques of size r-2, so the Ramsey kernel applies with r-2.  A
    clique Q there, a vertex x of the big clique seeing u and all of Q, and
    u induce K_r - K_{1,r-2}: u misses at most r-3 clique vertices and so
    does each vertex of Q, fewer than the clique's r^2."""
    if k_sub <= 0:
        return 0, 0, guessed
    if piece.bit_count() >= ramsey_bound(r - 2, k_sub):
        out = ramsey_extract(g, r - 2, k_sub, piece)
        if out.kind == "clique":
            sees_all = clique & g.adj[guessed[0]]
            for q in out.members:
                sees_all &= g.adj[q]
            if not sees_all:
                raise InternalCheckError("a clique of more than r^2 vertices leaves no common neighbour")
            raise PatternViolationError(
                f"K{r}-K1,{r - 2}", (*out.members, next(bits(sees_all)), guessed[0]),
                "emitted piece contains a large clique")
        return 0, 0, guessed + out.members[:k_sub]  # the extractor solved it
    return piece, k_sub, guessed


class _SharedBudget:
    """One node budget charged by a sequence of oracle calls, each asking for
    k independent vertices of G[mask]: a call gets what those before it left."""

    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0

    def reaches(self, g: Graph, mask: int, k: int) -> tuple[int, ...] | None:
        try:
            res = alpha_exact(g, self.budget - self.used, mask=mask)
        except BudgetExceededError as exc:
            raise BudgetExceededError(self.used + exc.nodes_used, self.budget) from None
        self.used += res.nodes_used
        return res.witness[:max(k, 0)] if res.alpha >= k else None


def solve_via_turing(g: Graph, k: int, r: int,
                     budget: int = DEFAULT_BUDGET) -> tuple[int, ...] | None:
    """Driver: per connected component, the largest target its subinstances
    support, witnessed by the first yes subinstance's set plus its guessed
    vertices.  A sorted independent set of k vertices, the union of the
    components' sets, or None when their targets sum to less than k.  Every
    oracle call draws on the one ``budget``."""
    shared = _SharedBudget(budget)
    found: list[int] = []
    for comp in g.connected_components():
        best: tuple[int, ...] = ()
        for i in range(1, k + 1):
            out = turing_kernel_star(g, i, r, comp)
            hit = next((guessed + sub for j_mask, j_k, guessed in out.subinstances
                        if (sub := shared.reaches(g, j_mask, j_k)) is not None), None)
            if hit is None:
                break
            best = hit
        found += best
        if len(found) >= k:
            break
    return tuple(sorted(found)[:max(k, 0)]) if len(found) >= k else None


def solve_via_isolated_clique(g: Graph, k: int, r: int,
                              budget: int = DEFAULT_BUDGET) -> tuple[int, ...] | None:
    """Driver for graphs excluding K_{r-1} plus an isolated vertex, the
    Turing kernel behind the verdict rule ``turing-kernel:isolated-vertex``:
    guess a solution vertex v; its non-neighborhood is K_{r-1}-free, so it
    is solved by the Ramsey extractor when it reaches ramsey_bound(r-1, k-1)
    vertices and is a bounded instance for the oracle otherwise.  A sorted
    independent set of k vertices (v and the non-neighborhood's set), or
    None when alpha < k.  Every oracle call draws on the one ``budget``."""
    if k <= 0:
        return ()
    if k == 1:
        return (0,) if g.n else None
    shared = _SharedBudget(budget)
    for v in range(g.n):
        non = g.full_mask & ~g.closed_neighborhood(v)
        if non.bit_count() >= ramsey_bound(r - 1, k - 1):
            out = ramsey_extract(g, r - 1, k - 1, non)
            if out.kind == "clique":
                raise PatternViolationError(f"K{r - 1}+K1", (*out.members, v),
                                            "clique in a non-neighborhood")
            return tuple(sorted((v, *out.members[:k - 1])))
        sub = shared.reaches(g, non, k - 1)
        if sub is not None:
            return tuple(sorted((v, *sub)))
    return None
