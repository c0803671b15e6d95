"""Exact maximum-independent-set oracle.

Branch and bound over candidate bitmasks.  The upper bound is a clique
cover: alpha never exceeds the number of cover classes meeting the
candidate set (the node's live parts).  Branching picks the live part with
fewest candidates and tries each of its vertices; the branch discarding
the whole part follows only when, at the parent, the parts left could
still beat the best set.  A node budget makes the oracle fail loudly
instead of hanging; it never returns a wrong answer.

A node is tight when its live parts are exactly enough to beat the best
set, so a better set must take one vertex from every live part (the
zero-slack case of the unit propagation on colour classes in Li & Quan,
AAAI 2010).  At a tight node every candidate adjacent to a whole other
part is deleted, since choosing it would empty that part; the node ends
as soon as a part is empty, and deletion repeats until nothing changes.
The rule is sound for any clique cover, overlapping classes included.
Every descendant of a tight node is tight too, so its subtree is searched
with the parts at fixed positions (0 for a part already settled or
branched on) and a mask of the vertices not yet deleted.  A deletion round
deletes the live vertices it hits, recomputes the common neighbourhood of
only the parts they cut, and ends the node when one is empty.  The first
rounds find those parts by a scan of all of them; once the subtree's scans
have read as many parts as its root had vertices, an index from each
vertex to the positions of its parts (several, for overlapping classes) is
built once for the whole subtree, and a round then costs only the parts
it cuts.  A tight root whose parts are all the classes of a
``CheckedCover`` (a construction's reach search) starts with the index of
those classes, which depends on the classes and n alone and is kept for
the last ``CACHED_SHAPES`` of them.  At the fixpoint every part cut down
to one vertex is settled at once, since its vertex's neighbours are
already deleted; two settled
parts naming one vertex (of overlapping classes) end the node.  The
subtree returns at its first set that beats the best.

A supplied cover is read once: ``check_cover`` checks in one pass over
each class's closed rows that the class is a clique, and from the same
rows gives the first deletion set of a tight root.  The ``CheckedCover``
it returns is taken as it stands by ``alpha_exact`` and ``alpha_reaches``
on the graph object and mask it was checked against; any other cover, a
``CheckedCover`` of another graph or mask included, is checked first.

One search serves two entries: ``alpha_exact`` starts from a floor (a
greedy independent set, or one the caller holds) and returns alpha with a
witness; ``alpha_reaches`` starts from the bound k - 1 and stops at the
first independent set of k vertices.  ``alpha_exact`` also searches G[mask]
as it would search the relabelled copy, with a witness in G's vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import and_

from .errors import BudgetExceededError, InternalCheckError
from .graph import Graph, bits

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class AlphaResult:
    alpha: int
    witness: tuple[int, ...]
    nodes_used: int


def greedy_clique_cover(g: Graph, order: list[int] | None = None,
                        mask: int | None = None) -> list[int]:
    """Partition of ``mask`` (default: V) into cliques (as masks), greedily by
    descending degree inside the mask, ties to the lower index, unless
    ``order`` gives the vertices in another order."""
    cands = g.vertex_mask(mask)
    if order is None:
        adj = g.adj
        order = sorted(bits(cands), key=lambda v: (adj[v] & cands).bit_count(), reverse=True)
    classes: list[int] = []
    for v in order:
        bit = 1 << v
        for i, cls in enumerate(classes):
            if cls & ~g.adj[v] == 0:
                classes[i] = cls | bit
                break
        else:
            classes.append(bit)
    return classes


def greedy_independent_set(g: Graph, mask: int | None = None) -> int:
    """Min-degree greedy independent set within ``mask``, as a mask."""
    cands = g.vertex_mask(mask)
    out = 0
    while cands:
        best, best_deg = -1, g.n + 1
        for v in bits(cands):
            d = (g.adj[v] & cands).bit_count()
            if d < best_deg:
                best, best_deg = v, d
        out |= 1 << best
        cands &= ~g.closed_neighborhood(best)
    return out


@dataclass(frozen=True)
class CheckedCover:
    """Clique classes known to cover exactly ``mask`` of ``graph``, from
    ``check_cover``.  ``root_dead`` is the union over the classes of their
    closed common neighbourhood minus the class: the first deletion set of
    a tight search root."""
    graph: Graph
    mask: int
    classes: tuple[int, ...]
    root_dead: int


def check_cover(g: Graph, classes, mask: int | None = None,
                what: str = "cover class") -> CheckedCover:
    """``classes`` (masks) once each is known to be a clique of G and their
    union to be ``mask`` (default: V); ValueError otherwise, naming the
    offending class as ``what``.  One pass over the closed rows of each
    class checks it and yields its share of ``root_dead``."""
    mask = g.vertex_mask(mask)
    classes = tuple(classes)
    adj, n = g.adj, g.n
    union = root_dead = 0
    for cls in classes:
        if cls < 0 or cls.bit_length() > n:
            raise ValueError(f"{what} {cls:#x} is not a set of vertices of G")
        if not cls:
            continue
        union |= cls
        common, low = -1, cls & -cls
        if cls & (cls + low):
            rest = cls
            while rest:
                low = rest & -rest
                common &= adj[low.bit_length() - 1] | low
                rest ^= low
        else:
            # consecutive vertices, as a construction's main clique
            for row in adj[low.bit_length() - 1:cls.bit_length()]:
                common &= row | low
                low <<= 1
        if cls & ~common:
            raise ValueError(f"{what} {tuple(bits(cls))} is not a clique")
        root_dead |= common ^ cls
    if union != mask:
        raise ValueError(f"cover classes cover {tuple(bits(union))}, "
                         f"not the {mask.bit_count()} vertices searched")
    return CheckedCover(g, mask, classes, root_dead & mask)


def alpha_exact(g: Graph, budget: int = DEFAULT_BUDGET,
                cover: list[int] | CheckedCover | None = None,
                floor: int | None = None, mask: int | None = None) -> AlphaResult:
    """Exact alpha(G[mask]) (default: all of G) with a witness, or
    BudgetExceededError.

    On a mask the search is the one on the copy G[mask]: the greedy cover
    orders the mask by degree inside it, and the greedy floor is drawn
    inside it.  ``cover`` may supply a known clique cover (e.g. the main
    cliques of a hardness construction) to sharpen pruning: a
    ``CheckedCover`` of this very graph and mask is used as it stands, and
    any other cover is checked with ``check_cover``.  ``floor`` is an
    independent set already held (as a mask), which the search must beat.
    ValueError when the mask names vertices outside G, a cover class is not
    a clique or the classes do not cover exactly the mask, or the floor is
    not an independent set inside the mask.
    """
    mask = g.vertex_mask(mask)
    classes, root_dead = _cover_of(g, cover, mask)
    if floor is None:
        floor = greedy_independent_set(g, mask)
    elif floor < 0 or floor & ~mask or not g.is_independent_mask(floor):
        raise ValueError(f"floor {floor:#x} is not an independent set of the vertices searched")
    if not mask:
        return AlphaResult(0, (), 0)
    best, nodes = _search(g, classes, root_dead, mask, floor, floor.bit_count(),
                          mask.bit_count() + 1, budget)
    return AlphaResult(best.bit_count(), tuple(bits(best)), nodes)


def alpha_reaches(g: Graph, k: int, budget: int = DEFAULT_BUDGET,
                  cover: list[int] | CheckedCover | None = None) -> tuple[int, ...] | None:
    """An independent set of exactly k vertices, or None when alpha(G) < k;
    BudgetExceededError when the search runs out.

    The same search as ``alpha_exact`` with the bound fixed at k - 1 and no
    greedy floor: it prunes every branch that cannot reach k and stops at
    the first set that does.  ``cover`` is taken as in ``alpha_exact``.
    """
    classes, root_dead = _cover_of(g, cover, g.full_mask)
    if k <= 0:
        return ()
    found, _nodes = _search(g, classes, root_dead, g.full_mask, 0, k - 1, k, budget)
    return tuple(bits(found)) if found.bit_count() == k else None


def _cover_of(g: Graph, cover: list[int] | CheckedCover | None,
              mask: int) -> tuple[list[int] | tuple[int, ...], int | None]:
    """The classes to search G[mask] with, and the root's deletion set when
    the check has computed it: the greedy cover when none is supplied, a
    checked cover of G and this mask as it stands, any other checked."""
    if cover is None:
        return greedy_clique_cover(g, mask=mask), None
    if isinstance(cover, CheckedCover):
        if cover.graph is g and cover.mask == mask:
            return cover.classes, cover.root_dead
        cover = cover.classes
    checked = check_cover(g, cover, mask)
    return checked.classes, checked.root_dead


def _part_index(parts, n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """For each of the n vertices, the positions of the ``parts`` holding it
    (``owner``), and the vertices held by more than one part (``shared``).
    A part of consecutive vertices (a construction's main clique) that meets
    no earlier part is filled in one slice."""
    owner, shared = [()] * n, 0
    for i, part in enumerate(parts):
        one = (i,)
        low = part & -part
        v, end = low.bit_length() - 1, part.bit_length()
        if part & (part + low) or any(owner[v:end]):
            while part:
                low = part & -part
                v = low.bit_length() - 1
                if owner[v]:
                    shared |= low
                owner[v] += one
                part ^= low
        else:
            owner[v:end] = [one] * (end - v)
    return tuple(owner), shared


# the index of a checked cover's classes, a pure function of the classes
# and n, kept for the last CACHED_SHAPES of them: a process that builds many
# constructions of one shape searches each with the same classes
CACHED_SHAPES = 16
_class_index = lru_cache(maxsize=CACHED_SHAPES)(_part_index)


class _Reached(Exception):
    """Unwinds the search at the first independent set of the target size."""


def _search(g: Graph, cover: list[int] | tuple[int, ...], root_dead: int | None, mask: int,
            best_mask: int, best: int, target: int, budget: int) -> tuple[int, int]:
    """Branch and bound for an independent set of more than ``best`` vertices
    of G[mask].

    Returns the largest set found (``best_mask`` when none beats ``best``) and
    the nodes used; with ``target`` <= n it returns at the first set of
    ``target`` vertices instead.  Each node keeps the classes of its parent's
    live list that still meet its candidates, in the parent's order, which
    is the list a filter of the whole cover would give.  A tight node that
    survives its first deletion set hands its live parts to ``settle``,
    which searches the rest of its subtree; ``root_dead``, when given, is
    that set at the root.  InternalCheckError unless a set returned as
    beating ``best`` is independent and has exactly the number of vertices
    the search counted.
    """
    adj = g.adj
    nodes = 0
    start = best
    # the tight subtree being searched: its root's parts (``top``) and an
    # index of the positions of the parts holding each vertex (``owner``;
    # vertices held by more than one part are ``shared``).  A scan reads
    # every part each round; the index costs about a step per vertex of
    # ``top`` once and then only the parts a round cuts.  So it is built once
    # the subtree's scans have read as many parts as ``top`` holds vertices
    # (``unread`` counts down), and the subtree pays at most about twice
    # the cheaper way.  A tight root whose parts are all the classes of a
    # checked cover takes the index of those classes from ``_class_index``
    top: list[int] = []
    owner: tuple[tuple[int, ...], ...] | None = None
    shared = unread = 0

    def common_of(part: int) -> int:
        """The vertices adjacent to every vertex of ``part``."""
        low = part & -part
        common = adj[low.bit_length() - 1]
        part ^= low
        while part:
            low = part & -part
            common &= adj[low.bit_length() - 1]
            part ^= low
        return common

    def settle(parts: list[int], removed: int, alive: int, chosen: int, count: int) -> bool:
        """One node of a tight subtree: a better set takes one vertex from every
        nonzero entry of ``parts``, which keep their positions (0 marks a part
        already settled or branched on), and no vertex outside ``alive``.
        Deletes ``removed`` and whatever that makes unchoosable, settles every
        part cut down to one vertex, then branches on the first smallest
        part; True once a set beating ``best`` is found.
        """
        nonlocal best, best_mask, nodes, unread, owner, shared
        positions = range(len(parts))
        # a round deletes the live hits and recomputes the common
        # neighbourhood of each part they cut, found by a scan of all parts
        # until the index is built
        while hits := removed & alive:
            alive ^= hits
            keep, removed = ~hits, 0
            if owner is None:
                for i in compress(positions, map(and_, repeat(hits), parts)):
                    parts[i] = part = parts[i] & keep
                    if not part:
                        return False
                    removed |= common_of(part)
                unread -= len(parts)
                if unread <= 0 and removed & alive:
                    owner, shared = _part_index(top, g.n)
                continue
            todo = hits
            while todo:
                low = todo & -todo
                todo ^= low
                for i in owner[low.bit_length() - 1]:
                    part = parts[i]
                    # a part zeroed, or cut earlier in this round, holds no hit
                    if part & low:
                        # its other hits need no lookup, unless another part
                        # holds them too
                        todo &= shared | ~part
                        parts[i] = part = part & keep
                        if not part:
                            return False
                        removed |= common_of(part)
        cls = min(filter(None, parts), key=int.bit_count, default=0)
        if cls.bit_count() == 1:
            # propagation has deleted the neighbours of every one-vertex part,
            # so all of them join the set at once
            settled = 0
            for i in compress(positions, map((1).__eq__, map(int.bit_count, parts))):
                part = parts[i]
                if settled & part:
                    return False    # two overlapping classes name one vertex
                settled |= part
                parts[i] = 0
                count += 1
            chosen |= settled
            cls = min(filter(None, parts), key=int.bit_count, default=0)
        if not cls:
            best, best_mask = count, chosen
            if count >= target:
                raise _Reached
            return True
        parts[parts.index(cls)] = 0
        for v in bits(cls):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(nodes, budget)
            # the class is a clique through v: N[v] covers it
            if settle(parts[:], cls | adj[v], alive, chosen | 1 << v, count + 1):
                return True
        return False

    def search(parent_live: list[int], cands: int, chosen: int, count: int) -> None:
        nonlocal best, best_mask, nodes, top, owner, shared, unread
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, budget)
        if count >= target:
            best, best_mask = count, chosen
            raise _Reached
        live = [part for cls in parent_live if (part := cls & cands)]
        slack = count + len(live) - best
        if slack <= 0:
            return
        if not live:
            best, best_mask = count, chosen
            return
        if slack == 1:
            # tight: only a set taking one vertex from every live part beats
            # best, so a candidate adjacent to a whole part is no member
            if nodes == 1 and root_dead is not None:
                dead = root_dead    # computed by the cover's check
            else:
                # common_of inline: a call per part costs dense random graphs
                # about 8% of their search time
                dead = 0
                for part in live:
                    low = part & -part
                    common = adj[low.bit_length() - 1]
                    part ^= low
                    while part:
                        low = part & -part
                        common &= adj[low.bit_length() - 1]
                        part ^= low
                    dead |= common
                dead &= cands
            # most tight nodes end here, before any part is recomputed
            if dead and not all(map(and_, repeat(cands & ~dead), live)):
                return
            top, owner, unread = live, None, cands.bit_count()
            if nodes == 1 and root_dead is not None and len(live) == len(cover):
                # every class of a checked cover is live: its index is
                # computed once per process
                owner, shared = _class_index(cover, g.n)
            settle(live[:], dead, cands, chosen, count)
            return
        # branch on the sparsest live class: one subtree per member, plus skip;
        # the class is a clique through v, so skip & ~adj[v] is cands - N[v]
        cls = min(live, key=int.bit_count)
        skip = cands & ~cls
        for v in bits(cls):
            search(live, skip & ~adj[v], chosen | 1 << v, count + 1)
        if count + len(live) - 1 > best:
            search(live, skip, chosen, count)

    try:
        search(cover, mask, 0, 0)
    except _Reached:
        pass
    if best > start and best_mask.bit_count() != best:
        raise InternalCheckError(f"oracle counted {best} vertices in {tuple(bits(best_mask))}")
    if not g.is_independent_mask(best_mask):
        raise InternalCheckError(f"oracle witness {tuple(bits(best_mask))} is not independent")
    return best_mask, nodes


def enumerate_independent_sets(g: Graph, mask: int | None = None):
    """Yield every independent subset of ``mask`` (including the empty set)."""
    def rec(cur: int, cands: int):
        yield cur
        rest = cands
        for v in bits(cands):
            rest &= ~(1 << v)
            yield from rec(cur | (1 << v), rest & ~g.adj[v])

    yield from rec(0, g.vertex_mask(mask))
