"""Exhaustive induced-subgraph detection for small patterns.

A connected pattern H can only sit inside one connected component of
G[mask], so for connected H the host is split into its components once,
components with fewer than |H| vertices are skipped, and each remaining
component is searched on its own; a disconnected H is searched over the
whole mask.

Each search backtracks over an ordering of the pattern vertices chosen so
that each new vertex is constrained by as many already-placed ones as
possible; the candidate set at every level is a single bitmask
intersection.  The order counts the constraints that prune in the host
part at hand: the pattern's edges when that part has edge density at most
1/2, its non-edges (the edges of the complement) when it is denser.  The
density is a component's own, so a host that is sparse as a whole but
dense inside each component is searched in the non-edge order.  Twins of
the pattern are interchangeable, so a vertex with a twin placed earlier
takes only host vertices above that twin's image; the search then never
revisits a twin-permuted copy of a partial embedding, which is what makes
exhaustive misses on dense hosts cheap.

Candidates are also pruned by neighbourhood signatures, Ullmann's
refinement (J. ACM 23, 1976) cut down to what one host vertex shows.  The
signature of a pattern vertex x is its degree, its non-degree
|H| - 1 - deg(x), whether H[N(x)] has a non-edge and whether H - N[x] has
an edge.  An embedding maps N(x) into N(w) and the rest of H into
part - N[w], so host vertex w can take x only if, inside G[part], it has
at least x's degree and non-degree, N(w) has a non-edge when N(x) has one,
and part - N[w] has an edge when H - N[x] has one.  A pruned vertex takes
part in no embedding that maps x to it, so the answer and the first
embedding found are those of the unpruned search.  Each (signature, w)
pair is tested at most once per part, when w first turns up as a
candidate, and the results are kept as masks, so a node whose candidates
are all tested pays one intersection.  On a split graph (a clique plus an
independent set) only independent vertices fit a 2K2 vertex, and their
neighbours do not; only clique vertices fit a C4 vertex, and they are
pairwise adjacent; no vertex fits a C5 vertex.  These exhaustive misses
therefore end within two levels of the root.

The plan of a pattern (order, constraints, twin levels, signatures) is
built at most once per density choice in a call, however many components
are searched.  It is cached by H's adjacency rows from the second call on
that pattern, so callers that ask about the same few patterns thousands of
times do not rebuild it, and a pattern asked about once leaves nothing
behind for the garbage collector.
"""

from __future__ import annotations

from .graph import Graph, bits, complement
from .patterns import HPattern, PATTERN_CAP


def _search_order(rows: list[int]) -> list[int]:
    """Greedy order over a graph given by its adjacency rows: next comes
    the vertex with the most placed neighbours, ties to the higher degree,
    then to the lower index."""
    n = len(rows)
    degs = [row.bit_count() for row in rows]
    order = []
    placed = 0
    for _ in range(n):
        best, best_key = -1, -1
        for v in range(n):
            if not placed >> v & 1:
                key = (rows[v] & placed).bit_count() * n + degs[v]
                if key > best_key:
                    best, best_key = v, key
        order.append(best)
        placed |= 1 << best
    return order


def _plan(hg: Graph, dense: bool) -> tuple:
    """The search plan for a host part denser than 1/2 (``dense``) or not:
    the order of H's vertices; per level of that order the pairs (placed
    level, must_be_adjacent), the level of the last twin placed before it
    (-1 when none) and the index of its vertex's signature; and the
    distinct signatures, in order of first level.  u and v are twins when
    their neighbourhoods agree outside {u, v}; the signature of x is
    (deg(x), |H| - 1 - deg(x), whether H[N(x)] has a non-edge, whether
    H - N[x] has an edge)."""
    order = _search_order(complement(hg).adj if dense else hg.adj)
    rows = hg.adj
    twice_m = sum(map(int.bit_count, rows))
    constraints = []
    twin_level = []
    level_sig = []
    sig_index: dict[tuple[int, int, bool, bool], int] = {}
    for i, pv in enumerate(order):
        cons = []
        twin = -1
        for j in range(i):
            qv = order[j]
            cons.append((j, rows[pv] >> qv & 1))
            if rows[pv] & ~(1 << qv) == rows[qv] & ~(1 << pv):
                twin = j
        constraints.append(tuple(cons))
        twin_level.append(twin)
        # inner: twice the edges inside N(x); touching: the degree sum over
        # N(x); H - N[x] keeps m - touching + inner / 2 edges
        nb = rows[pv]
        deg = nb.bit_count()
        inner = touching = 0
        for u in bits(nb):
            inner += (rows[u] & nb).bit_count()
            touching += rows[u].bit_count()
        sig = (deg, hg.n - 1 - deg, inner < deg * (deg - 1), twice_m - 2 * touching + inner > 0)
        level_sig.append(sig_index.setdefault(sig, len(sig_index)))
    return tuple(order), tuple(constraints), tuple(twin_level), tuple(level_sig), tuple(sig_index)


# H's adjacency rows -> whether H is connected, for every pattern asked
# about; and, per density choice, H's rows -> its plan, for the patterns
# asked about before.  A plan is nested tuples, which the cyclic garbage
# collector stops tracking one level per pass, so a cached plan reaches the
# oldest generation still tracked and brings the next full collection
# closer; the patterns ``classify.verdict`` relabels on every call are
# therefore planned and dropped, as before plans were cached.  Both caches
# are emptied together when the first is full.  A value depends only on
# its key, so callers racing on an entry at worst build a plan twice.
_CONNECTED: dict[tuple[int, ...], bool] = {}
_PLANS: tuple[dict[tuple[int, ...], tuple], ...] = ({}, {})
_CACHE_CAP = 512


def _fitting(adj: list[int], part: int, sig: tuple[int, int, bool, bool], vs: int) -> int:
    """The vertices w of ``vs`` whose neighbourhood inside G[part] can hold
    that of a pattern vertex with signature ``sig``: at least its degree
    and non-degree, a non-edge in N(w) when its neighbourhood has one, and
    an edge in part - N[w] when the rest of H has one.  The two searches
    are written out, not left to ``Graph.is_clique_mask`` and
    ``is_independent_mask``: the calls made hits on 80-vertex hosts about
    1.5 times slower."""
    deg_min, nondeg_min, nonedge, edge_out = sig
    deg_max = part.bit_count() - 1 - nondeg_min
    fit = 0
    while vs:
        low = vs & -vs
        vs ^= low
        nb = adj[low.bit_length() - 1] & part
        deg = nb.bit_count()
        if deg < deg_min or deg > deg_max:
            continue
        if nonedge:   # look for u in N(w) with a non-neighbour in N(w)
            rest = nb
            while rest:
                u = rest & -rest
                if nb & ~adj[u.bit_length() - 1] & ~u:
                    break
                rest ^= u
            else:
                continue
        if edge_out:  # look for u outside N[w] with a neighbour there
            out = rest = part & ~nb & ~low
            while rest:
                u = rest & -rest
                if out & adj[u.bit_length() - 1]:
                    break
                rest ^= u
            else:
                continue
        fit |= low
    return fit


def _embed(adj: list[int], part: int, plan: tuple) -> list[int] | None:
    """Host images of the planned levels inside the vertex mask ``part``,
    or None when there is no such embedding.  Host vertex w takes a level
    only if it fits the signature of the level's vertex inside G[part];
    each (signature, w) pair is tested at most once, when w first turns up
    as a candidate of a level with that signature."""
    _order, constraints, twin_level, level_sig, sigs = plan
    n = len(constraints)
    allowed = [part] * len(sigs)    # per signature: vertices of the part not found unfit
    untested = [part] * len(sigs)   # per signature: vertices not yet tested
    image = [0] * n
    used = 0

    def place(level: int) -> bool:
        nonlocal used
        if level == n:
            return True
        s = level_sig[level]
        cand = allowed[s] & ~used
        t = twin_level[level]
        if t >= 0:
            cand &= -(2 << image[t])
        for j, adjacent in constraints[level]:
            w = image[j]
            cand &= adj[w] if adjacent else ~adj[w]
            if not cand:
                return False
        new = cand & untested[s]
        if new:
            unfit = new & ~_fitting(adj, part, sigs[s], new)
            allowed[s] &= ~unfit
            untested[s] &= ~new
            cand &= ~unfit
        while cand:
            low = cand & -cand
            image[level] = low.bit_length() - 1
            used |= low
            hit = place(level + 1)
            used ^= low
            if hit:
                return True
            cand ^= low
        return False

    return image if place(0) else None


def find_induced(g: Graph, h: HPattern | Graph, cap: int = PATTERN_CAP,
                 mask: int | None = None) -> dict[int, int] | None:
    """First embedding of ``h`` as an induced subgraph of ``g[mask]``
    (default: all of ``g``), or None.

    The embedding maps each pattern vertex to its host vertex, keyed in
    pattern-vertex order 0..h.n-1.  Exhaustive: a None answer means no
    vertex subset of g[mask] induces h.  A connected ``h`` is looked for
    one component of g[mask] at a time, in order of their smallest vertex,
    skipping those with fewer than h.n vertices, each in the edge or
    non-edge order its own density calls for; a disconnected ``h`` is
    looked for in g[mask] as a whole.  A mask holding vertices outside
    V(G) is a ValueError.
    """
    hg = h.graph if isinstance(h, HPattern) else h
    if hg.n > cap:
        raise ValueError(f"pattern has {hg.n} vertices, cap is {cap}")
    mask = g.vertex_mask(mask)
    if hg.n > mask.bit_count():
        return None
    if hg.n == 0:
        return {}

    key = tuple(hg.adj)
    connected = _CONNECTED.get(key)
    seen = connected is not None
    if not seen:
        if len(_CONNECTED) >= _CACHE_CAP:
            _CONNECTED.clear()
            for plans in _PLANS:
                plans.clear()
        connected = _CONNECTED[key] = hg.is_connected()
    # a pattern seen for the first time is planned at most once per
    # density choice in this call, and its plans are not kept
    plans = _PLANS if seen else ({}, {})
    adj = g.adj
    if connected:
        parts = [c for c in g.connected_components(mask) if c.bit_count() >= hg.n]
    else:
        parts = [mask]
    for part in parts:
        size = part.bit_count()
        rows = adj if part == g.full_mask else [adj[v] & part for v in bits(part)]
        degree_sum = sum(map(int.bit_count, rows))
        dense = degree_sum > size * (size - 1) // 2   # G[part] denser than 1/2
        plan = plans[dense].get(key)
        if plan is None:
            plan = plans[dense][key] = _plan(hg, dense)
        image = _embed(adj, part, plan)
        if image is not None:
            emb = [0] * hg.n
            for i, pv in enumerate(plan[0]):
                emb[pv] = image[i]
            return dict(enumerate(emb))
    return None


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Graph isomorphism for small graphs, as an equal-size induced embedding."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(g1.degree(v) for v in range(g1.n)) != sorted(g2.degree(v) for v in range(g2.n)):
        return False
    return find_induced(g1, g2, cap=max(g1.n, PATTERN_CAP)) is not None

