"""Generators for the parameterized-hardness constructions and the
join-composition lower-bound generator, with verifiable solution
correspondence.

A grid tiling instance is a k x k toroidal array of tiles, each a set of
pairs over {0..m-1}^2; it is feasible when one pair per tile can be chosen
agreeing in the first coordinate along rows and the second along columns.
The reduction encodes each tile as a gadget of 8(p+1) cliques of size n_t
(a cycle of 4p+4 plus four attached paths of p+1), wired by three edge
types, and connects neighboring gadgets toroidally so that independent
sets of size 8(p+1)k^2 correspond exactly to feasible tilings.  One map,
``ConstructionOutput.clique_at``, names the vertices: (i, j, clique key) ->
that clique's vertices, whose a-th stands for tile (i, j)'s a-th pair.

The build makes one gadget template per distinct tile, its rows over the
gadget's own 8(p+1)n_t vertices, shifts it into place per tile and then
adds only the inter-gadget joins.  The second and third variants' gadgets
ignore the tile's pairs, so their template, already shifted into all k^2
places, is made once per process for each shape (variant, p, n_t, k) and
kept for the last ``CACHED_SHAPES`` shapes, as a tuple that each build
copies.  Every build checks every main clique of its own finished graph,
with ``oracle.check_cover`` (a failure is an InternalCheckError), and keeps
the checked cover, which ``construction_alpha_reaches`` hands to the oracle
as it stands.  ``clique_at`` is computed on first access.

Edge types between consecutive cliques:

* half graph: a-th vertex adjacent to b-th iff a > b;
* row type: a-th adjacent to b-th iff the a-th element's first coordinate
  is smaller than the b-th element's (the complement of row-compatibility);
* column type: same with second coordinates;
* anti-matching: all pairs except equal indices.

The first variant uses half graphs on the cycle and row/column types on the
paths; the second replaces every within-gadget interaction by an
anti-matching, leaving the compatibility content on the single inter-gadget
interaction in the middle of each path of cliques; the third adds an
anti-matching between the two cycle neighbors of each branching clique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .errors import InternalCheckError
from .graph import Graph, join
from .induced import find_induced
from .oracle import CACHED_SHAPES, DEFAULT_BUDGET, CheckedCover, alpha_reaches, check_cover
from .patterns import HPattern, cycle as cycle_graph, star

VARIANTS = ("first", "second", "third")


@dataclass(frozen=True)
class GridTiling:
    k: int
    m: int
    tiles: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]  # tiles[i][j] = pairs

    @property
    def tile_size(self) -> int:
        return len(self.tiles[0][0])


def gen_grid_tiling(k: int, m: int, n_t: int, planted: bool, rng: random.Random):
    """Random grid tiling instance; with ``planted`` a feasible solution is
    embedded and returned, else the second value is None."""
    if n_t > m * m:
        raise ValueError("tiles cannot exceed m*m distinct pairs")
    universe = [(a, b) for a in range(m) for b in range(m)]
    solution = None
    tiles = []
    if planted:
        row_vals = [rng.randrange(m) for _ in range(k)]
        col_vals = [rng.randrange(m) for _ in range(k)]
        solution = tuple(tuple((row_vals[i], col_vals[j]) for j in range(k)) for i in range(k))
    for i in range(k):
        row = []
        for j in range(k):
            forced = {solution[i][j]} if planted else set()
            pool = [p for p in universe if p not in forced]
            rng.shuffle(pool)
            chosen = sorted(forced | set(pool[: n_t - len(forced)]))
            row.append(tuple(chosen))
        tiles.append(tuple(row))
    return GridTiling(k, m, tuple(tiles)), solution


def is_feasible(gt: GridTiling, chosen: tuple[tuple[tuple[int, int], ...], ...]) -> bool:
    k = gt.k
    for i in range(k):
        for j in range(k):
            if chosen[i][j] not in gt.tiles[i][j]:
                return False
            if chosen[i][j][0] != chosen[i][(j + 1) % k][0]:
                return False
            if chosen[i][j][1] != chosen[(i + 1) % k][j][1]:
                return False
    return True


def brute_force_feasible(gt: GridTiling):
    """Exhaustive feasibility check; None when infeasible."""
    k = gt.k
    cells = [(i, j) for i in range(k) for j in range(k)]
    for combo in product(*[gt.tiles[i][j] for i, j in cells]):
        grid = [[None] * k for _ in range(k)]
        for (i, j), val in zip(cells, combo):
            grid[i][j] = val
        cand = tuple(tuple(row) for row in grid)
        if is_feasible(gt, cand):
            return cand
    return None


# -- gadget layout ------------------------------------------------------------

@dataclass(frozen=True)
class _Arc:
    src: tuple          # clique key within the gadget
    dst: tuple
    kind: str           # "half" | "row" | "col"


@lru_cache(maxsize=CACHED_SHAPES)
def _gadget_layout(p: int) -> tuple[tuple[tuple, ...], tuple[_Arc, ...]]:
    """Clique keys and typed arcs of one tile gadget.

    Cycle keys ("cycle", t) for t in 0..4p+3 carry half-graph arcs; path
    keys ("path", d, s) for direction d in top/right/bottom/left and
    s in 0..p carry row or column arcs, attached to the four branching
    cliques."""
    cyc = 4 * p + 4
    keys = [("cycle", t) for t in range(cyc)]
    arcs = [_Arc(("cycle", t), ("cycle", (t + 1) % cyc), "half") for t in range(cyc)]
    for d, (kind, attach) in {
        "top": ("col", 0),            # path flows into cycle clique 0
        "right": ("row", p + 1),      # cycle clique p+1 flows outward
        "bottom": ("col", 2 * p + 2),
        "left": ("row", 3 * p + 3),
    }.items():
        pk = [("path", d, s) for s in range(p + 1)]
        keys.extend(pk)
        for s in range(p):
            arcs.append(_Arc(pk[s], pk[s + 1], kind))
        if d in ("top", "left"):
            arcs.append(_Arc(pk[-1], ("cycle", attach), kind))
        else:
            arcs.append(_Arc(("cycle", attach), pk[0], kind))
    if len(keys) != 8 * (p + 1):
        raise InternalCheckError(f"gadget layout has {len(keys)} keys, expected {8 * (p + 1)}")
    return tuple(keys), tuple(arcs)


def _port_key(d: str, p: int):
    if d in ("top", "left"):
        return ("path", d, 0)
    return ("path", d, p)


@dataclass
class ConstructionOutput:
    graph: Graph
    k_prime: int
    variant: str
    p: int
    gt: GridTiling
    cover: CheckedCover      # the main cliques as block masks, checked on the graph

    @cached_property
    def clique_at(self) -> dict:
        """(i, j, key) -> vertex tuple of that clique of gadget (i, j): the
        gadgets in row-major order, each clique's n_t vertices after the
        previous clique's."""
        keys, n_t = _gadget_layout(self.p)[0], self.gt.tile_size
        named = ((i, j, key) for i in range(self.gt.k) for j in range(self.gt.k) for key in keys)
        return {name: tuple(range(off, off + n_t))
                for name, off in zip(named, range(0, self.graph.n, n_t))}

    @property
    def main_cliques(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.clique_at.values())

    @property
    def cycle_cliques(self) -> dict:
        """(i, j, t) -> vertex tuple of cycle clique t of gadget (i, j)."""
        return {(i, j, key[1]): vs for (i, j, key), vs in self.clique_at.items() if key[0] == "cycle"}


def _cross_rows(kind: str, src_elems, dst_elems) -> tuple[list[int], list[int]]:
    """Cross edges between two cliques of the construction, as masks over
    clique indices: ``rows[a]`` holds the b joined to the source's a-th
    vertex, ``cols[b]`` the a joined to the target's b-th.  An anti-matching
    reads only the number of elements."""
    n = len(src_elems)
    full = (1 << n) - 1
    if kind == "anti":
        rows = [full ^ (1 << a) for a in range(n)]
        return rows, rows
    if kind == "half":
        return [(1 << a) - 1 for a in range(n)], [full ^ ((2 << b) - 1) for b in range(n)]
    if kind not in ("row", "col"):
        raise ValueError(kind)
    c = 0 if kind == "row" else 1
    top = max(e[c] for e in (*src_elems, *dst_elems)) + 1
    # the indices holding each value, then, in one sweep over the values,
    # the target indices above each value and the source indices below it
    src_at, dst_at = [0] * top, [0] * top
    for a, e in enumerate(src_elems):
        src_at[e[c]] |= 1 << a
    for b, e in enumerate(dst_elems):
        dst_at[e[c]] |= 1 << b
    above, below = [0] * top, [0] * top
    for v in range(1, top):
        below[v] = below[v - 1] | src_at[v - 1]
        above[top - 1 - v] = above[top - v] | dst_at[top - v]
    return [above[e[c]] for e in src_elems], [below[e[c]] for e in dst_elems]


def _join(adj: list[int], rows_cols, src: int, dst: int) -> None:
    """Add ``_cross_rows`` edges between the cliques starting at vertices
    ``src`` and ``dst`` of ``adj``."""
    rows, cols = rows_cols
    for a, row in enumerate(rows):
        adj[src + a] |= row << dst
    for b, col in enumerate(cols):
        adj[dst + b] |= col << src


def _gadget_rows(tile, variant: str, p: int) -> list[int]:
    """Adjacency rows of one tile's gadget over its own 8(p+1)n_t vertices,
    the cliques in ``_gadget_layout`` order, n_t vertices each.  Only the
    first variant reads the tile's pairs; the others read its length."""
    n_t = len(tile)
    keys, arcs = _gadget_layout(p)
    start = {key: idx * n_t for idx, key in enumerate(keys)}
    block = (1 << n_t) - 1
    rows = [(block << off) ^ (1 << v) for off in start.values() for v in range(off, off + n_t)]
    kinds = ("half", "row", "col") if variant == "first" else ("anti",)
    inner = {kind: _cross_rows(kind, tile, tile) for kind in kinds}
    for arc in arcs:
        _join(rows, inner[arc.kind if variant == "first" else "anti"], start[arc.src], start[arc.dst])
    if variant == "third":
        cyc = 4 * p + 4
        for attach in (0, p + 1, 2 * p + 2, 3 * p + 3):
            _join(rows, inner["anti"], start[("cycle", (attach - 1) % cyc)],
                  start[("cycle", (attach + 1) % cyc)])
    return rows


@lru_cache(maxsize=CACHED_SHAPES)
def _tiled_template(variant: str, p: int, n_t: int, k: int) -> tuple[int, ...]:
    """The rows of the k x k gadgets of the second or third variant, before
    the inter-gadget joins: one template, which ignores the tile pairs,
    shifted to gadget (i, j) by (i k + j) 8(p+1) n_t vertices."""
    rows = _gadget_rows(range(n_t), variant, p)
    return tuple(row << base for base in range(0, k * k * len(rows), len(rows)) for row in rows)


def build_tile_gadget(tile: tuple[tuple[int, int], ...], p: int, variant: str) -> ConstructionOutput:
    """A single standalone tile gadget (no inter-gadget connections)."""
    gt = GridTiling(1, max(max(a, b) for a, b in tile) + 1, ((tile,),))
    return _build(gt, variant, p, connect_gadgets=False)


def build_construction(gt: GridTiling, variant: str, p: int) -> ConstructionOutput:
    """The full hardness instance for a grid tiling input."""
    return _build(gt, variant, p, connect_gadgets=True)


def _build(gt: GridTiling, variant: str, p: int, connect_gadgets: bool) -> ConstructionOutput:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if p < 1:
        raise ValueError("need p >= 1")
    k, n_t = gt.k, gt.tile_size
    keys = _gadget_layout(p)[0]
    width = len(keys) * n_t

    # gadget (i, j) is its tile's template shifted up by (i k + j) width
    # vertices; the second and third variants' templates, already shifted,
    # are the same for every tiling of this shape
    if variant == "first":
        templates: dict = {}
        adj: list[int] = []
        for tiles in gt.tiles:
            for tile in tiles:
                if tile not in templates:
                    templates[tile] = _gadget_rows(tile, variant, p)
                base = len(adj)
                adj.extend([row << base for row in templates[tile]])
    else:
        adj = list(_tiled_template(variant, p, n_t, k))

    if connect_gadgets:
        start = {key: idx * n_t for idx, key in enumerate(keys)}
        right, left = start[_port_key("right", p)], start[_port_key("left", p)]
        bottom, top = start[_port_key("bottom", p)], start[_port_key("top", p)]
        for i in range(k):
            for j in range(k):
                here = (i * k + j) * width
                _join(adj, _cross_rows("row", gt.tiles[i][j], gt.tiles[i][(j + 1) % k]),
                      here + right, (i * k + (j + 1) % k) * width + left)
                _join(adj, _cross_rows("col", gt.tiles[i][j], gt.tiles[(i + 1) % k][j]),
                      here + bottom, (((i + 1) % k) * k + j) * width + top)
    graph = Graph.from_adj(adj)
    block = (1 << n_t) - 1
    try:
        cover = check_cover(graph, [block << off for off in range(0, graph.n, n_t)],
                            what="main clique")
    except ValueError as exc:
        raise InternalCheckError(str(exc)) from exc
    return ConstructionOutput(graph, 8 * (p + 1) * k * k, variant, p, gt, cover)


# -- solution correspondence ---------------------------------------------------

def lift_solution(solution, out: ConstructionOutput) -> tuple[int, ...]:
    """Feasible tiling -> independent set of size k_prime, one vertex per
    main clique at the index of the chosen tile element."""
    gt = out.gt
    if not is_feasible(gt, solution):
        raise ValueError("solution is not feasible")
    chosen = []
    for (i, j, key), vs in out.clique_at.items():
        idx = gt.tiles[i][j].index(solution[i][j])
        chosen.append(vs[idx])
    return out.graph.checked_witness(chosen, out.k_prime, "lifted solution")


def project_solution(independent: tuple[int, ...], out: ConstructionOutput):
    """Independent set of full size -> the tiling it encodes."""
    if len(independent) != out.k_prime:
        raise ValueError("need an independent set of size exactly k_prime")
    if not out.graph.is_independent_set(independent):
        raise ValueError("vertex set is not independent")
    picked = set(independent)
    gt = out.gt
    grid = [[None] * gt.k for _ in range(gt.k)]
    for (i, j, t), vs in out.cycle_cliques.items():
        hit = [a for a, v in enumerate(vs) if v in picked]
        if len(hit) != 1:
            raise ValueError(f"cycle clique ({i},{j},{t}) not hit exactly once")
        if grid[i][j] is None:
            grid[i][j] = hit[0]
        elif grid[i][j] != hit[0]:
            raise ValueError(f"gadget ({i},{j}) hits cycle cliques at different indices")
    solution = tuple(tuple(gt.tiles[i][j][grid[i][j]] for j in range(gt.k)) for i in range(gt.k))
    if not is_feasible(gt, solution):
        raise ValueError("projected tiling is infeasible")
    return solution


def construction_alpha_reaches(out: ConstructionOutput, budget: int = DEFAULT_BUDGET) -> bool:
    """Does the construction have an independent set of size k_prime?
    A k-target search with the main cliques, checked by the build, as the
    pruning cover."""
    return alpha_reaches(out.graph, out.k_prime, budget, out.cover) is not None


# -- exclusion verification -----------------------------------------------------

@dataclass(frozen=True)
class ExclusionReport:
    entries: tuple[tuple[str, tuple[int, ...] | None], ...]

    @property
    def clean(self) -> bool:
        return all(emb is None for _name, emb in self.entries)

    def found(self) -> list[str]:
        return [name for name, emb in self.entries if emb is not None]


def verify_exclusions(out: ConstructionOutput, p1: int, p2: int,
                      trees: tuple[HPattern, ...] = ()) -> ExclusionReport:
    """Search the construction for the patterns its first variant excludes:
    the four-leaf star, cycles of length 4..p1, and caller-supplied trees
    with two branching vertices at distance <= p2."""
    entries = []
    hit = find_induced(out.graph, star(4))
    entries.append(("K1,4", tuple(sorted(hit.values())) if hit else None))
    for ell in range(4, p1 + 1):
        hit = find_induced(out.graph, cycle_graph(ell))
        entries.append((f"C{ell}", tuple(sorted(hit.values())) if hit else None))
    for t in trees:
        hit = find_induced(out.graph, t)
        name = t.name or f"tree{t.n}"
        entries.append((name, tuple(sorted(hit.values())) if hit else None))
    return ExclusionReport(tuple(entries))


def or_compose(graphs: list[Graph]) -> Graph:
    """Iterated join; alpha of the result is the maximum of the alphas."""
    if not graphs:
        raise ValueError("need at least one graph")
    out = graphs[0]
    for g in graphs[1:]:
        out = join(out, g)
    return out
