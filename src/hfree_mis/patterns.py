"""Small fixed patterns H used as forbidden induced subgraphs.

``pattern(name)`` builds the named graphs; ``recognize_family`` maps an
arbitrary small graph onto the solver-supported parameterized families by
inspecting its complement through ``Graph.co_components``, with no
complement built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graph import Graph, disjoint_union, join

PATTERN_CAP = 10


@dataclass(frozen=True)
class HPattern:
    """A fixed small graph acting as forbidden induced subgraph."""

    graph: Graph
    name: str | None = None

    def __post_init__(self):
        if self.graph.n > PATTERN_CAP:
            raise ValueError(f"pattern has {self.graph.n} vertices, cap is {PATTERN_CAP}")

    @property
    def n(self) -> int:
        return self.graph.n


# -- constructors -----------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(t: int) -> Graph:
    return Graph(t, [(i, i + 1) for i in range(t - 1)])


def cycle(t: int) -> Graph:
    if t < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(t, [(i, (i + 1) % t) for i in range(t)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_multipartite(sizes: list[int]) -> Graph:
    g = empty_graph(sizes[0])
    for s in sizes[1:]:
        g = join(g, empty_graph(s))
    return g


def cluster(r: int, q: int) -> Graph:
    """q disjoint copies of K_r."""
    g = complete(r)
    for _ in range(q - 1):
        g = disjoint_union(g, complete(r))
    return g


def clique_minus_clique(r: int, s: int) -> Graph:
    """K_r with the edges among vertices 0..s-1 removed."""
    if s > r:
        raise ValueError("removed clique larger than host")
    return Graph(r, [(u, v) for u in range(r) for v in range(u + 1, r) if not (u < s and v < s)])


def clique_minus_star(r: int, s: int) -> Graph:
    """K_r minus a star: vertex 0 loses its edges to vertices 1..s."""
    if s > r - 1:
        raise ValueError("star has too many leaves")
    return Graph(r, [(u, v) for u in range(r) for v in range(u + 1, r) if not (u == 0 and v <= s)])


def clique_minus_bipartite(r: int, s1: int, s2: int) -> Graph:
    """K_r minus all edges between vertex sets {0..s1-1} and {s1..s1+s2-1}."""
    if s1 + s2 > r:
        raise ValueError("removed bipartite graph larger than host")
    removed = lambda u, v: u < s1 and s1 <= v < s1 + s2
    return Graph(r, [(u, v) for u in range(r) for v in range(u + 1, r)
                     if not (removed(u, v) or removed(v, u))])


def t_spider(i: int, j: int, k: int) -> Graph:
    """Universal vertex added to K_i + K_j + K_k (disjoint)."""
    g = join(empty_graph(1), disjoint_union(disjoint_union(complete(i), complete(j)), complete(k)))
    return g


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


_FIXED = {
    "claw": lambda: star(3),
    "paw": lambda: clique_minus_star(4, 2),
    "diamond": lambda: clique_minus_clique(4, 2),
    "gem": lambda: join(empty_graph(1), path(4)),
    "cricket": lambda: t_spider(1, 1, 2),
    "bull": lambda: Graph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 4)]),
    "petersen": petersen,
}

_NAME_RE = re.compile(
    r"^(?:(?P<copies>\d+))?K(?P<r>\d+)$"
    r"|^P(?P<pt>\d+)$"
    r"|^C(?P<ct>\d+)$"
    r"|^K(?P<kr>\d+)-K(?P<ks1>\d+)(?:,(?P<ks2>\d+))?$"
    r"|^T(?P<ti>\d+),(?P<tj>\d+),(?P<tk>\d+)$"
    r"|^K(?P<ba>\d+),(?P<bb>\d+)$"
)


def pattern(spec: str) -> HPattern:
    """Build a named pattern.

    Grammar: ``K4``, ``2K2`` (disjoint copies), ``P4``, ``C5``, ``K1,4``,
    ``K5-K2``, ``K6-K3``, ``K5-K1,2``, ``K6-K2,2``, ``T1,2,2``, the fixed
    names (claw, paw, diamond, gem, cricket, bull, petersen), and disjoint
    unions joined with ``+`` such as ``K3+K1``.
    """
    spec = spec.strip()
    if "+" in spec:
        parts = [pattern(tok).graph for tok in spec.split("+")]
        g = parts[0]
        for h in parts[1:]:
            g = disjoint_union(g, h)
        return HPattern(g, spec)
    if spec in _FIXED:
        return HPattern(_FIXED[spec](), spec)
    m = _NAME_RE.match(spec)
    if not m:
        raise ValueError(f"unknown pattern spec {spec!r}")
    d = m.groupdict()
    if d["r"] is not None:
        r = int(d["r"])
        q = int(d["copies"]) if d["copies"] else 1
        return HPattern(cluster(r, q), spec)
    if d["pt"] is not None:
        return HPattern(path(int(d["pt"])), spec)
    if d["ct"] is not None:
        return HPattern(cycle(int(d["ct"])), spec)
    if d["kr"] is not None:
        r, s1 = int(d["kr"]), int(d["ks1"])
        if d["ks2"] is None:
            return HPattern(clique_minus_clique(r, s1), spec)
        return HPattern(clique_minus_bipartite(r, s1, int(d["ks2"])), spec)
    if d["ti"] is not None:
        return HPattern(t_spider(int(d["ti"]), int(d["tj"]), int(d["tk"])), spec)
    if d["ba"] is not None:
        return HPattern(complete_bipartite(int(d["ba"]), int(d["bb"])), spec)
    raise ValueError(f"unknown pattern spec {spec!r}")


def parse_pattern(text: str) -> HPattern:
    """Pattern from a name or an explicit ``n:<count>;e:<u>-<v>,...`` edge list."""
    text = text.strip()
    if text.startswith("n:"):
        head, _, tail = text.partition(";")
        n = int(head[2:])
        edges = []
        if tail:
            if not tail.startswith("e:"):
                raise ValueError("edge list must look like n:4;e:0-1,1-2")
            body = tail[2:].strip()
            if body:
                for tok in body.split(","):
                    u, _, v = tok.partition("-")
                    edges.append((int(u), int(v)))
        return HPattern(Graph(n, edges), text)
    return pattern(text)


# -- family recognition -----------------------------------------------------

@dataclass(frozen=True)
class FamilyMatch:
    """Recognized parameterized family of a pattern, via complement structure."""

    kind: str
    params: tuple[int, ...] = field(default=())


def is_cluster_graph(g: Graph) -> bool:
    return all(g.is_clique_mask(comp) for comp in g.connected_components())


def cluster_params(g: Graph) -> tuple[int, int]:
    """(max clique size, number of cliques) of a cluster graph."""
    comps = g.connected_components()
    return max(c.bit_count() for c in comps), len(comps)


def recognize_family(h: Graph) -> FamilyMatch | None:
    """Map H onto a solver-supported family, or None.

    Kinds: ``cluster`` (r, q); ``complete`` (r); ``clique_minus_clique``
    (r, s) with s >= 2; ``clique_minus_bipartite`` (r, s1, s2) with
    s1 <= s2, s1+s2 < r; ``gem``.  K_r - K_{1,1} is reported as
    clique_minus_clique(r, 2); disconnected patterns land in ``cluster``.
    """
    if h.n == 0:
        return None
    if is_cluster_graph(h):
        if h.is_clique_mask(h.full_mask):
            return FamilyMatch("complete", (h.n,))
        r, q = cluster_params(h)
        return FamilyMatch("cluster", (r, q))
    from .induced import is_isomorphic  # deferred: induced imports patterns

    if h.n == 5 and is_isomorphic(h, _FIXED["gem"]()):
        return FamilyMatch("gem")
    # the edges H misses from K_r lie inside its one co-component of two or
    # more vertices: a removed clique is independent in H, and a removed
    # complete bipartite graph leaves two disjoint cliques
    comps = [c for c in h.co_components() if c.bit_count() >= 2]
    if len(comps) != 1:
        return None
    comp = comps[0]
    r = h.n
    if h.is_independent_mask(comp):
        s = comp.bit_count()
        if s < r:
            return FamilyMatch("clique_minus_clique", (r, s))
        return None
    sides = h.connected_components(comp)
    if len(sides) != 2 or not all(map(h.is_clique_mask, sides)):
        return None
    s1, s2 = sorted(side.bit_count() for side in sides)
    if s1 + s2 == r:
        return None  # H would be a disconnected cluster, handled above
    return FamilyMatch("clique_minus_bipartite", (r, s1, s2))
