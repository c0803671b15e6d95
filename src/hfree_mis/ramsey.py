"""Constructive Ramsey-type extraction.

``ramsey_bound`` is the binomial upper bound C(r+k-2, r-1) on the two-color
Ramsey number; it is what every threshold in this package uses, so all
preconditions stated in terms of Ramsey numbers are checked against a valid
over-estimate and never an under-estimate.  ``ramsey_extract`` realizes the
clique-or-independent-set dichotomy constructively in polynomial time, and
``eh_extract`` is the polynomial clique-or-independent-set extractor for
graphs excluding a clique minus a star.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import InternalCheckError, PatternViolationError
from .graph import Graph, bits, mask_of


def ramsey_bound(r: int, k: int) -> int:
    """Binomial upper bound on the two-color Ramsey number Ram(r, k)."""
    if r < 1 or k < 1:
        raise ValueError("ramsey_bound needs r, k >= 1")
    return comb(r + k - 2, r - 1)


@lru_cache(maxsize=None)
def ramsey_multicolor_bound(colors: int, k: int) -> int:
    """Upper bound on the multicolor Ramsey number: minimum order forcing a
    monochromatic k-clique under any edge coloring with ``colors`` colors.

    Merges colors pairwise: an n >= Ram(k, R_{c-1}(k)) vertex graph either
    has a color-1 clique of size k or a merged-color clique large enough to
    recurse on.  Grows astronomically; exact big-int arithmetic throughout.
    """
    if colors < 1 or k < 1:
        raise ValueError("ramsey_multicolor_bound needs colors, k >= 1")
    if k == 1:
        return 1
    if colors == 1:
        return k
    return ramsey_bound(k, ramsey_multicolor_bound(colors - 1, k))


@dataclass(frozen=True)
class RamseyOutcome:
    """Either a clique or an independent set, as a sorted vertex tuple."""

    kind: str  # "clique" | "independent_set"
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def validate(self, g: Graph) -> None:
        m = mask_of(self.members)
        ok = g.is_clique_mask(m) if self.kind == "clique" else g.is_independent_mask(m)
        if not ok:
            raise InternalCheckError(f"extracted {self.kind} {self.members} is not one")


def _extract(g: Graph, mask: int, r: int, k: int) -> tuple[str, int]:
    """Constructive recursion on the vertices of ``mask``; requires
    popcount(mask) >= ramsey_bound(r, k).  Returns (kind, member mask)."""
    if r == 1:
        return "clique", mask & -mask
    if k == 1:
        return "independent_set", mask & -mask
    v = (mask & -mask).bit_length() - 1
    vbit = 1 << v
    nbrs = g.adj[v] & mask
    if nbrs.bit_count() >= ramsey_bound(r - 1, k):
        kind, members = _extract(g, nbrs, r - 1, k)
        if kind == "clique":
            return kind, members | vbit
        return kind, members
    non = mask & ~g.adj[v] & ~vbit
    kind, members = _extract(g, non, r, k - 1)
    if kind == "clique":
        return kind, members
    return kind, members | vbit


def ramsey_extract(g: Graph, r: int, k: int, mask: int | None = None) -> RamseyOutcome:
    """A clique of size r or an independent set of size k, constructively.

    Requires at least ramsey_bound(r, k) vertices (in ``mask`` if given);
    runs in polynomial time, no subset enumeration.
    """
    mask = g.vertex_mask(mask)
    if mask.bit_count() < ramsey_bound(r, k):
        raise ValueError(
            f"need at least ramsey_bound({r},{k}) = {ramsey_bound(r, k)} vertices, "
            f"got {mask.bit_count()}"
        )
    kind, members = _extract(g, mask, r, k)
    out = RamseyOutcome(kind, tuple(bits(members)))
    out.validate(g)
    return out


def ceil_root(n: int, e: int) -> int:
    """Smallest t >= 0 with t**e >= n (integer arithmetic only)."""
    if n <= 0:
        return 0
    t = max(1, round(n ** (1.0 / e)))
    while t**e >= n:
        t -= 1
    while t**e < n:
        t += 1
    return t


class _OpCounter:
    """Cheap operation counter checking the polynomial-time contract."""

    __slots__ = ("count", "limit")

    def __init__(self, limit: int):
        self.count = 0
        self.limit = limit

    def charge(self, amount: int = 1) -> None:
        self.count += amount
        if self.count > self.limit:
            raise InternalCheckError(f"operation budget exceeded: {self.count} > {self.limit}")


def _eh_rec(g: Graph, mask: int, r: int, s: int, ops: _OpCounter) -> tuple[str, int]:
    """Induction on r-1-s; returns (kind, member mask).

    Raises PatternViolationError when the promised freeness fails, carrying
    the embedding of the clique-minus-star witness.
    """
    m = mask.bit_count()
    if m == 0:
        return "independent_set", 0
    t = ceil_root(m, r - 1)

    if s == r - 1:
        # forbidden graph is K_{r-1} plus an isolated vertex
        threshold = ramsey_bound(r - 1, t)
        for v in bits(mask):
            ops.charge()
            non = mask & ~g.adj[v] & ~(1 << v)
            if non.bit_count() >= threshold:
                kind, members = _extract(g, non, r - 1, t)
                ops.charge(non.bit_count())
                if kind == "clique":
                    raise PatternViolationError(
                        f"K{r}-K1,{s}", tuple(bits(members | (1 << v))),
                        "clique in a non-neighborhood")
                return kind, members
        # small non-degrees everywhere: greedy clique, largest neighborhoods first
        clique = 0
        rest = mask
        while rest:
            ops.charge(rest.bit_count())
            v = max(bits(rest), key=lambda u: (g.adj[u] & rest).bit_count())
            clique |= 1 << v
            rest &= g.adj[v]
        return "clique", clique

    # inductive step: a large neighborhood recurses with r-1, else greedy IS
    threshold = (t - 1) ** (r - 2) + 1
    for v in bits(mask):
        ops.charge()
        nbrs = g.adj[v] & mask
        if nbrs.bit_count() >= threshold:
            try:
                kind, members = _eh_rec(g, nbrs, r - 1, s, ops)
            except PatternViolationError as exc:
                raise PatternViolationError(
                    f"K{r}-K1,{s}", exc.vertices + (v,),
                    "violation inside a neighborhood") from None
            if kind == "clique":
                return kind, members | (1 << v)
            return kind, members
    indep = 0
    rest = mask
    while rest:
        ops.charge(rest.bit_count())
        v = min(bits(rest), key=lambda u: (g.adj[u] & rest).bit_count())
        indep |= 1 << v
        rest &= ~g.closed_neighborhood(v)
    return "independent_set", indep


def eh_extract(g: Graph, r: int, s: int, mask: int | None = None) -> RamseyOutcome:
    """Clique or independent set of size >= ceil(n^(1/(r-1))) in a
    (K_r - K_{1,s})-free graph G[mask] (default: all of G) on n vertices, in
    polynomial time: a run past 50 n^3 + 10,000 operations raises
    InternalCheckError.

    Connectivity is not required by the recursion.  If a forbidden pattern
    is met mid-run the caller lied; the violation carries the embedding.
    """
    if not (1 <= s < r):
        raise ValueError("need 1 <= s < r")
    mask = g.vertex_mask(mask)
    n = mask.bit_count()
    if n == 0:
        raise ValueError("empty graph")
    ops = _OpCounter(50 * n**3 + 10_000)
    kind, members = _eh_rec(g, mask, r, s, ops)
    target = ceil_root(n, r - 1)
    if members.bit_count() < target and n >= ramsey_bound(target, target):
        # pattern-oblivious fallback keeps the size contract at small n
        out = ramsey_extract(g, target, target, mask)
        ops.charge(n)
        return out
    out = RamseyOutcome(kind, tuple(bits(members)))
    out.validate(g)
    return out
