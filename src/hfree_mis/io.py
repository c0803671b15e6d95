"""Graph text format.

Header line ``p <n> <m>``, then m lines ``e <u> <v>`` with 1-based vertex
ids; lines starting with ``c`` are comments.  Parsing collapses duplicate
edges and rejects self-loops and out-of-range ids with the offending line
number, and a file whose number of ``e`` lines (duplicates included) is
not m, so a truncated file is not read as a smaller graph; emitting writes
edges sorted, so parse(emit(g)) round-trips.
"""

from __future__ import annotations

from .errors import InputFormatError
from .graph import Graph


def parse_graph(text: str) -> Graph:
    n = None
    m_declared = 0
    header_line = 1
    edge_lines = 0
    edges = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise InputFormatError(line_no, "duplicate header")
            if len(fields) != 3:
                raise InputFormatError(line_no, "header must be 'p <n> <m>'")
            try:
                n, m_declared = int(fields[1]), int(fields[2])
                header_line = line_no
            except ValueError:
                raise InputFormatError(line_no, "header counts must be integers") from None
            if n < 0 or m_declared < 0:
                raise InputFormatError(line_no, "header counts must be non-negative")
        elif fields[0] == "e":
            if n is None:
                raise InputFormatError(line_no, "edge before header")
            if len(fields) != 3:
                raise InputFormatError(line_no, "edge line must be 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise InputFormatError(line_no, "edge endpoints must be integers") from None
            if u == v:
                raise InputFormatError(line_no, f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputFormatError(line_no, f"vertex id out of range 1..{n}")
            edges.add((min(u, v) - 1, max(u, v) - 1))
            edge_lines += 1
        else:
            raise InputFormatError(line_no, f"unknown line type {fields[0]!r}")
    if n is None:
        raise InputFormatError(1, "missing header")
    if edge_lines != m_declared:
        raise InputFormatError(header_line, f"header declares {m_declared} edge lines, "
                                            f"file has {edge_lines}")
    return Graph(n, sorted(edges))


def emit_graph(g: Graph, comments: tuple[str, ...] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    edges = g.edges()
    lines.append(f"p {g.n} {len(edges)}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"
