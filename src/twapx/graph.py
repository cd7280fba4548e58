"""Undirected graph container and PACE-style .gr parsing/emission.

Vertices are 0-based ints internally; the file format is 1-based. A Graph is
immutable: it keeps one sorted, duplicate-free neighbour list per vertex and
nothing else.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left

from .errors import ParseError


class Graph:
    """Immutable simple undirected graph.

    adj[u] is the sorted, duplicate-free list of u's neighbours, and the only
    copy of the edges; callers read it and never change it. has_edge bisects
    it. The constructor, the one place that builds adj, rejects self-loops
    and duplicate edges in either orientation; the .gr parser normalizes them
    away before construction.
    """

    __slots__ = ("n", "adj", "_m")

    def __init__(self, n: int, edges: list[tuple[int, int]] | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self._m = 0
        for u, v in edges or ():
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            self.adj[u].append(v)
            self.adj[v].append(u)
            self._m += 1
        for u, lst in enumerate(self.adj):
            lst.sort()
            if len(set(lst)) != len(lst):
                v = next(a for a, b in zip(lst, lst[1:]) if a == b)
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")

    @property
    def m(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        lst = self.adj[u]
        i = bisect_left(lst, v)
        return i < len(lst) and lst[i] == v

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def parse_gr(text: str) -> Graph:
    """Parse PACE .gr text into a Graph.

    Accepts comment lines starting with 'c' anywhere and blank lines.
    Duplicate edges are dropped silently into one edge; self-loops are
    dropped. When anything was dropped a single warning summarizing the
    counts is emitted.
    """
    n = m = None
    header_seen = False
    edge_lines = 0
    dup_count = 0
    loop_count = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if tok[0] == "p":
            if header_seen:
                raise ParseError("duplicate problem header", lineno)
            if len(tok) != 4 or tok[1] != "tw":
                raise ParseError(f"malformed header {line!r}, expected 'p tw <n> <m>'", lineno)
            try:
                n, m = int(tok[2]), int(tok[3])
            except ValueError:
                raise ParseError(f"non-integer counts in header {line!r}", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative counts in header", lineno)
            header_seen = True
            continue
        if not header_seen:
            raise ParseError(f"edge line {line!r} before problem header", lineno)
        if len(tok) != 2:
            raise ParseError(f"malformed edge line {line!r}", lineno)
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex id out of range [1, {n}] in {line!r}", lineno)
        edge_lines += 1
        if u == v:
            loop_count += 1
            continue
        key = (min(u, v) - 1, max(u, v) - 1)
        if key in seen:
            dup_count += 1
            continue
        seen.add(key)
        edges.append(key)
    if not header_seen:
        raise ParseError("missing 'p tw' header", None)
    if edge_lines != m:
        raise ParseError(f"header declares {m} edges but {edge_lines} edge lines found", None)
    if dup_count or loop_count:
        warnings.warn(
            f"dropped {loop_count} self-loop(s) and {dup_count} duplicate edge(s)",
            stacklevel=2,
        )
    return Graph(n, edges)


def emit_gr(g: Graph) -> str:
    """Canonical .gr text: header, then edges with u < v, lexicographic, 1-based."""
    lines = [f"p tw {g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
