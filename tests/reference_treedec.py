"""Reference copies of the validator and the greedy bootstrap as they stood
before the lean rewrite: one set per bag, one tuple per tree edge and per
heap entry, and every dirty fill-in recounted in full.

They are kept verbatim so tests can check that `treedec.validate` and
`treedec.initial_decomposition` give byte-identical messages and
decompositions, and can compare their peak traced memory on the same
instance.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from itertools import combinations

from twapx import Graph, TreeDecomposition


def validate(g: Graph, t: TreeDecomposition) -> list[str]:
    out: list[str] = []
    nn = len(t.bags)

    ok_bags = True
    for i, bag in enumerate(t.bags):
        prev = None
        ordered = True
        for x in bag:
            if prev is not None and x <= prev:
                ordered = False
                break
            prev = x
        if not ordered:
            out.append(f"structure: bag {i} is not a sorted duplicate-free list")
            ok_bags = False
            continue
        for x in bag:
            if not (0 <= x < g.n):
                out.append(f"structure: bag {i} contains out-of-range vertex {x}")
                ok_bags = False

    if t.root is not None and not (0 <= t.root < nn):
        out.append(f"structure: root {t.root} out of range for {nn} nodes")

    adj: list[list[int]] = [[] for _ in range(nn)]
    seen_edges: set[tuple[int, int]] = set()
    ok_edges = True
    for a, b in t.edges:
        if not (0 <= a < nn and 0 <= b < nn) or a == b:
            out.append(f"structure: bad tree edge ({a}, {b})")
            ok_edges = False
            continue
        key = (min(a, b), max(a, b))
        if key in seen_edges:
            out.append(f"structure: duplicate tree edge ({a}, {b})")
            ok_edges = False
            continue
        seen_edges.add(key)
        adj[a].append(b)
        adj[b].append(a)

    if ok_edges and nn >= 1:
        if len(seen_edges) != nn - 1:
            out.append(f"tree: {nn} nodes but {len(seen_edges)} edges")
        else:
            reach = [False] * nn
            reach[0] = True
            stack = [0]
            count = 1
            while stack:
                cur = stack.pop()
                for nb in adj[cur]:
                    if not reach[nb]:
                        reach[nb] = True
                        count += 1
                        stack.append(nb)
            if count != nn:
                hole = reach.index(False)
                out.append(f"tree: node {hole} unreachable from node 0")

    if not ok_bags:
        return out

    bag_sets = [set(b) for b in t.bags]
    occ: list[list[int]] = [[] for _ in range(g.n)]
    for i, bag in enumerate(t.bags):
        for x in bag:
            occ[x].append(i)

    for v in range(g.n):
        if not occ[v]:
            out.append(f"coverage: vertex {v} appears in no bag")

    for u in range(g.n):
        nodes_u = occ[u]
        for v in g.adj[u]:
            if u < v:
                nodes_v = occ[v]
                if not nodes_u or not nodes_v:
                    continue  # already a coverage violation
                short, other = (nodes_u, v) if len(nodes_u) <= len(nodes_v) else (nodes_v, u)
                for i in short:
                    if other in bag_sets[i]:
                        break
                else:
                    out.append(f"edge coverage: edge ({u}, {v}) is inside no bag")

    if ok_edges and len(seen_edges) == max(nn - 1, 0):
        shared = [0] * g.n
        for a, b in seen_edges:
            sa, sb = bag_sets[a], bag_sets[b]
            if len(sa) > len(sb):
                sa, sb = sb, sa
            for x in sa:
                if x in sb:
                    shared[x] += 1
        for v in range(g.n):
            nodes = occ[v]
            if nodes and len(nodes) - shared[v] != 1:
                out.append(f"connectivity: bags containing vertex {v} are disconnected")

    return out


def _eliminate(adj: list[set[int]], v: int, bags: list[list[int]]) -> list[tuple[int, int]]:
    nb = sorted(adj[v])
    bags.append(sorted([v] + nb))
    for a in nb:
        adj[a].discard(v)
    fill = []
    for a, b in combinations(nb, 2):
        if b not in adj[a]:
            adj[a].add(b)
            adj[b].add(a)
            fill.append((a, b))
    return fill


def _elimination_tree(order: list[int], bags: list[list[int]]) -> TreeDecomposition:
    n = len(order)
    if n == 0:
        return TreeDecomposition([[]], [], root=0)
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order):
        p = min((pos[x] for x in bags[i] if x != v), default=None)
        if p is not None:
            edges.append((i, p))
        elif i + 1 < n:
            edges.append((i, i + 1))
    return TreeDecomposition(bags, edges, root=n - 1)


def _degree(adj: list[set[int]], v: int) -> int:
    return len(adj[v])


def _fill_in(adj: list[set[int]], v: int) -> int:
    return sum(b not in adj[a] for a, b in combinations(adj[v], 2))


def _greedy(g: Graph, score: Callable[[list[set[int]], int], int]) -> TreeDecomposition:
    adj = [set(a) for a in g.adj]
    scores: list[int | None] = [score(adj, v) for v in range(g.n)]
    heap = [(s, v) for v, s in enumerate(scores)]
    heapq.heapify(heap)
    order: list[int] = []
    bags: list[list[int]] = []
    while heap:
        s, v = heapq.heappop(heap)
        if s != scores[v]:
            continue
        scores[v] = None
        order.append(v)
        touched = set(adj[v])
        for a, b in _eliminate(adj, v, bags):
            touched |= adj[a] & adj[b]
        for a in touched:
            scores[a] = score(adj, a)
            heapq.heappush(heap, (scores[a], a))
    return _elimination_tree(order, bags)


def initial_decomposition(g: Graph, strategy: str) -> TreeDecomposition:
    """The min-degree or min-fill bootstrap of the reference code."""
    return _greedy(g, {"min-degree": _degree, "min-fill": _fill_in}[strategy])
