"""Seeded instance generators shared by the test modules.

Every generator takes an explicit random.Random so each test controls its
own seed; nothing here touches the global RNG state.
"""

from __future__ import annotations

import random

from twapx import Graph, TreeDecomposition
from twapx.treedec import decomposition_from_order, normalize_degree3


def random_connected_graph(rng: random.Random, n: int, extra: int = 0) -> Graph:
    """Uniform random spanning tree skeleton plus `extra` random chords."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    cap = n * (n - 1) // 2
    want = min(cap, len(edges) + extra)
    while len(edges) < want:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


def random_tree(rng: random.Random, n: int) -> Graph:
    return random_connected_graph(rng, n, extra=0)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    if n >= 3:
        edges.append((0, n - 1))
    return Graph(n, edges)


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def clique(n: int) -> Graph:
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def grid_graph(p: int, q: int) -> Graph:
    def vid(r: int, c: int) -> int:
        return r * q + c

    edges = []
    for r in range(p):
        for c in range(q):
            if c + 1 < q:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < p:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(p * q, edges)


def partial_ktree(
    rng: random.Random, n: int, k: int = 3, keep: float = 0.5
) -> tuple[Graph, TreeDecomposition]:
    """Random partial k-tree plus the width-k construction decomposition.

    Builds a k-tree by joining each new vertex to a random k-clique inside an
    existing bag, then drops each clique edge independently with probability
    1 - keep. One edge per new vertex is always kept so the graph stays
    connected. The returned decomposition is the construction one: bag i
    covers vertex k+1+i and its chosen clique, linked to the host bag.
    """
    if n < k + 1:
        raise ValueError(f"need n >= {k + 1}")
    edges = set((a, b) for a in range(k + 1) for b in range(a + 1, k + 1))
    bags: list[list[int]] = [list(range(k + 1))]
    tedges: list[tuple[int, int]] = []
    for v in range(k + 1, n):
        host = rng.randrange(len(bags))
        anchor = rng.sample(bags[host], k)
        bags.append(sorted(anchor + [v]))
        tedges.append((host, len(bags) - 1))
        for u in anchor:
            edges.add((min(u, v), max(u, v)))
    kept = set()
    for v in range(k + 1, n):
        bag = bags[v - k]
        anchor = [u for u in bag if u != v]
        forced = rng.choice(anchor)
        kept.add((min(forced, v), max(forced, v)))
    base = set((a, b) for a in range(k + 1) for b in range(a + 1, k + 1))
    for e in sorted(edges):
        if e in kept:
            continue
        if e in base or rng.random() < keep:
            kept.add(e)
    g = Graph(n, sorted(kept))
    t = TreeDecomposition(bags, tedges, root=0)
    return g, t


def random_degree3_decomposition(
    rng: random.Random, g: Graph
) -> tuple[TreeDecomposition, int]:
    """Decomposition from a random elimination order, normalized to degree 3,
    with a uniformly chosen root node."""
    order = list(range(g.n))
    rng.shuffle(order)
    t = decomposition_from_order(g, order)
    t = normalize_degree3(t)
    root = rng.randrange(len(t.bags))
    return (
        TreeDecomposition([list(b) for b in t.bags], list(t.edges), root=root),
        root,
    )


def coarsen(t: TreeDecomposition, cap: int) -> TreeDecomposition:
    """Merge bags breadth-first from node 0: each node joins its parent's
    group while the union holds at most `cap` vertices, else opens a group.

    Groups are connected subtrees, so the result is a valid decomposition of
    the same graph with width at most cap - 1.
    """
    adj = t.adjacency()
    group = [-1] * len(t.bags)
    members: list[set[int]] = [set(t.bags[0])]
    gedges: list[tuple[int, int]] = []
    group[0] = 0
    queue = [0]
    for cur in queue:
        for nb in adj[cur]:
            if group[nb] != -1:
                continue
            union = members[group[cur]] | set(t.bags[nb])
            if len(union) <= cap:
                members[group[cur]] = union
                group[nb] = group[cur]
            else:
                group[nb] = len(members)
                members.append(set(t.bags[nb]))
                gedges.append((group[cur], group[nb]))
            queue.append(nb)
    return TreeDecomposition([sorted(m) for m in members], gedges, root=0)
