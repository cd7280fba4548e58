"""Workloads of the engine benchmark and the seeded generators behind them.

Every generator takes an explicit random.Random, so one workload seed fixes
every instance. Instances are built in memory; nothing is read from disk.

The three engine workloads keep a fixed instance shape and let the workload
seed draw only the vertex labels. Fresh shapes per seed moved solve time by
about 40% (quartile spread over ten seeds at n = 30 and 60), far more than
any change worth detecting; a relabelling keeps the work nearly constant while
still changing every code the tables see and every tie the split choice breaks.
The sparse control is large enough that fresh shapes average out, so there the
seed draws the whole graph.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from twapx import Graph, TreeDecomposition


def partial_ktree(
    rng: random.Random, n: int, k: int
) -> tuple[Graph, TreeDecomposition]:
    """Random partial k-tree (treewidth <= k) and its width-k construction
    decomposition.

    Each new vertex joins a random k-subset of an existing bag; each of its
    clique edges is then kept with probability 1/2, one of them always, so
    the graph stays connected.
    """
    if n < k + 1:
        raise ValueError(f"need n >= {k + 1}")
    edges = {(a, b) for a in range(k + 1) for b in range(a + 1, k + 1)}
    bags: list[list[int]] = [list(range(k + 1))]
    tedges: list[tuple[int, int]] = []
    for v in range(k + 1, n):
        host = rng.randrange(len(bags))
        anchor = rng.sample(bags[host], k)
        forced = rng.choice(anchor)
        for u in anchor:
            if u == forced or rng.random() < 0.5:
                edges.add((u, v))
        bags.append(sorted(anchor + [v]))
        tedges.append((host, len(bags) - 1))
    return Graph(n, sorted(edges)), TreeDecomposition(bags, tedges, root=0)


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
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for nb in adj[cur]:
            if group[nb] != -1:
                continue
            pg = group[cur]
            union = members[pg] | set(t.bags[nb])
            if len(union) <= cap:
                members[pg] = union
                group[nb] = pg
            else:
                group[nb] = len(members)
                members.append(set(t.bags[nb]))
                gedges.append((pg, group[nb]))
            queue.append(nb)
    return TreeDecomposition([sorted(m) for m in members], gedges, root=0)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform random recursive tree on n vertices."""
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def permute(
    g: Graph, perm: list[int], t: TreeDecomposition | None = None
) -> tuple[Graph, TreeDecomposition | None]:
    """Rename vertex v to perm[v] in g (and in t, when given)."""
    edges = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v]))
        for u in range(g.n)
        for v in g.adj[u]
        if u < v
    )
    if t is None:
        return Graph(g.n, edges), None
    bags = [sorted(perm[v] for v in bag) for bag in t.bags]
    return Graph(g.n, edges), TreeDecomposition(bags, list(t.edges), root=t.root)


def relabel(
    rng: random.Random, g: Graph, t: TreeDecomposition
) -> tuple[Graph, TreeDecomposition]:
    """Apply a random vertex permutation to g and t."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute(g, perm, t)


def grid_graph(p: int, q: int) -> Graph:
    """p x q grid; treewidth min(p, q)."""
    edges = []
    for r in range(p):
        for c in range(q):
            v = r * q + c
            if c + 1 < q:
                edges.append((v, v + 1))
            if r + 1 < p:
                edges.append((v, v + q))
    return Graph(p * q, edges)


def flip_grid(p: int, q: int, rows: bool, cols: bool) -> Graph:
    """The p x q grid with its vertex labels mirrored across its rows and/or
    columns."""
    perm = [
        (p - 1 - r if rows else r) * q + (q - 1 - c if cols else c)
        for r in range(p)
        for c in range(q)
    ]
    return permute(grid_graph(p, q), perm)[0]


@dataclass
class Instance:
    """One call of approximate: graph, k, optional seed decomposition, and
    whether treewidth <= k holds by construction (a LowerBound is then wrong)."""

    name: str
    g: Graph
    k: int
    t0: TreeDecomposition | None
    tw_at_most_k: bool


# Shape seed of the engine workloads.
SHAPE_SEED = 7
# Coarsened bags hold at most 7 vertices: seed width 6, one pass above 2k+1
# at k = 2 and three passes at k = 1.
COARSE_CAP = 7


def coarse_partial_ktree(n: int, k: int, seed: int) -> Instance:
    g, t = partial_ktree(random.Random(SHAPE_SEED), n, k)
    g, t = relabel(random.Random(seed), g, t)
    return Instance(f"p{k}tree-n{n}", g, k, coarsen(t, COARSE_CAP), True)


def ktree2_walk(seed: int, sizes: tuple[int, ...] = (20, 40)) -> list[Instance]:
    return [coarse_partial_ktree(n, 2, seed) for n in sizes]


def tree1_auto(seed: int, n: int = 40) -> list[Instance]:
    return [coarse_partial_ktree(n, 1, seed)]


def grid_cert(seed: int, p: int = 5, q: int = 8, k: int = 2) -> list[Instance]:
    """The seed picks one of the four mirror labellings of the grid; a random
    relabelling would change the bootstrap, and with it the whole run."""
    g = flip_grid(p, q, bool(seed & 1), bool(seed & 2))
    return [Instance(f"grid{p}x{q}", g, k, None, min(p, q) <= k)]


def sparse_bypass(
    seed: int, tree_n: int = 100_000, ktree_n: int = 40_000
) -> list[Instance]:
    rng = random.Random(seed)
    tree = random_tree(rng, tree_n)
    g, t = partial_ktree(rng, ktree_n, 3)
    return [
        Instance(f"tree-n{tree_n}", tree, 1, None, True),
        Instance(f"p3tree-n{ktree_n}", g, 3, t, True),
    ]


WORKLOADS = {
    "ktree2-walk": ktree2_walk,
    "tree1-auto": tree1_auto,
    "grid-cert": grid_cert,
    "sparse-bypass": sparse_bypass,
}
