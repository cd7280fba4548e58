"""Exhaustive reference implementations for cross-checking.

Everything here is exponential-time and guarded by an explicit vertex budget;
the point is independent ground truth for small instances, not speed. The
subset dynamic program, the brute-force elimination search and the split
search share no code with each other or with the incremental engine.

A split of a bag W partitions the vertex set into three component groups and
a separator X; the groups have no edges between them and each, together with
X, stays strictly smaller than W. Splits are compared by separator size first
and by the sum over X of home-bag depths second, where a vertex's home bag
is its shallowest bag in the decomposition rooted at W's node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import BudgetError, ContractViolation
from .graph import Graph
from .treedec import TreeDecomposition


@dataclass(frozen=True)
class Split:
    """Canonical split: groups ordered by smallest member, empties last."""

    c1: frozenset[int]
    c2: frozenset[int]
    c3: frozenset[int]
    x: frozenset[int]
    objective: tuple[int, int]

    @property
    def groups(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return (self.c1, self.c2, self.c3)


def is_valid_split(
    g: Graph,
    w: frozenset[int] | set[int] | list[int],
    c1: frozenset[int] | set[int],
    c2: frozenset[int] | set[int],
    c3: frozenset[int] | set[int],
    x: frozenset[int] | set[int],
) -> bool:
    """Decide whether (c1, c2, c3, x) splits bag w.

    The four parts must partition the vertex set (ContractViolation
    otherwise). Valid means: no edge joins two distinct groups, and
    |w ∩ ci| + |x| < |w| for every group.
    """
    parts = [frozenset(c1), frozenset(c2), frozenset(c3), frozenset(x)]
    total = sum(len(p) for p in parts)
    union = frozenset().union(*parts)
    if total != g.n or len(union) != g.n or (union and (min(union) < 0 or max(union) >= g.n)):
        raise ContractViolation(
            f"split parts do not partition the {g.n} vertices (sizes {[len(p) for p in parts]})"
        )
    side = {}
    for idx, part in enumerate(parts[:3]):
        for v in part:
            side[v] = idx
    for u in range(g.n):
        su = side.get(u)
        if su is None:
            continue
        for v in g.adj[u]:
            sv = side.get(v)
            if sv is not None and sv != su:
                return False
    wset = frozenset(w)
    bound = len(wset)
    for part in parts[:3]:
        if len(wset & part) + len(parts[3]) >= bound:
            return False
    return True


def _check_budget(g: Graph, max_n: int, what: str) -> None:
    if g.n > max_n:
        raise BudgetError(f"{what} refused: {g.n} vertices exceeds budget {max_n}")


def exact_treewidth(g: Graph, max_n: int = 12) -> int:
    """Exact treewidth by dynamic programming over elimination prefixes.

    f[S] is the best achievable over orderings of S of the maximum back
    degree, where eliminating v after S\\{v} costs the number of neighbors of
    v's component in G[S] that lie outside S. Runs in O(2^n poly n).
    """
    _check_budget(g, max_n, "exact_treewidth")
    n = g.n
    if n == 0:
        return -1
    adj_mask = [0] * n
    for u in range(n):
        for v in g.adj[u]:
            adj_mask[u] |= 1 << v
    full = (1 << n) - 1
    inf = n + 1
    f = [inf] * (1 << n)
    f[0] = -1
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1, 1 << n):
        masks_by_size[s.bit_count()].append(s)
    for size in range(1, n + 1):
        for s in masks_by_size[size]:
            # components of G[S] are shared by all v in S: the cost of
            # eliminating v last is |N(component of v in G[S]) \ S|
            best = inf
            rem = s
            while rem:
                low = rem & -rem
                comp = low
                frontier = low
                while frontier:
                    grow = 0
                    ff = frontier
                    while ff:
                        b = ff & -ff
                        ff ^= b
                        grow |= adj_mask[b.bit_length() - 1]
                    frontier = (grow & s) & ~comp
                    comp |= frontier
                nbrs = 0
                cc = comp
                while cc:
                    b = cc & -cc
                    cc ^= b
                    nbrs |= adj_mask[b.bit_length() - 1]
                q = (nbrs & ~s).bit_count()
                cc = comp
                while cc:
                    b = cc & -cc
                    cc ^= b
                    prev = f[s ^ b]
                    cand = prev if prev > q else q
                    if cand < best:
                        best = cand
                rem &= ~comp
            f[s] = best
    return f[full]


def exact_treewidth_naive(g: Graph, max_n: int = 7) -> int:
    """Treewidth as the best over all n! elimination orderings of the
    maximum degree at elimination time (with fill-in). Cross-check only."""
    _check_budget(g, max_n, "exact_treewidth_naive")
    n = g.n
    if n == 0:
        return -1
    best = n - 1
    base = [set(g.adj[v]) for v in range(n)]
    for order in permutations(range(n)):
        adj = [set(s) for s in base]
        worst = -1
        for v in order:
            nb = adj[v]
            if len(nb) > worst:
                worst = len(nb)
                if worst >= best:
                    break
            for a in nb:
                adj[a].discard(v)
                adj[a].update(nb - {a, v})
        if worst < best:
            best = worst
    return best


def _components_avoiding(g: Graph, banned: frozenset[int]) -> list[list[int]]:
    seen = set(banned)
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            cur = stack.pop()
            for nb in g.adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def _assign_components(
    weights: list[int], cap: int, bins: int
) -> list[int] | None:
    """First assignment (in try order 0,1,2 per component) packing every
    component weight into `bins` groups with per-group weight <= cap."""
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    loads = [0] * bins
    choice = [0] * len(weights)

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        w = weights[order[i]]
        for b in range(bins):
            if b > 0 and loads[b] == loads[b - 1] and w > 0:
                continue  # identical load, symmetric branch
            if loads[b] + w <= cap:
                loads[b] += w
                choice[order[i]] = b
                if rec(i + 1):
                    return True
                loads[b] -= w
        return False

    return choice if rec(0) else None


def exhaustive_min_split(
    g: Graph,
    t: TreeDecomposition,
    root: int,
    w: frozenset[int] | set[int] | list[int],
    groups: int = 3,
    max_n: int = 12,
) -> Split | None:
    """Minimum split of bag w by brute force over all separators.

    Separators are scanned in increasing (size, home-depth sum, mask) order;
    the surviving connected components are packed into the requested number
    of groups. Returns None when no separator admits a valid split.
    """
    _check_budget(g, max_n, "exhaustive_min_split")
    if groups not in (2, 3):
        raise ValueError("groups must be 2 or 3")
    # the engine orients its tree with its own code, so these home depths
    # stay an independent reference for its distance term
    home = _home_depths(t, root)
    wset = frozenset(w)
    n = g.n
    dvec = [home[v] for v in range(n)]

    def key(mask: int) -> tuple[int, int, int]:
        size = mask.bit_count()
        d = 0
        mm = mask
        while mm:
            b = mm & -mm
            mm ^= b
            d += dvec[b.bit_length() - 1]
        return (size, d, mask)

    cap_all = len(wset)
    for size, d, mask in sorted(map(key, range(1 << n))):
        cap = cap_all - size - 1
        if cap < 0:
            continue
        x = frozenset(v for v in range(n) if mask >> v & 1)
        comps = _components_avoiding(g, x)
        weights = [len(wset.intersection(c)) for c in comps]
        choice = _assign_components(weights, cap, groups)
        if choice is None:
            continue
        parts: list[set[int]] = [set(), set(), set()]
        for ci, comp in enumerate(comps):
            parts[choice[ci]].update(comp)
        c1, c2, c3 = sorted(map(frozenset, parts), key=lambda p: min(p, default=n))
        return Split(c1, c2, c3, x, (size, d))
    return None


def _home_depths(t: TreeDecomposition, root: int) -> dict[int, int]:
    """Map each vertex to the depth, in tree edges from root, of its
    shallowest bag, found breadth-first."""
    nn = len(t.bags)
    if not (0 <= root < nn):
        raise ValueError(f"root {root} out of range for {nn} nodes")
    adj = t.adjacency()
    depth = {root: 0}
    home: dict[int, int] = {}
    order = [root]
    for node in order:  # breadth-first, so the first sighting is the shallowest
        for x in t.bags[node]:
            home.setdefault(x, depth[node])
        for nb in adj[node]:
            if nb not in depth:
                depth[nb] = depth[node] + 1
                order.append(nb)
    if len(order) != nn:
        raise ValueError("decomposition is not connected")
    return home
