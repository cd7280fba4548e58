"""Tree decompositions: container, validation, rooting, normalization, PACE .td I/O,
and elimination-ordering bootstrap heuristics.

The bootstrap plays the elimination game once: each move appends the
eliminated vertex's bag, and the same bags are then linked into the tree,
whether the order is given or chosen greedily (min-degree, min-fill).

Node ids are list indices (0-based); bags are sorted vertex lists. The .td
format is 1-based on both bag ids and vertices.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations

from .errors import ParseError
from .graph import Graph


@dataclass
class TreeDecomposition:
    """Bags plus tree edges over node ids 0..len(bags)-1."""

    bags: list[list[int]]
    edges: list[tuple[int, int]]
    root: int | None = field(default=None, compare=False)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for lst in adj:
            lst.sort()
        return adj

    def __repr__(self) -> str:
        return f"TreeDecomposition(nodes={len(self.bags)}, width={width(self)})"


@dataclass
class RootedView:
    """Orientation of a decomposition toward a root node.

    home[x] is the unique node of minimum depth whose bag contains x; depth is
    measured in tree edges from the root; order is a breadth-first node order.
    """

    root: int
    parent: list[int | None]
    depth: list[int]
    home: dict[int, int]
    order: list[int]


def width(t: TreeDecomposition) -> int:
    """Largest bag size minus one; -1 for an empty decomposition."""
    if not t.bags:
        return -1
    return max(len(b) for b in t.bags) - 1


def validate(g: Graph, t: TreeDecomposition) -> list[str]:
    """Check the three decomposition conditions plus structural sanity,
    including that a root, if set, is a node.

    Returns a list of human-readable violations (empty when valid), each
    naming the failed condition and a witness.
    """
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
        # nodes containing v form a subtree iff (#nodes) - (#tree edges with v
        # in both endpoint bags) == 1
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


def root_and_home_bags(t: TreeDecomposition, r: int) -> RootedView:
    """Breadth-first rooting at node r with per-vertex home bags."""
    nn = len(t.bags)
    if not (0 <= r < nn):
        raise ValueError(f"root {r} out of range for {nn} nodes")
    adj = t.adjacency()
    parent: list[int | None] = [None] * nn
    depth = [0] * nn
    order = [r]
    seen = [False] * nn
    seen[r] = True
    q = deque([r])
    while q:
        cur = q.popleft()
        for nb in adj[cur]:
            if not seen[nb]:
                seen[nb] = True
                parent[nb] = cur
                depth[nb] = depth[cur] + 1
                order.append(nb)
                q.append(nb)
    if len(order) != nn:
        raise ValueError("decomposition is not connected")
    home: dict[int, int] = {}
    for node in order:  # breadth-first, so first sighting is the minimum depth
        for x in t.bags[node]:
            if x not in home:
                home[x] = node
    return RootedView(root=r, parent=parent, depth=depth, home=home, order=order)


def normalize_degree3(t: TreeDecomposition) -> TreeDecomposition:
    """Expand nodes of degree > 3 into paths of duplicate bags.

    A node of degree d > 3 becomes a path of d-2 nodes with the same bag; the
    path ends take two of the original edges each, the middle nodes one. The
    result has max degree 3, identical width, and at most twice the nodes.
    Already-normalized input is returned unchanged.
    """
    adj = t.adjacency()
    if all(len(a) <= 3 for a in adj):
        return t
    copies: list[list[int]] = []
    new_bags: list[list[int]] = []
    new_edges: list[tuple[int, int]] = []
    for u, bag in enumerate(t.bags):
        d = len(adj[u])
        m = d - 2 if d > 3 else 1
        ids = list(range(len(new_bags), len(new_bags) + m))
        copies.append(ids)
        new_bags.extend(list(bag) for _ in ids)
        for a, b in zip(ids, ids[1:]):
            new_edges.append((a, b))
    slots: list[deque[int]] = []
    for u in range(len(t.bags)):
        ids = copies[u]
        if len(ids) == 1:
            slots.append(deque(ids * len(adj[u])))
        else:
            slots.append(deque([ids[0]] + ids + [ids[-1]]))
    for a, b in sorted((min(e), max(e)) for e in t.edges):
        na = slots[a].popleft()
        nb = slots[b].popleft()
        new_edges.append((min(na, nb), max(na, nb)))
    root = copies[t.root][0] if t.root is not None else None
    return TreeDecomposition(new_bags, sorted(new_edges), root=root)


def parse_td(text: str) -> TreeDecomposition:
    """Parse PACE .td text. Comments allowed; header counts are enforced."""
    header: tuple[int, int, int] | None = None
    bags: dict[int, list[int]] = {}
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if tok[0] == "s":
            if header is not None:
                raise ParseError("duplicate solution header", lineno)
            if len(tok) != 5 or tok[1] != "td":
                raise ParseError(
                    f"malformed header {line!r}, expected 's td <bags> <maxbag> <n>'", lineno
                )
            try:
                nb, maxbag, n = int(tok[2]), int(tok[3]), int(tok[4])
            except ValueError:
                raise ParseError(f"non-integer counts in header {line!r}", lineno) from None
            if nb < 0 or maxbag < 0 or n < 0:
                raise ParseError("negative counts in header", lineno)
            header = (nb, maxbag, n)
            continue
        if header is None:
            raise ParseError(f"content line {line!r} before solution header", lineno)
        nb, maxbag, n = header
        if tok[0] == "b":
            if len(tok) < 2:
                raise ParseError("bag line without id", lineno)
            try:
                bid = int(tok[1])
                verts = [int(x) for x in tok[2:]]
            except ValueError:
                raise ParseError(f"non-integer id in bag line {line!r}", lineno) from None
            if not (1 <= bid <= nb):
                raise ParseError(f"bag id {bid} out of range [1, {nb}]", lineno)
            if bid in bags:
                raise ParseError(f"duplicate bag id {bid}", lineno)
            for x in verts:
                if not (1 <= x <= n):
                    raise ParseError(f"vertex id {x} out of range [1, {n}]", lineno)
            bags[bid] = sorted(set(x - 1 for x in verts))
            continue
        if len(tok) != 2:
            raise ParseError(f"malformed tree edge line {line!r}", lineno)
        try:
            a, b = int(tok[0]), int(tok[1])
        except ValueError:
            raise ParseError(f"non-integer bag id in {line!r}", lineno) from None
        if not (1 <= a <= nb and 1 <= b <= nb):
            raise ParseError(f"tree edge ({a}, {b}) out of range [1, {nb}]", lineno)
        if a == b:
            raise ParseError(f"tree self-edge at bag {a}", lineno)
        key = (min(a, b) - 1, max(a, b) - 1)
        if key in seen_edges:
            raise ParseError(f"duplicate tree edge ({a}, {b})", lineno)
        seen_edges.add(key)
        edges.append(key)
    if header is None:
        raise ParseError("missing 's td' header", None)
    nb, maxbag, _n = header
    if len(bags) != nb:
        raise ParseError(f"header declares {nb} bags but {len(bags)} bag lines found", None)
    bag_list = [bags[i + 1] for i in range(nb)]
    actual_max = max((len(b) for b in bag_list), default=0)
    if actual_max != maxbag:
        raise ParseError(
            f"header declares max bag size {maxbag} but largest bag has {actual_max}", None
        )
    return TreeDecomposition(bag_list, sorted(edges))


def emit_td(t: TreeDecomposition) -> str:
    """Canonical .td text: 1-based ids, bags ascending, edges sorted."""
    maxbag = max((len(b) for b in t.bags), default=0)
    n = 0
    for bag in t.bags:
        if bag:
            n = max(n, bag[-1] + 1)
    lines = [f"s td {len(t.bags)} {maxbag} {n}"]
    for i, bag in enumerate(t.bags):
        if bag:
            lines.append(f"b {i + 1} " + " ".join(str(x + 1) for x in bag))
        else:
            lines.append(f"b {i + 1}")
    for a, b in sorted((min(e), max(e)) for e in t.edges):
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


STRATEGIES = ("trivial", "min-degree", "min-fill")


def _eliminate(adj: list[set[int]], v: int, bags: list[list[int]]) -> list[tuple[int, int]]:
    """One move of the elimination game: append v's bag, drop v from its
    neighbours and make them a clique. Returns the fill edges added."""
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
    """Link the bags of an elimination game into a tree rooted at the last.

    Bag i links to the bag of its earliest-eliminated other vertex, which
    keeps every vertex's bags connected, or to bag i+1 when it has none. The
    edges come out sorted, as each is (i, later bag) for increasing i.
    """
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


def decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Build a tree decomposition from an elimination ordering.

    Bag i holds order[i] plus its not-yet-eliminated neighbors in the fill
    graph; each bag links to the bag of its earliest-eliminated such
    neighbor, which keeps every vertex's bags connected.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    adj = [set(a) for a in g.adj]
    bags: list[list[int]] = []
    for v in order:
        _eliminate(adj, v, bags)
    return _elimination_tree(order, bags)


def _degree(adj: list[set[int]], v: int) -> int:
    return len(adj[v])


def _fill_in(adj: list[set[int]], v: int) -> int:
    """Number of fill edges that eliminating v would add."""
    return sum(b not in adj[a] for a, b in combinations(adj[v], 2))


def _greedy(g: Graph, score: Callable[[list[set[int]], int], int]) -> TreeDecomposition:
    """Play the elimination game on a vertex of least score each move (ties
    to the smaller id). A move can change the score only of v's neighbours
    and of the common neighbours of each fill edge, so only those are
    re-scored."""
    adj = [set(a) for a in g.adj]
    scores: list[int | None] = [score(adj, v) for v in range(g.n)]
    heap = [(s, v) for v, s in enumerate(scores)]
    heapq.heapify(heap)
    order: list[int] = []
    bags: list[list[int]] = []
    while heap:
        s, v = heapq.heappop(heap)
        if s != scores[v]:  # stale entry, or v already eliminated
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


def initial_decomposition(g: Graph, strategy: str = "min-degree") -> TreeDecomposition:
    """Bootstrap decomposition via a named heuristic.

    trivial puts all vertices in one bag; min-degree and min-fill play the
    elimination game once, each move on a vertex of least degree or least
    fill-in, and the bags of that one game form the decomposition. No width
    guarantee is implied; the improvement loop works from any valid
    starting point.
    """
    if strategy == "trivial":
        return TreeDecomposition([list(range(g.n))], [], root=0)
    if strategy == "min-degree":
        return _greedy(g, _degree)
    if strategy == "min-fill":
        return _greedy(g, _fill_in)
    raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
