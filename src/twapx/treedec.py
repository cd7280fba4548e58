"""Tree decompositions: container, validation, normalization, PACE .td I/O, and
elimination-ordering bootstrap heuristics.

The bootstrap plays the elimination game once: each move appends the
eliminated vertex's bag, and the same bags are then linked into the tree,
whether the order is given or chosen greedily (min-degree, min-fill). The
greedy game keeps every score current by deltas and queues plain vertex ids,
one heap per score, so neither strategy recounts a vertex's score in full.

The validator and the bootstrap are the whole of a call whose input is
already narrow enough, so both avoid a Python container per bag, per tree
edge or per queue entry: `validate` works on the sorted bags themselves and
on flat lists indexed by node or vertex, and the game frees each vertex's
neighbour set once it is eliminated.

Node ids are list indices (0-based); bags are sorted vertex lists. The .td
format is 1-based on both bag ids and vertices.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate, combinations, islice
from operator import lt

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

    It allocates no container per bag or per tree edge: only flat lists
    indexed by node or by vertex, and one set of int edge keys. A bag is
    checked for order pairwise and for range at its two ends; a tree edge
    is keyed as a*nn+b, and union-find over the nodes tests the tree, whose
    hole is the smallest node not joined to node 0. The bags holding each
    vertex sit in one flat list, grouped by vertex, and edge coverage and
    the shared vertices of tree edges are looked up by bisect in the sorted
    bags.
    """
    out: list[str] = []
    n = g.n
    bags = t.bags
    nn = len(bags)

    ok_bags = True
    for i, bag in enumerate(bags):
        if not all(map(lt, bag, islice(bag, 1, None))):
            out.append(f"structure: bag {i} is not a sorted duplicate-free list")
            ok_bags = False
        elif bag and (bag[0] < 0 or bag[-1] >= n):
            for x in bag:
                if not (0 <= x < n):
                    out.append(f"structure: bag {i} contains out-of-range vertex {x}")
            ok_bags = False

    if t.root is not None and not (0 <= t.root < nn):
        out.append(f"structure: root {t.root} out of range for {nn} nodes")

    up = list(range(nn))  # union-find forest over the nodes
    joined = 0
    seen: set[int] = set()
    ok_edges = True
    for a, b in t.edges:
        if not (0 <= a < nn and 0 <= b < nn) or a == b:
            out.append(f"structure: bad tree edge ({a}, {b})")
            ok_edges = False
            continue
        key = a * nn + b if a < b else b * nn + a
        if key in seen:
            out.append(f"structure: duplicate tree edge ({a}, {b})")
            ok_edges = False
            continue
        seen.add(key)
        ra, rb = _find(up, a), _find(up, b)
        if ra != rb:
            up[ra] = rb
            joined += 1
    n_edges = len(seen)

    if ok_edges and nn >= 1:
        if n_edges != nn - 1:
            out.append(f"tree: {nn} nodes but {n_edges} edges")
        elif joined != nn - 1:
            r0 = _find(up, 0)
            hole = next(i for i in range(nn) if _find(up, i) != r0)
            out.append(f"tree: node {hole} unreachable from node 0")
    del seen, up  # free them before the per-vertex lists are built

    if not ok_bags:
        return out

    # first[x] .. first[x+1]-1 index the bags holding x in `holders`
    count = [0] * n
    for bag in bags:
        for x in bag:
            count[x] += 1
    first = [0, *accumulate(count)]
    holders = [0] * first[-1]
    cursor = first[1:]  # filled from the back, so each run ascends
    for i in range(nn - 1, -1, -1):
        for x in bags[i]:
            cursor[x] -= 1
            holders[cursor[x]] = i
    del cursor

    for v in range(n):
        if not count[v]:
            out.append(f"coverage: vertex {v} appears in no bag")

    for u in range(n):
        cu = count[u]
        if not cu:
            continue  # already a coverage violation
        for v in g.adj[u]:
            if u < v and count[v]:
                if cu <= count[v]:
                    lo, hi, other = first[u], first[u + 1], v
                else:
                    lo, hi, other = first[v], first[v + 1], u
                for j in range(lo, hi):
                    bag = bags[holders[j]]
                    at = bisect_left(bag, other)
                    if at < len(bag) and bag[at] == other:
                        break
                else:
                    out.append(f"edge coverage: edge ({u}, {v}) is inside no bag")

    if ok_edges and n_edges == max(nn - 1, 0):
        # nodes containing v form a subtree iff (#nodes) - (#tree edges with v
        # in both endpoint bags) == 1
        shared = [0] * n
        for a, b in t.edges:
            sa, sb = bags[a], bags[b]
            if len(sa) > len(sb):
                sa, sb = sb, sa
            at = 0
            for x in sa:
                at = bisect_left(sb, x, at)
                if at < len(sb) and sb[at] == x:
                    shared[x] += 1
        for v in range(n):
            if count[v] and count[v] - shared[v] != 1:
                out.append(f"connectivity: bags containing vertex {v} are disconnected")

    return out


def _find(up: list[int], i: int) -> int:
    """Root of i in a union-find forest, halving the path on the way."""
    while up[i] != i:
        up[i] = i = up[up[i]]
    return i


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


def _eliminate(
    adj: list[set[int] | None], v: int, bags: list[list[int]], fill: list[int] | None = None
) -> set[int] | list[int]:
    """One move of the elimination game: append v's bag, make v's neighbours
    a clique, drop v from them and free v's set.

    Returns the vertices whose score may have changed: v's neighbours, and
    with fill (every vertex's fill-in, kept current here) also the common
    neighbours of each fill edge. A fill edge (a, b), added while v is still
    present, takes 1 off each common neighbour of a and b and adds
    |N(a) - N(b)| to a and |N(b) - N(a)| to b; dropping v then takes
    |N(a)| - |N(v)| off each neighbour a, the pairs (v, y) with y outside
    v's closed neighbourhood.
    """
    nb = sorted(adj[v])
    adj[v] = None
    bags.append(sorted([v, *nb]))
    touched = set(nb) if fill is not None else nb
    for a, b in combinations(nb, 2):
        sa = adj[a]
        if b not in sa:
            sb = adj[b]
            if fill is not None:
                common = sa & sb
                for c in common:
                    fill[c] -= 1
                fill[a] += len(sa) - len(common)
                fill[b] += len(sb) - len(common)
                touched |= common
            sa.add(b)
            sb.add(a)
    d = len(nb)
    for a in nb:
        sa = adj[a]
        if fill is not None:
            fill[a] -= len(sa) - d
        sa.discard(v)
    if fill is not None:
        touched.discard(v)
    return touched


def _elimination_tree(order: list[int], bags: list[list[int]]) -> TreeDecomposition:
    """Link the bags of an elimination game into a tree rooted at the last.

    Bag i links to the bag of its earliest-eliminated other vertex, which
    keeps every vertex's bags connected, or to bag i+1 when it has none. The
    edges come out sorted, as each is (i, later bag) for increasing i.
    """
    n = len(order)
    if n == 0:
        return TreeDecomposition([[]], [], root=0)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    edges = []
    for i, v in enumerate(order):
        pos[v] = n  # bag i's other vertices are all eliminated after v
        p = min(map(pos.__getitem__, bags[i]))
        if p < n:
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
    adj: list[set[int] | None] = [set(a) for a in g.adj]
    bags: list[list[int]] = []
    for v in order:
        _eliminate(adj, v, bags)
    return _elimination_tree(order, bags)


def _fill_counts(adj: list[set[int]]) -> list[int]:
    """Every vertex's fill-in: C(deg, 2) less the edges among its
    neighbours, counted as triangles over each edge."""
    tri = [0] * len(adj)
    for u, su in enumerate(adj):
        for w in su:
            if u < w:
                c = len(su & adj[w])
                tri[u] += c
                tri[w] += c
    return [len(su) * (len(su) - 1) // 2 - tri[u] // 2 for u, su in enumerate(adj)]


def _greedy(g: Graph, min_fill: bool) -> TreeDecomposition:
    """Play the elimination game on a vertex of least score each move (ties
    to the smaller id): its degree, or with min_fill its fill-in.

    The scores are kept current by deltas: a degree is read off the
    neighbour set after the move, and fill-ins are counted once up front
    and then updated by `_eliminate`. The queue is one heap of vertex ids
    per score, plus a heap of the scores that have one, so no entry is a
    tuple. A vertex is re-queued only when its score changes; an entry
    whose score is no longer the vertex's is dropped when popped.
    """
    adj: list[set[int] | None] = [set(a) for a in g.adj]
    fill = _fill_counts(adj) if min_fill else None
    score = list(fill) if min_fill else list(map(len, adj))
    queue: dict[int, list[int]] = {}  # score -> heap of vertex ids
    levels: list[int] = []  # heap of the scores in queue

    def push(s: int, v: int) -> None:
        ids = queue.get(s)
        if ids is None:
            queue[s] = [v]
            heappush(levels, s)
        else:
            heappush(ids, v)

    for v, s in enumerate(score):
        push(s, v)
    order: list[int] = []
    bags: list[list[int]] = []
    for _ in range(g.n):
        while True:
            s = levels[0]
            ids = queue[s]
            v = heappop(ids)
            if not ids:
                del queue[s]
                heappop(levels)
            if score[v] == s:  # else stale, or v already eliminated
                break
        score[v] = -1
        order.append(v)
        for a in _eliminate(adj, v, bags, fill):
            s = fill[a] if min_fill else len(adj[a])
            if s != score[a]:
                score[a] = s
                push(s, a)
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
        return _greedy(g, min_fill=False)
    if strategy == "min-fill":
        return _greedy(g, min_fill=True)
    raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
