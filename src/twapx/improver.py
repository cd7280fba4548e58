"""Width reduction by repeated local splitting.

One pass walks the decomposition depth-first from an added empty starting
bag, stepping only into subtrees that still hold a maximum-size bag: the
number of such bags per subtree is counted when the pass starts and carried
over to the new nodes at each edit. Every maximum-size bag it reaches is
either split (the editable region around it is rewritten into strictly
smaller bags) or certifies, for bags of size >= 2k+3, that the treewidth
exceeds k. A pass ends at its last split, and after an edit it leaves the
new pointer only when the walk would not come straight back to it. The outer
loop repeats passes, dropping the width by one each time, until the width
reaches 2k+1 or a bag refuses to split, which is the certificate: the tables
keep separators of at most k+1 vertices, and every such bag has a split with
one when tw <= k. One engine serves consecutive passes while the number of
groups stays the same. The pass only walks: the engine counts moves, tables
and edits for RunStats, and check mode is an engine, _CheckedEngine, that
checks every split query and edit.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Iterable
from dataclasses import dataclass, fields

from .dpengine import EditPlan, SplitEngine
from .errors import ContractViolation
from .graph import Graph
from .treedec import (
    TreeDecomposition,
    initial_decomposition,
    normalize_degree3,
    validate,
    width,
)

ORACLE_CHECK_MAX_N = 12


def _groups(size: int, k: int) -> int:
    """Table mode: 2 groups for a largest bag of >= 3k+4 vertices, else 3."""
    return 2 if size >= 3 * k + 4 else 3


@dataclass
class Decomposition:
    """Successful outcome: a valid decomposition of width <= 2k+1."""

    td: TreeDecomposition


@dataclass
class LowerBound:
    """Certificate that treewidth exceeds k: a valid decomposition containing
    a bag of size >= 2k+3 that admits no balanced split into `groups` groups
    with a separator of at most k+1 vertices."""

    k: int
    td: TreeDecomposition
    node: int

    @property
    def bag(self) -> list[int]:
        return self.td.bags[self.node]

    @property
    def groups(self) -> int:
        """The table mode of the pass that failed on the bag."""
        return _groups(len(self.bag), self.k)


@dataclass
class RunStats:
    outcome: str = ""
    width: int = -1
    k: int = -1
    passes: int = 0
    two_way_passes: int = 0
    splits: int = 0
    inserted: int = 0
    removed: int = 0
    moves: int = 0
    tables: int = 0
    wall_time_s: float = 0.0

    def as_lines(self) -> list[str]:
        return [
            f"{f.name}={getattr(self, f.name):.3f}"
            if f.name == "wall_time_s"
            else f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
        ]


@dataclass
class EditableInfo:
    """The region rewritten by one local split.

    nodes lists the editable bags in discovery order starting at the split
    root; states holds the split's restriction to every editable and border
    bag; borders maps each surviving neighbor to the index of the single
    component group its bag meets (0 when the bag lies inside the separator).
    """

    nodes: list[int]
    states: dict[int, tuple[frozenset[int], ...]]
    borders: dict[int, int]
    x_full: frozenset[int]


def potential(bags: Iterable[Collection[int]]) -> int:
    """Sum over bags of 7^(bag size), as an exact integer."""
    return sum(7 ** len(b) for b in bags)


def _group_count(state: tuple[frozenset[int], ...]) -> int:
    return sum(1 for p in state[:3] if p)


def find_editable(engine: SplitEngine) -> EditableInfo:
    """Explore the editable region around the split root.

    A node is editable when its bag meets at least two component groups and
    the whole path to the split root is editable; the first node on a path
    that is not editable is a border. The region is searched in preorder
    from the split root, children in sorted order, and the state of every
    editable and border bag is read in place with state_query, which needs
    the split from the last split_query still active: the pointer stays at
    the split root and no table is computed.
    """
    u = engine.root
    st_u = engine.state_query()
    if _group_count(st_u) < 2:
        raise ContractViolation("split root bag must meet at least two groups")
    nodes = [u]
    states = {u: st_u}
    borders: dict[int, int] = {}
    stack = engine.children[u][::-1]
    while stack:
        c = stack.pop()
        stc = states[c] = engine.state_query(c)
        if _group_count(stc) >= 2:
            nodes.append(c)
            stack.extend(reversed(engine.children[c]))
        else:
            borders[c] = next((i for i in range(3) if stc[i]), 0)
    x_full = frozenset().union(*(s[3] for s in states.values()))
    return EditableInfo(nodes=nodes, states=states, borders=borders, x_full=x_full)


def _contract(
    bags: list[frozenset[int]],
    ledges: list[tuple[int, int]],
    attach: dict[int, int],
) -> tuple[list[frozenset[int]], list[tuple[int, int]], dict[int, int]]:
    """Merge each new bag of degree <= 2 (its new edges plus the borders
    attached to it) that lies inside a new neighbour into the smallest-id
    such neighbour, sweeping in local-id order until none is left; its other
    neighbour and its borders re-hang on that neighbour. The neighbour loses
    the merged bag and gains at most one neighbour, so no degree rises, and
    it holds every vertex of the merged bag, so the running intersection
    holds. Returns the bags, edges and attach map left, renumbered in
    local-id order."""
    nbrs: dict[int, set[int]] = {b: set() for b in range(len(bags))}
    for a, b in ledges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    hung: dict[int, list[int]] = {b: [] for b in nbrs}
    for border, b in attach.items():
        hung[b].append(border)
    changed = True
    while changed:
        changed = False
        for b in sorted(nbrs):
            if b not in nbrs or len(nbrs[b]) + len(hung[b]) > 2:
                continue
            into = min((c for c in nbrs[b] if bags[b] <= bags[c]), default=None)
            if into is None:
                continue
            for c in nbrs.pop(b) - {into}:
                nbrs[c].remove(b)
                nbrs[c].add(into)
                nbrs[into].add(c)
            nbrs[into].remove(b)
            hung[into] += hung.pop(b)
            changed = True
    ids = {b: j for j, b in enumerate(sorted(nbrs))}
    return (
        [bags[b] for b in sorted(nbrs)],
        [(ids[a], ids[b]) for a in nbrs for b in nbrs[a] if a < b],
        {border: ids[b] for b in nbrs for border in hung[b]},
    )


def build_replacement(
    engine: SplitEngine, info: EditableInfo, pointer_border: int
) -> EditPlan:
    """Plan replacing the editable region by per-group copies plus a
    separator bag, preserving degree <= 3 via duplicate root-copy bags.

    Every editable bag B becomes, for each group i, the bag
    (B ∩ (Cᵢ ∪ X)) ∪ Bˣ where Bˣ collects separator vertices homed strictly
    below B; the copies are wired like the region, a bag holding the whole
    separator joins the root copies, and borders attach to the copy of their
    group. The subset bags this leaves are then contracted (_contract), so
    no new bag of degree <= 2 lies inside a new neighbour; the pointer is
    the bag the pointer border attaches to. All new bags are strictly
    smaller than the split bag and at most 3t+4 nodes are created for t
    removed.
    """
    u = engine.root
    rnodes = info.nodes
    rset = set(rnodes)
    t = len(rnodes)
    wsize = len(engine.bag_list[u])

    bx: dict[int, frozenset[int]] = {}
    for m in reversed(rnodes):
        acc: set[int] = set()
        for c in engine.children[m]:
            if c in rset:
                acc |= bx[c]
            acc |= info.states[c][3].difference(engine.bag_list[m])
        bx[m] = frozenset(acc)

    for m in rnodes:
        if bx[m]:
            st = info.states[m]
            for i in range(3):
                for j in range(i + 1, 3):
                    if len(bx[m]) >= len(st[i]) + len(st[j]):
                        raise ContractViolation(
                            f"separator spill {len(bx[m])} at node {m} is not "
                            f"smaller than |B ∩ (C{i+1} ∪ C{j+1})| = "
                            f"{len(st[i]) + len(st[j])}"
                        )

    groups = engine.groups
    bags: list[frozenset[int]] = []
    loc: dict[tuple[int, int], int] = {}
    for i in range(groups):
        for m in rnodes:
            st = info.states[m]
            loc[(i, m)] = len(bags)
            bags.append(st[i] | st[3] | bx[m])
    ledges: list[tuple[int, int]] = []
    for i in range(groups):
        for m in rnodes:
            if m != u:
                ledges.append((loc[(i, m)], loc[(i, engine.parent[m])]))
    xid = len(bags)
    bags.append(info.x_full)
    attach = {b: loc[(part, engine.parent[b])] for b, part in info.borders.items()}

    for i in range(groups):
        rc = loc[(i, u)]
        mirror_children = [loc[(i, c)] for c in engine.children[u] if c in rset]
        border_children = sorted(b for b in info.borders if attach[b] == rc)
        top = rc
        if len(mirror_children) + len(border_children) >= 3:
            rep = len(bags)
            bags.append(bags[rc])
            if mirror_children:
                mv = mirror_children[0]
                ledges.remove((mv, rc))
                ledges.append((mv, rep))
            else:
                attach[border_children[0]] = rep
            ledges.append((rep, rc))
            top = rep
        ledges.append((xid, top))
    bags, ledges, attach = _contract(bags, ledges, attach)

    for bag in bags:
        if len(bag) >= wsize:
            raise ContractViolation(
                f"inserted bag of size {len(bag)} not smaller than |W| = {wsize}"
            )
    if len(bags) > 3 * t + 4:
        raise ContractViolation(
            f"{len(bags)} inserted bags exceed the 3t+4 = {3 * t + 4} bound"
        )
    return EditPlan(
        removed=list(rnodes),
        bags=bags,
        edges=sorted((min(a, b), max(a, b)) for a, b in ledges),
        attach=attach,
        pointer=attach[pointer_border],
    )


def _count_big(
    engine: SplitEngine, top: int, w: int, seen: set[int], big: dict[int, int]
) -> dict[int, int]:
    """Fill big[i], for top and every node below it that has no entry yet,
    with the number of bags of size > w in the subtree of i that the walk
    has still to reach; a seen child adds nothing, because the walk has
    finished it. Returns big."""
    order = [top]
    for i in order:
        order.extend(c for c in engine.children[i] if c not in big)
    for i in reversed(order):
        big[i] = (len(engine.bag_list[i]) > w) + sum(
            big[c] for c in engine.children[i] if c not in seen
        )
    return big


def _check_assembled_split(
    g: Graph, w: list[int], info: EditableInfo
) -> None:
    """Reassemble a full vertex partition from the per-bag restrictions and
    verify it is a valid split of w."""
    from .oracle import _components_avoiding, is_valid_split

    group_of: dict[int, int] = {}
    for st in info.states.values():
        for gi in range(3):
            for v in st[gi]:
                if group_of.setdefault(v, gi) != gi:
                    raise ContractViolation(
                        f"vertex {v} assigned to two different groups"
                    )
    x = info.x_full
    parts: list[set[int]] = [set(), set(), set()]
    for comp in _components_avoiding(g, x):
        gset = {group_of[v] for v in comp if v in group_of}
        if len(gset) > 1:
            raise ContractViolation(f"component {comp} spans groups {gset}")
        parts[gset.pop() if gset else 0].update(comp)
    if not is_valid_split(g, w, parts[0], parts[1], parts[2], x):
        raise ContractViolation("assembled assignment is not a valid split")


class _CheckedEngine(SplitEngine):
    """Check mode: an engine that asserts, at every query and edit of a
    pass, what the paper proves of a split.

    A query's objective (None: no split) must equal the exhaustive oracle's
    on graphs of at most ORACLE_CHECK_MAX_N vertices, or None when the
    oracle's separator is larger than hmax; on larger graphs it must equal
    the objective of a new engine over the exported decomposition, rooted at
    the same bag and capped at hmax. An edit needs the split that
    find_editable reads to be a valid split of the root bag; it must lower
    the count of maximum bags (size width + 1), lower the potential by at
    least the number of bags it removes, and leave a valid decomposition.
    """

    def split_query(self) -> tuple[int, int] | None:
        objective = super().split_query()
        exported, remap = self.export_decomposition()
        root = remap[self.root]
        if self.g.n <= ORACLE_CHECK_MAX_N:
            from .oracle import exhaustive_min_split

            bag = self.bag_list[self.root]
            ref = exhaustive_min_split(self.g, exported, root, bag, groups=self.groups)
            want = None if ref is None or ref.objective[0] > self.hmax else ref.objective
            source = "oracle"
        else:
            fresh = SplitEngine(
                self.g, exported, root=root, groups=self.groups, cap=self.hmax
            )
            want = fresh.split_query()
            source = "a new engine"
        if want != objective:
            raise ContractViolation(
                f"engine split objective {objective} disagrees with {source} {want}"
            )
        return objective

    def _maximum_bags(self) -> int:
        return sum(1 for b in self.bag_list.values() if len(b) == self.width + 1)

    def edit(self, plan: EditPlan) -> list[int]:
        _check_assembled_split(self.g, self.bag_list[self.root], find_editable(self))
        pre_max = self._maximum_bags()
        drop = potential(self.bag_list[m] for m in plan.removed) - potential(plan.bags)
        ids = super().edit(plan)
        post_max = self._maximum_bags()
        if post_max >= pre_max:
            raise ContractViolation(
                f"count of maximum bags did not decrease ({pre_max} -> {post_max})"
            )
        if drop < len(plan.removed):
            raise ContractViolation(
                f"potential dropped by {drop} < t = {len(plan.removed)}"
            )
        problems = validate(self.g, self.export_decomposition()[0])
        if problems:
            raise ContractViolation("edit broke the decomposition: " + problems[0])
        return ids


def _move_back(engine: SplitEngine, target: int) -> None:
    """Move the pointer to the open node target, which must be a child of
    the pointer, so that the open nodes stay the tree path to the pointer."""
    if engine.parent[target] != engine.root:
        raise ContractViolation(
            f"walk step back to {target} is not a child of the pointer {engine.root}"
        )
    engine.move_to(target)


def reduce_width_pass(engine: SplitEngine) -> int | None:
    """One depth-first width-reduction pass.

    Returns None when every bag ends at size <= w (w = engine.width, the
    largest bag size minus one when the pass starts), or the engine node id
    of a maximum bag that admits no split with at most engine.hmax separator
    vertices. The walk starts at the pointer, the empty start leaf that
    _with_sentinel and SplitEngine.next_pass put at the root, and descends
    only into unseen children whose subtree still holds a bag of size > w.
    Its open nodes form the tree path from the start leaf to the pointer: a
    forward step picks a child, and each move back to an open node must step
    to a child of the pointer. The walk ends at its last split, where
    the pointer stays: the bags of size > w are counted down at each edit
    (new bags are all smaller), and once none is left the pass ends. A
    subtree skipped while it holds such a bag raises: either the count never
    reaches 0 and the walk closes its start leaf, or the count was short too,
    and the scan at the end of the pass finds the bag. After an edit the walk
    stays at the new pointer when the step up to the border q it hangs from
    would come straight back: when its subtree holds a bag of size > w and no
    other unseen neighbour of q does, the walk at q would pick the pointer
    next, as it has the largest id. The engine counts the moves, tables and
    edits, and _CheckedEngine adds the per-split assertions.
    """
    w = engine.width
    sentinel = engine.root
    path = [sentinel]  # the open nodes, sentinel first, ending at the pointer
    seen = {sentinel}
    big = _count_big(engine, sentinel, w, seen, {})
    remaining = big[sentinel]  # the bags of size > w
    while remaining:
        cur = engine.root
        nxt = next(
            (c for c in engine.children[cur] if c not in seen and big[c]), None
        )
        if nxt is not None:
            seen.add(nxt)
            path.append(nxt)
            engine.move_to(nxt)
            continue
        if cur == sentinel:
            raise ContractViolation(
                f"walk closed its start leaf with {remaining} bags of size > {w} left"
            )
        if len(engine.bag_list[cur]) <= w:
            path.pop()
            _move_back(engine, path[-1])
            continue
        objective = engine.split_query()
        if objective is None:
            return cur
        info = find_editable(engine)
        if len(info.x_full) != objective[0]:
            raise ContractViolation(
                f"collected separator has {len(info.x_full)} vertices, "
                f"expected {objective[0]}"
            )
        rset = set(info.nodes)
        while path[-1] in rset:
            path.pop()
        q = path[-1]
        plan = build_replacement(engine, info, q)
        remaining -= sum(1 for m in info.nodes if len(engine.bag_list[m]) > w)
        new_ids = engine.edit(plan)
        if not remaining:
            break
        pointer = new_ids[plan.pointer]
        _count_big(engine, pointer, w, seen, big)
        if big[pointer] and not any(
            big[c] for c in engine.children[q] if c not in seen
        ):
            seen.add(pointer)
            path.append(pointer)
        else:
            _move_back(engine, q)
    left = sum(1 for b in engine.bag_list.values() if len(b) > w)
    if left:
        raise ContractViolation(f"pass ended with {left} bags of size > {w}")
    return None


def _with_sentinel(t: TreeDecomposition) -> TreeDecomposition:
    """The start of a pass: t with degree <= 3, plus an empty leaf, the root,
    hung at the smallest node id of degree <= 2 (SplitEngine.next_pass hangs
    it at the same node)."""
    t = normalize_degree3(t)
    attach = min(i for i, nb in enumerate(t.adjacency()) if len(nb) <= 2)
    sentinel = len(t.bags)
    return TreeDecomposition(
        [list(b) for b in t.bags] + [[]],
        list(t.edges) + [(attach, sentinel)],
        root=sentinel,
    )


def approximate(
    g: Graph,
    k: int,
    t0: TreeDecomposition | None = None,
    strategy: str = "min-degree",
    check: bool = False,
    stats: RunStats | None = None,
) -> Decomposition | LowerBound:
    """Decomposition of width <= 2k+1, or a certificate that treewidth > k.

    Starts from t0 (validated) or a heuristic decomposition, then runs
    width-reduction passes while the width is at least 2k+2. A pass uses
    two-way tables when the largest bag W has at least 3k+4 vertices: if
    tw <= k, W has a separator X of at most k+1 vertices that leaves at most
    |W|/2 of W in any component, the components pack into two groups that
    hold at most 2|W|/3 of W each, and 2|W|/3 + |X| < |W| once |W| >= 3k+4,
    so every such bag has a two-way split. The tables keep separators of at
    most k+1 vertices, enough for every bag of size >= 2k+3 when tw <= k,
    so a bag that a pass cannot split, in either mode, certifies tw > k.
    One engine serves consecutive passes with the same groups
    (SplitEngine.next_pass), and every pass's output is validated, in every
    mode, before it is returned or passed on.
    """
    start = time.monotonic()
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    st = stats if stats is not None else RunStats()
    st.k = k
    if t0 is None:
        t = initial_decomposition(g, strategy)
    else:
        problems = validate(g, t0)
        if problems:
            raise ValueError("starting decomposition invalid: " + problems[0])
        t = t0
    engine: SplitEngine | None = None
    bad = None
    while bad is None and width(t) >= 2 * k + 2:
        groups = _groups(width(t) + 1, k)
        if engine is not None and engine.groups == groups:
            engine.next_pass(sentinel)
        else:
            engine = None  # free the old tables before the new ones are built
            engine = (_CheckedEngine if check else SplitEngine)(
                g, _with_sentinel(t), groups=groups, cap=k + 1
            )
        sentinel = engine.root
        bad = reduce_width_pass(engine)
        st.passes += 1
        st.two_way_passes += groups == 2
        st.splits += engine.edits
        st.inserted += engine.bags_inserted
        st.removed += engine.bags_removed
        st.moves += engine.moves
        st.tables += engine.tables_computed
        t, remap = engine.export_decomposition(skip=sentinel)
        problems = validate(g, t)
        if problems:
            raise ContractViolation("pass output invalid: " + problems[0])
    st.outcome = "decomposition" if bad is None else "lower-bound"
    st.width = width(t)
    st.wall_time_s = time.monotonic() - start
    return Decomposition(td=t) if bad is None else LowerBound(k, t, remap[bad])
