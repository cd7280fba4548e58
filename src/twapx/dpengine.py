"""Incremental dynamic programming engine over a rooted tree decomposition.

The engine maintains, for every node i, a table over assignments of the bag
of i into three component groups plus a separator. An assignment is encoded
with one 2-bit digit per bag vertex, ascending vertex order, smallest vertex
in the most significant digit; digits 0..2 are the groups and digit 3 the
separator. Two-way mode uses the same encoding and never produces digit 2.
Digits are read and written with shifts and masks: the digit of position idx
in a bag of size s is (code >> 2*(s-1-idx)) & 3, and since the separator is
the only digit with both bits set, (code & (code >> 1) & lows).bit_count()
counts the separator digits at the positions whose low bits lows holds. A
table maps code -> (nsep, cost), the lexicographically least such pair over
the assignments of the subtree of i that restrict to code: nsep counts their
separator vertices and cost sums, over those vertices, the edge distance from
their shallowest containing bag to i. Only this pair can reach a split: the
split test only gets easier as nsep falls, and every kernel step keeps
(nsep, cost) order (a lift adds nsep minus a per-code constant to cost, an
introduce adds one to nsep, a join adds pairs and subtracts a per-code
constant from nsep, a forget takes minima). Codes keep nsep <= hmax, the
largest bag size minus one when the engine is built or the engine's cap,
whichever is smaller, fixed for the engine's life; nsep never falls along a
lift or a join, so a capped table is the uncapped one with its codes of
nsep > cap dropped.

The groups are interchangeable: relabelling the groups of a code keeps its
split test, nsep and cost, so every table is closed under the 6 relabellings
of three-way mode and the 2 of two-way mode, and each kernel step commutes
with them. A table therefore holds one code per orbit (the relabellings of a
code), the least, which is the canonical code: its groups take the labels 0,
1, 2 in order of first appearance, smallest vertex first (_canon). Codes are
made canonical where they are made: a lift canonicalizes each projection
onto the shared vertices, and an introduce step only the codes whose new
digit exceeds the groups m its prefix uses (a digit <= m keeps the code
canonical). A join of two canonical tables over one bag is canonical, and so
is a fold, which keeps codes of the table it folds into, and the least code
of the winning orbit in split_query is its canonical code.
Tables are keyed by canonical code, but states hold the split's own
labelling: reading a child back relabels its canonical entries onto the
parent's labels, so states, splits and edits are those of the full tables.

A node's table is one child's lift with every other child folded in: a fold
looks each code up, projected onto the shared vertices, in the child's
forgotten table (its table re-anchored and projected onto those vertices),
so that child's lift is never introduced up to the whole parent bag (_fold).
No table is ever mutated in place: every write stores a new dict. So each
tree edge keeps one entry, (the child table it came from, its forgotten
table, the plan that packs codes of either bag onto the shared vertices),
and reuses it for as long as the child holds that very table (_forget).
Edits and next_pass drop the entries of the nodes they remove, so at most
one entry per directed tree edge stands.

Supported operations: re-root one edge at a time (two tables per step: the
old root's is rebuilt from its remaining children, the new root's is the
table it replaces with one fold of the old root's), query a minimum
split of the root bag, read back per-node restrictions of the chosen split in
place (one scan of each child table, building no table), and splice a
replacement subtree over a region containing the root (recomputes only the new
tables). A split stays active from the query until the next move or edit,
which end it. Between passes, next_pass drops the empty start leaf, which
must hang below the pointer, and hangs a new one; hmax stays, so one engine
serves consecutive passes with the same number of groups.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations

from .errors import ContractViolation
from .graph import Graph
from .treedec import TreeDecomposition, validate

SEP = 3  # separator digit; 0..2 are the component groups

# a kept tree edge (child, parent), see SplitEngine._forget: (child table,
# forgotten table, pack plan); the plan is (frame, shared lows, child runs,
# frame lows, parent runs, parent lows)
_Edge = tuple[dict, dict, tuple]


def _full_lows(size: int) -> int:
    """Low bit of every digit of a code over size vertices."""
    return ((1 << 2 * size) - 1) // 3


def _pack_plan(bag: list[int], keep: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """How codes over bag pack onto the vertices of bag in keep: the low bits
    of their digits within bag, and (mask, shift) runs, so that OR-ing
    together (code & mask) >> shift gives the code over those vertices."""
    lows = mask = dropped = 0
    runs: list[tuple[int, int]] = []
    for pos, v in enumerate(reversed(bag)):
        if v in keep:
            lows |= 1 << 2 * pos
            mask |= 3 << 2 * pos
            continue
        if mask:
            runs.append((mask, 2 * dropped))
            mask = 0
        dropped += 1
    if mask:
        runs.append((mask, 2 * dropped))
    return lows, runs


def _pack(code: int, runs: list[tuple[int, int]]) -> int:
    out = 0
    for mask, shift in runs:
        out |= (code & mask) >> shift
    return out


def _masks(code: int, lows: int) -> tuple[int, int, int, int]:
    """The code's groups 0, 1, 2 and separator, each as a mask of digit low
    bits within lows."""
    lo = code & lows
    hi = (code >> 1) & lows
    sep = lo & hi
    return lows ^ (lo | hi), lo ^ sep, hi ^ sep, sep


def _canon(code: int, lows: int) -> int:
    """The least code over the relabellings of the groups of code: the
    groups take the labels 0, 1, 2 in order of first appearance, smallest
    vertex first. The groups are disjoint, so the one holding the smallest
    vertex has the largest mask, and an empty group sorts last."""
    a, b, c, sep = _masks(code, lows)
    if a < b:
        a, b = b, a
    if b < c:
        b, c = c, b
        if a < b:
            b = a
    return b | c << 1 | sep * SEP


def decode(code: int, bag: list[int]) -> tuple[frozenset[int], ...]:
    """The code over bag as (group1, group2, group3, separator)."""
    parts: tuple[list[int], ...] = ([], [], [], [])
    size = len(bag)
    for idx, v in enumerate(bag):
        parts[(code >> 2 * (size - 1 - idx)) & 3].append(v)
    return tuple(frozenset(p) for p in parts)


@dataclass
class EditPlan:
    """Replacement of a connected region containing the current root.

    removed lists engine node ids to delete; bags/edges describe the new
    subtree over local ids 0..len(bags)-1; attach maps every border node
    (neighbor of the region that survives) to the local id it connects to;
    pointer names the local id that becomes the new root.
    """

    removed: list[int]
    bags: list[frozenset[int]]
    edges: list[tuple[int, int]]
    attach: dict[int, int]
    pointer: int


class SplitEngine:
    """Split tables over a rooted tree decomposition of maximum degree 3."""

    def __init__(
        self,
        g: Graph,
        t: TreeDecomposition,
        root: int | None = None,
        groups: int = 3,
        cap: int | None = None,
    ):
        if groups not in (2, 3):
            raise ContractViolation("groups must be 2 or 3")
        if cap is not None and cap < 0:
            raise ContractViolation(f"cap must be nonnegative, got {cap}")
        problems = validate(g, t)
        if problems:
            raise ContractViolation("invalid decomposition: " + problems[0])
        adj = t.adjacency()
        for i, nb in enumerate(adj):
            if len(nb) > 3:
                raise ContractViolation(f"node {i} has degree {len(nb)} > 3")
        self.g = g
        self.groups = groups
        self.width = max([0] + [len(b) - 1 for b in t.bags])
        self.hmax = self.width if cap is None else min(self.width, cap)

        r = root if root is not None else (t.root if t.root is not None else 0)
        if not (0 <= r < len(t.bags)):
            raise ContractViolation(f"root {r} out of range")

        self.bag_list: dict[int, list[int]] = {i: list(b) for i, b in enumerate(t.bags)}
        self.parent: dict[int, int | None] = {}
        self.children: dict[int, list[int]] = {}
        self.table: dict[int, dict[int, tuple[int, int]]] = {}
        self.state: dict[int, tuple[int, int, int]] = {}
        self._edges: dict[tuple[int, int], _Edge] = {}  # see _forget
        self._next_id = len(t.bags)

        self.tables_computed = self.moves = 0
        self.edits = self.bags_inserted = self.bags_removed = 0
        self._orient(dict(enumerate(adj)), r)

    def _orient(self, adj: dict[int, list[int]], root: int) -> None:
        """Root the nodes of adj at root, breadth-first: every neighbour not
        yet reached becomes a child. Children are sorted and tables computed
        from the leaves up. A neighbour that is not a key of adj keeps its own
        subtree and table."""
        self.parent[root] = None
        self.root = root
        order = [root]
        seen = {root}
        for cur in order:
            if cur not in adj:
                continue
            kids = self.children[cur] = []
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    self.parent[nb] = cur
                    kids.append(nb)
                    order.append(nb)
            kids.sort()
        for i in reversed(order):
            if i in adj:
                self._compute_table(i)

    # ----------------------------------------------------------------- tables

    def _forget(self, child: int, i: int) -> _Edge:
        """The kept entry of the tree edge (child, i), made afresh unless it
        was made from the table child holds now.

        An entry is (child table, its forgotten table, pack plan). The
        forgotten table is the child table re-anchored and projected onto
        the frame, the vertices shared with bag i, in one pass: costs advance
        one edge toward i (each separator vertex counted in nsep pays 1
        unless it is in both bags) and the vertices absent from bag i are
        projected out, taking minima. A projection can lose the vertex that
        gave a group its label, so it is put back in canonical form over the
        frame before the minimum is taken: a relabelling keeps the pair, so
        the least pair of an orbit is the least over its canonical
        projections. _canon runs once per distinct projection. When the frame
        is the whole child bag, the projection is the identity and the
        child's canonical codes stay canonical and distinct, so neither runs.

        The pack plan depends on the two bags alone, so it is made with an
        edge's first entry and passed to the next: (frame, the low bits of
        the frame's digits within the child bag, the runs that pack a child
        code onto the frame, the low bits of the frame's own digits, the runs
        that pack a code over bag i onto the frame, the low bits of the
        frame's digits within bag i); see _pack_plan.

        Reusing an entry is exact: no table is mutated in place (every write
        stores a new dict), node ids are never reused, and the entry holds the
        child table, so its identity cannot pass to another. Besides that
        table, an entry reads only what a node id fixes (the two bags, the
        graph, the groups) and hmax, which is fixed when the engine is built.
        """
        tab = self.table[child]
        kept = self._edges.get((child, i))
        if kept is not None and kept[0] is tab:
            return kept
        cbag = self.bag_list[child]
        if kept is None:
            pbag = self.bag_list[i]
            frame = [v for v in cbag if v in pbag]
            shared, runs = _pack_plan(cbag, pbag)
            plows, pruns = _pack_plan(pbag, cbag)
            plan = (frame, shared, runs, _full_lows(len(frame)), pruns, plows)
        else:
            plan = kept[2]
        frame, shared, runs, flows = plan[:4]
        out: dict[int, tuple[int, int]] = {}
        if len(frame) == len(cbag):
            for code, hd in tab.items():
                add = hd[0] - (code & (code >> 1) & shared).bit_count()
                out[code] = (hd[0], hd[1] + add) if add else hd
        else:
            canon: dict[int, int] = {}
            for code, hd in tab.items():
                add = hd[0] - (code & (code >> 1) & shared).bit_count()
                if add:
                    hd = (hd[0], hd[1] + add)
                proj = 0
                for mask, shift in runs:  # _pack, inlined: once per child code
                    proj |= (code & mask) >> shift
                ncode = canon.get(proj)
                if ncode is None:
                    ncode = canon[proj] = _canon(proj, flows)
                old = out.get(ncode)
                if old is None or hd < old:
                    out[ncode] = hd
        entry = self._edges[child, i] = (tab, out, plan)
        return entry

    def _lift(self, child: int, i: int) -> dict[int, tuple[int, int]]:
        """Child table re-expressed over the bag of i: its forgotten table
        (_forget) with the vertices of bag i absent from the child
        introduced."""
        _tab, proj, plan = self._forget(child, i)
        return self._introduce_all(proj, plan[0], self.bag_list[i])

    def _fold(
        self, tab: dict[int, tuple[int, int]], child: int, i: int
    ) -> dict[int, tuple[int, int]]:
        """tab, a table over bag i, joined with the lift of child into i,
        without introducing that lift.

        The join keeps the codes of tab that the lift holds too, with h = h1
        + h2 - the separator digits of bag i, and d = d1 + d2. When the frame
        is the whole bag i, the lift is the forgotten table, and the smaller
        of the two tables is scanned. Otherwise each code of tab is packed
        onto the frame and looked up, in canonical form, in the forgotten
        table (the lookup is memoised per packed code), taking off only the
        separator digits of the frame: a code of tab already satisfies every
        edge of bag i, which is all the introduce step checks, and its
        separators off the frame, which the introduce step would add to h2,
        the join takes off again; the introduce step's cap only drops codes
        whose join would pass hmax too.
        """
        _tab, proj, plan = self._forget(child, i)
        frame, flows, runs = plan[0], plan[3], plan[4]
        hmax = self.hmax
        out: dict[int, tuple[int, int]] = {}
        if len(frame) == len(self.bag_list[i]):
            small, big = (tab, proj) if len(tab) <= len(proj) else (proj, tab)
            for code, (h1, d1) in small.items():
                other = big.get(code)
                if other is not None:
                    h = h1 + other[0] - (code & (code >> 1) & flows).bit_count()
                    if h <= hmax:
                        out[code] = (h, d1 + other[1])
            return out
        memo: dict[int, tuple[int, int] | None] = {}
        for code, (h1, d1) in tab.items():
            p = 0
            for mask, shift in runs:  # _pack, inlined: once per code
                p |= (code & mask) >> shift
            hit = memo.get(p, False)
            if hit is False:
                other = proj.get(_canon(p, flows))
                if other is not None:
                    other = (other[0] - (p & (p >> 1) & flows).bit_count(), other[1])
                hit = memo[p] = other
            if hit is not None:
                h = h1 + hit[0]
                if h <= hmax:
                    out[code] = (h, d1 + hit[1])
        return out

    def _introduce_all(
        self, tab: dict[int, tuple[int, int]], frame: list[int], target: list[int]
    ) -> dict[int, tuple[int, int]]:
        """Extend the frame to target (a superset) one vertex at a time,
        rejecting assignments that put adjacent vertices in distinct groups.

        A new vertex may join group 0 when every neighbour digit is 0 or 3
        (its two bits agree), group 1 when every neighbour digit has its low
        bit set, group 2 when every one has its high bit set; the separator
        is always allowed while nsep stays within hmax, and adds one to it.

        The codes in and out are canonical (see _canon). The digits of the
        vertices above v, its prefix, are then canonical too and use groups
        0..m-1 for some m; a digit <= m or the separator at v keeps the code
        canonical, so only a digit above m needs _canon. Here 0 is always
        <= m, 1 is unless the prefix is all separators, and 2 is when the
        prefix holds a 1. A code with no 1 has no 2 either, and its extension
        by 2 is then a relabelling of its extension by 1, so it is skipped.
        Two (code, digit) pairs give one canonical code only when they are
        relabellings of each other, with one pair, so nothing is merged.
        """
        has_edge = self.g.has_edge
        three = self.groups == 3
        hmax = self.hmax
        cur = tab
        cur_frame = list(frame)
        for v in target:
            idx = bisect_left(cur_frame, v)
            if idx < len(cur_frame) and cur_frame[idx] == v:
                continue
            size = len(cur_frame)
            nb = 0
            for j, u in enumerate(cur_frame):
                if has_edge(u, v):
                    nb |= 1 << 2 * (size - 1 - j)
            sh = 2 * (size - idx)
            low = (1 << sh) - 1
            one, two, sep = 1 << sh, 2 << sh, SEP << sh
            plows = _full_lows(idx)
            all_sep = plows * SEP
            lows = _full_lows(size)
            nlows = lows << 2 | 1
            nxt: dict[int, tuple[int, int]] = {}
            for code, hd in cur.items():
                pre = code >> sh
                stem = pre << (sh + 2) | (code & low)
                if not (code ^ (code >> 1)) & nb:
                    nxt[stem] = hd
                if code & nb == nb:
                    if pre != all_sep:
                        nxt[stem | one] = hd
                    else:
                        nxt[_canon(stem | one, nlows)] = hd
                if three and (code >> 1) & nb == nb:
                    if pre & ~(pre >> 1) & plows:
                        nxt[stem | two] = hd
                    elif code & ~(code >> 1) & lows:
                        nxt[_canon(stem | two, nlows)] = hd
                h, d = hd
                if h < hmax:
                    nxt[stem | sep] = (h + 1, d)
            cur = nxt
            cur_frame.insert(idx, v)
        return cur

    def _compute_table(self, i: int) -> None:
        """Table of i: one child's lift with every other child folded in.

        A leaf's table is its local table: every assignment of bag i alone
        without an internal edge joining two distinct groups, at cost 0.
        Inner nodes skip the local table: every lifted code is already valid
        for bag i alone (the child checked the edges among shared vertices,
        the introduce step those at each new vertex) and has nsep at least
        its separator digit count, so joining the local table would return
        the lifted table unchanged. The lift is of the child sharing the most
        vertices with bag i (the least to introduce), the first in child
        order on a tie; every other child is folded in (_fold), which
        introduces nothing. A child whose table has not changed since its
        last entry into i is not projected again (see _forget).
        """
        kids = self.children[i]
        if kids:
            frames = [len(self._forget(c, i)[2][0]) for c in kids]
            pick = frames.index(max(frames))
            tab = self._lift(kids[pick], i)
            for j, c in enumerate(kids):
                if j != pick:
                    tab = self._fold(tab, c, i)
        else:
            tab = self._introduce_all({0: (0, 0)}, [], self.bag_list[i])
        self.table[i] = tab
        self.tables_computed += 1

    # ------------------------------------------------------------------ moves

    def move_to(self, target: int) -> None:
        """Re-root at target, stepping one tree edge at a time. Ends the
        active split, if any."""
        if target not in self.bag_list:
            raise ContractViolation(f"unknown node {target}")
        self.state = {}
        path = [target]
        while path[-1] != self.root:
            p = self.parent[path[-1]]
            if p is None:
                raise ContractViolation("target not connected to root")
            path.append(p)
        for node in reversed(path[:-1]):
            self._step(node)

    def _step(self, s: int) -> None:
        """Re-root the edge (r, s) from the root r to its child s.

        The table of r is rebuilt from its remaining children. The table of s
        is the table it replaces (already its children's lifts joined) with
        the new table of r folded in (_fold); a leaf s takes the lift of r
        alone, as _compute_table skips the local table. The join is
        associative and a pair only gains separators as it joins, so the
        content is what _compute_table(s) would build. An edge entry whose
        child table has not changed is reused, forgotten table and pack plan
        (see _forget): here those of the remaining children of r, and later
        that of r into s, when the walk leaves s by another edge. Two tables
        are counted.
        """
        r = self.root
        if self.parent[s] != r:
            raise ContractViolation(f"node {s} is not a child of the root")
        self.children[r].remove(s)
        self.parent[r] = s
        self._compute_table(r)
        kids = self.children[s]
        self.table[s] = self._fold(self.table[s], r, s) if kids else self._lift(r, s)
        self.tables_computed += 1
        kids.append(r)
        kids.sort()
        self.parent[s] = None
        self.root = s
        self.moves += 1

    def _push_state(self, i: int) -> None:
        """Read the split's restrictions to the children of i back from their
        tables. i holds a state (code, h, d) and its children none: state_query
        calls this down the path from the nearest node that has a state.

        A state holds the split's own labelling, which need not be canonical,
        while a table holds one canonical code per orbit and stands for every
        relabelling of it, with the same pair. Over all those relabellings,
        the child takes the codes that project onto code, their pairs
        re-anchored as _forget does, and keeps the least (nsep, cost), then the
        smallest code. An entry stands for such a code exactly when its own
        projection onto the shared vertices is a relabelling of code there:
        the group masks of code's part under each permutation of the labels,
        its separator digits kept, at most 6 codes (2 in two-way mode). Only
        an entry whose projection is one of them is re-anchored, and it is
        relabelled directly: a group that meets the shared vertices takes the
        label code gives them, and the others take the labels code leaves
        free, in order, which gives the least code (a canonical code's groups
        first appear in label order). Every state is the pair of its code,
        and a join adds the children's lifted pairs, so these least pairs add
        up to (h, d). The final check guards that. Builds no table: the pack
        plan comes from the edge entry (_forget).
        """
        kids = self.children[i]
        code, h, d = self.state[i]
        lows = _full_lows(len(self.bag_list[i]))
        seps = code & (code >> 1)
        got_h, got_d = (seps & lows).bit_count() * (1 - len(kids)), 0
        for c in kids:
            _frame, shared, runs, flows, pruns, plows = self._forget(c, i)[2]
            intro = (seps & (lows ^ plows)).bit_count()
            ccode = _pack(code, pruns)
            clows = _full_lows(len(self.bag_list[c]))
            *labels, sep = _masks(ccode, flows)
            wanted = {
                sep * SEP + sum(m * j for m, j in zip(labels, perm))
                for perm in permutations(range(self.groups))
            }
            spare = [j for j in range(self.groups) if not labels[j]]
            best = None
            for key, (ch, cd) in self.table[c].items():
                proj = 0
                for mask, shift in runs:  # _pack, inlined: once per child code
                    proj |= (key & mask) >> shift
                if proj not in wanted:
                    continue
                hd = (ch, cd + ch - (key & (key >> 1) & shared).bit_count())
                if best is not None and hd > best[:2]:
                    continue
                parts, meets = _masks(key, clows), _masks(proj, flows)
                free = iter(spare)
                full = parts[3] * SEP
                for part, meet in zip(parts[:3], meets):
                    if part:
                        full |= part * (labels.index(meet) if meet else next(free))
                cand = (*hd, full, key)
                if best is None or cand < best:
                    best = cand
            ch, cost, full, key = best
            self.state[c] = (full, *self.table[c][key])
            got_h += ch + intro
            got_d += cost
        if (got_h, got_d) != (h, d):
            raise ContractViolation(f"cannot read back the split at node {i}")

    # ---------------------------------------------------------------- queries

    def split_query(self) -> tuple[int, int] | None:
        """Look for a minimum split of the root bag.

        Scans root codes whose pair (h, d) satisfies |W ∩ Cᵢ| + h < |W| for
        every group; when one exists, makes the (h, d, code)-minimal one the
        active split
        and returns its objective (separator size h, distance d). Returns
        None, with no split active, when the bag has no split.
        """
        r = self.root
        wsize = len(self.bag_list[r])
        lows = _full_lows(wsize)
        best: tuple[int, int, int] | None = None
        for code, (h, d) in self.table[r].items():
            high = code >> 1
            n1 = (code & ~high & lows).bit_count()
            n2 = (~code & high & lows).bit_count()
            n0 = wsize - n1 - n2 - (code & high & lows).bit_count()
            if h + max(n0, n1, n2) < wsize:
                cand = (h, d, code)
                if best is None or cand < best:
                    best = cand
        if best is None:
            self.state = {}
            return None
        h, d, code = best
        self.state = {r: (code, h, d)}
        return (h, d)

    def state_query(self, i: int | None = None) -> tuple[frozenset[int], ...]:
        """Restriction of the current split to the bag of i (default: the
        root) as (group1, group2, group3, separator), in table digit order.

        A split is active from a successful split_query until the next move
        or edit, and any node can be read meanwhile: the states on the path
        down from the nearest ancestor of i that has one are read back with
        one scan of each child's table (see _push_state), which builds no
        table.
        """
        if i is None:
            i = self.root
        path = [i]
        while path[-1] not in self.state:
            p = self.parent.get(path[-1])
            if p is None:
                raise ContractViolation(f"node {i} has no assignment for the current split")
            path.append(p)
        for node in reversed(path[1:]):
            self._push_state(node)
        code, _h, _d = self.state[i]
        return decode(code, self.bag_list[i])

    def _neighbors(self, i: int) -> list[int]:
        out = list(self.children[i])
        if self.parent[i] is not None:
            out.append(self.parent[i])
        return sorted(out)

    # ------------------------------------------------------------------- edit

    def edit(self, plan: EditPlan) -> list[int]:
        """Replace a region by a new subtree; returns engine ids of the new
        nodes indexed by local id. Only the new tables are computed. Counts
        the edit and the bags it inserts and removes."""
        removed = set(plan.removed)
        if not removed or self.root not in removed:
            raise ContractViolation("edit region must be nonempty and contain the root")
        for i in removed:
            if i not in self.bag_list:
                raise ContractViolation(f"removed node {i} does not exist")
        # region connectivity
        stack = [self.root]
        seen = {self.root}
        while stack:
            cur = stack.pop()
            for nb in self._neighbors(cur):
                if nb in removed and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != removed:
            raise ContractViolation("edit region is not connected")
        borders = set()
        for i in removed:
            for nb in self._neighbors(i):
                if nb not in removed:
                    borders.add(nb)
        if borders != set(plan.attach):
            raise ContractViolation(
                f"attach map covers {sorted(plan.attach)} but borders are {sorted(borders)}"
            )
        nn = len(plan.bags)
        if nn == 0:
            raise ContractViolation("replacement must have at least one node")
        if not (0 <= plan.pointer < nn):
            raise ContractViolation(f"pointer {plan.pointer} outside replacement")
        deg = [0] * nn
        ladj: list[list[int]] = [[] for _ in range(nn)]
        if len(plan.edges) != nn - 1:
            raise ContractViolation("replacement edges do not form a tree")
        for a, b in plan.edges:
            if not (0 <= a < nn and 0 <= b < nn) or a == b:
                raise ContractViolation(f"bad replacement edge ({a}, {b})")
            deg[a] += 1
            deg[b] += 1
            ladj[a].append(b)
            ladj[b].append(a)
        for b_, loc in plan.attach.items():
            if not (0 <= loc < nn):
                raise ContractViolation(f"attach target {loc} out of range")
            deg[loc] += 1
        if any(x > 3 for x in deg):
            raise ContractViolation("replacement would exceed degree 3")
        reach = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nb in ladj[cur]:
                if nb not in reach:
                    reach.add(nb)
                    stack.append(nb)
        if len(reach) != nn:
            raise ContractViolation("replacement edges do not form a tree")
        for bag in plan.bags:
            for v in bag:
                if not (0 <= v < self.g.n):
                    raise ContractViolation(f"replacement bag vertex {v} out of range")

        for i in removed:
            for nb in self._neighbors(i):
                self._edges.pop((i, nb), None)
                self._edges.pop((nb, i), None)
            del self.bag_list[i]
            del self.table[i]
            del self.parent[i]
            del self.children[i]

        ids = list(range(self._next_id, self._next_id + nn))
        self._next_id += nn
        for loc, bag in enumerate(plan.bags):
            self.bag_list[ids[loc]] = sorted(bag)
        adj_new: dict[int, list[int]] = {i: [] for i in ids}
        for a, b in plan.edges:
            adj_new[ids[a]].append(ids[b])
            adj_new[ids[b]].append(ids[a])
        for border, loc in plan.attach.items():
            adj_new[ids[loc]].append(border)
        self._orient(adj_new, ids[plan.pointer])
        self.state = {}
        self.edits += 1
        self.bags_inserted += nn
        self.bags_removed += len(removed)
        return ids

    # ----------------------------------------------------------------- passes

    def next_pass(self, start: int) -> None:
        """Ready the engine for the next pass without rebuilding it.

        start must be the empty start leaf of the pass just ended, a leaf
        below the pointer. It is dropped: an empty leaf's lift is its
        neighbour's local table, which a join leaves unchanged, so no table
        changes, and its edge entries go. The width may only fall; hmax,
        fixed when the engine was built, stays. A new empty leaf, id _next_id
        with the constant table {0: (0, 0)}, is hung at the smallest node id
        of degree <= 2, and the pointer moves to it; that leaf changes no join
        either. So every table is what a new engine over the same nodes,
        rooted at that leaf and capped at hmax, would build. An uncapped
        engine keeps codes up to its first width: they are exact, and cannot
        pass the split test of a narrower bag. The counters restart, as for a
        new engine, and count the moves and their tables.
        """
        if (
            start not in self.bag_list or self.bag_list[start]
            or start == self.root or self.children[start]
        ):
            raise ContractViolation(f"node {start} is not an empty leaf below the pointer")
        width = max(len(b) for b in self.bag_list.values()) - 1
        if width > self.width:
            # the tables have dropped the codes a wider pass would need
            raise ContractViolation(f"width grew from {self.width} to {width}")
        self.width = width
        self.tables_computed = self.moves = 0
        self.edits = self.bags_inserted = self.bags_removed = 0
        nb = self.parent[start]
        self.children[nb].remove(start)
        for part in (self.bag_list, self.table, self.parent, self.children):
            del part[start]
        self._edges.pop((start, nb), None)
        self._edges.pop((nb, start), None)
        attach = min(
            i for i, p in self.parent.items()
            if len(self.children[i]) + (p is not None) <= 2
        )
        leaf = self._next_id
        self._next_id += 1
        self.bag_list[leaf] = []
        self.parent[leaf] = attach
        self.children[leaf] = []
        self.children[attach].append(leaf)  # the largest id: stays sorted
        self.table[leaf] = {0: (0, 0)}
        self.move_to(leaf)

    # ------------------------------------------------------------------ export

    def export_decomposition(
        self, skip: int | None = None
    ) -> tuple[TreeDecomposition, dict[int, int]]:
        """Snapshot as a TreeDecomposition plus engine-id -> exported-id map.

        skip drops one leaf node below the pointer (and its incident edge)
        from the export.
        """
        if skip in self.bag_list and (skip == self.root or self.children[skip]):
            raise ContractViolation(f"cannot skip node {skip}: not a leaf below the pointer")
        keep = sorted(i for i in self.bag_list if i != skip)
        remap = {i: j for j, i in enumerate(keep)}
        bags = [list(self.bag_list[i]) for i in keep]
        edges = []
        for i in keep:
            p = self.parent[i]
            if p is not None and p != skip:
                a, b = remap[i], remap[p]
                edges.append((min(a, b), max(a, b)))
        return TreeDecomposition(bags, sorted(edges), root=remap[self.root]), remap
