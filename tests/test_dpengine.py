"""Split engine tests.

The table semantics are pinned by a brute-force oracle: the pair (h, d) of
code in the table of node i must equal the lexicographically least one over
every assignment of the subtree vertices to (group1, group2, group3,
separator) that restricts to `code` on the bag and in which no graph edge
inside the subtree joins two distinct groups, where h counts the separator
vertices and d sums their subtree-relative home depths. The oracle's full
table gives every relabelling of the groups of a code the same pair, and the
engine keeps only the canonical code of each such orbit.
"""

import copy
import itertools
import random

import pytest

from twapx import (
    ContractViolation,
    EditPlan,
    Graph,
    SplitEngine,
    TreeDecomposition,
    exhaustive_min_split,
)
from twapx.dpengine import SEP, _canon, _full_lows, decode
from twapx.improver import _with_sentinel, reduce_width_pass
from twapx.oracle import is_valid_split
from twapx.treedec import normalize_degree3

from gen import (
    clique,
    coarsen,
    cycle_graph,
    partial_ktree,
    path_graph,
    random_connected_graph,
    random_degree3_decomposition,
    star_graph,
)


def subtree_nodes(engine, i):
    out = []
    stack = [i]
    while stack:
        cur = stack.pop()
        out.append(cur)
        stack.extend(engine.children[cur])
    return out


def encode(bag, assign):
    """Code of the assignment assign over bag: one 2-bit digit per vertex,
    the smallest vertex in the most significant digit."""
    code = 0
    for v in bag:
        code = code << 2 | assign[v]
    return code


def relabellings(code, size, groups):
    """Every code obtained from code, over a bag of size vertices, by a
    permutation of the group labels 0..groups-1; the separator stays."""
    digits = [(code >> 2 * (size - 1 - idx)) & 3 for idx in range(size)]
    out = set()
    for perm in itertools.permutations(range(groups)):
        new = 0
        for digit in digits:
            new = new << 2 | (SEP if digit == SEP else perm[digit])
        out.add(new)
    return out


def full_brute_table(g, engine, i):
    """Independent recomputation of the table of node i over every code, not
    only the canonical ones, by full enumeration: every assignment is scored,
    and only at the end is each code's row of {h: least d} collapsed to its
    least (h, d)."""
    nodes = subtree_nodes(engine, i)
    verts = sorted(set().union(*(engine.bag_list[j] for j in nodes)))
    # subtree-relative home depth: first sighting on a BFS from i
    depth = {i: 0}
    order = [i]
    head = 0
    while head < len(order):
        cur = order[head]
        head += 1
        for c in engine.children[cur]:
            depth[c] = depth[cur] + 1
            order.append(c)
    home_depth = {}
    for node in order:
        for v in engine.bag_list[node]:
            if v not in home_depth:
                home_depth[v] = depth[node]
    edges = [
        (u, v) for u in verts for v in g.adj[u] if u < v and v in home_depth
    ]
    bag = engine.bag_list[i]
    # two-way tables share the three-way encoding but never use group 2
    digits = (0, 1, 2, SEP) if engine.groups == 3 else (0, 1, SEP)
    table = {}
    for assign in itertools.product(digits, repeat=len(verts)):
        amap = dict(zip(verts, assign))
        if any(
            amap[u] != SEP and amap[v] != SEP and amap[u] != amap[v]
            for u, v in edges
        ):
            continue
        h = sum(1 for v in verts if amap[v] == SEP)
        if h > engine.hmax:
            continue
        d = sum(home_depth[v] for v in verts if amap[v] == SEP)
        code = encode(bag, {v: amap[v] for v in bag})
        slot = table.setdefault(code, {})
        if h not in slot or d < slot[h]:
            slot[h] = d
    return {code: min(slot.items()) for code, slot in table.items()}


def brute_table(g, engine, i):
    """engine.table[i] recomputed: the canonical codes of full_brute_table,
    after checking that it gives every relabelling of a code its pair."""
    full = full_brute_table(g, engine, i)
    size = len(engine.bag_list[i])
    for code, hd in full.items():
        for other in relabellings(code, size, engine.groups):
            assert full.get(other) == hd, (code, other)
    lows = _full_lows(len(engine.bag_list[i]))
    return {code: hd for code, hd in full.items() if _canon(code, lows) == code}


def small_instance(rng, nmax=6, extra=None, fat_root=False):
    n = rng.randint(1, nmax)
    g = random_connected_graph(rng, n, rng.randint(0, n if extra is None else extra))
    t, root = random_degree3_decomposition(rng, g)
    if fat_root:
        # splits are queried at the root bag, so target the largest one
        root = max(range(len(t.bags)), key=lambda i: (len(t.bags[i]), -i))
        t = TreeDecomposition(t.bags, t.edges, root=root)
    return g, t, root


def split_roots(t, root):
    """root, and the largest bag with three neighbours, so that queries and
    reads also combine three lifted tables at the split root."""
    forks = [i for i, nb in enumerate(t.adjacency()) if len(nb) == 3]
    if not forks:
        return [root]
    return sorted({root, max(forks, key=lambda i: (len(t.bags[i]), -i))})


def test_init_single_vertex_h_cap():
    g = Graph(1)
    t = TreeDecomposition([[0]], [], root=0)
    e = SplitEngine(g, t)
    assert e.hmax == 0
    # width 0: the lone vertex can only be a group vertex, never separator;
    # its three groups are relabellings of one another, so one code is kept
    assert sorted(e.table[0]) == [0]
    assert all(hd == (0, 0) for hd in e.table[0].values())


def test_init_width1_has_separator_entries():
    g = path_graph(2)
    t = TreeDecomposition([[0, 1]], [], root=0)
    e = SplitEngine(g, t)
    assert e.hmax == 1
    # 3 same-group codes at h=0 plus 6 single-separator codes at h=1;
    # adjacent vertices in distinct groups are rejected, both-separator
    # needs h=2 > hmax. Relabelling the groups leaves one code of each kind:
    # both in group 0, and either vertex the separator beside group 0
    assert sorted(e.table[0]) == [0b0000, 0b0011, 0b1100]
    hs = sorted(h for h, _d in e.table[0].values())
    assert hs == [0, 1, 1]


def test_encode_decode_round_trip():
    rng = random.Random(808)
    bag = [0, 2, 3, 5]
    for _ in range(50):
        assign = {v: rng.randrange(4) for v in bag}
        code = encode(bag, assign)
        assert 0 <= code < 4 ** len(bag)
        parts = decode(code, bag)
        for v in bag:
            assert v in parts[assign[v]]
    # smallest vertex owns the most significant digit
    assert encode(bag, {0: 3, 2: 0, 3: 0, 5: 0}) == 3 * 4 ** 3
    assert encode(bag, {0: 0, 2: 0, 3: 0, 5: 1}) == 1


def test_canon_is_least_relabelling():
    for size in range(7):
        lows = _full_lows(size)
        for code in range(4 ** size):
            canon = _canon(code, lows)
            assert canon == min(relabellings(code, size, 3)), (size, code)
            assert _canon(canon, lows) == canon
            if (code >> 1) & ~code & lows == 0:
                # a two-way code: its least relabelling swaps groups 0 and 1
                # at most, and never makes a digit 2
                assert canon == min(relabellings(code, size, 2))
                assert (canon >> 1) & ~canon & lows == 0


def test_two_way_encoding_never_uses_group_2():
    rng = random.Random(918)
    three_way_roots = 0
    for _ in range(150):
        g, t, fat = small_instance(rng, nmax=9, fat_root=True)
        for root in split_roots(t, fat):
            e = SplitEngine(g, t, root=root, groups=2)
            if e.split_query():
                assert all(e.state_query(i)[2] == frozenset() for i in e.bag_list)
                three_way_roots += len(e.children[root]) == 3
        nodes = list(e.bag_list)
        for _ in range(4):
            e.move_to(rng.choice(nodes))
        for i, tab in e.table.items():
            bag = e.bag_list[i]
            lows = sum(1 << 2 * j for j in range(len(bag)))
            for code in tab:
                # digit 2 is the only one with its high bit set and low bit clear
                assert (code >> 1) & ~code & lows == 0
                assert decode(code, bag)[2] == frozenset()
    bag = [0, 2, 3, 5]
    for _ in range(50):
        assign = {v: rng.choice((0, 1, SEP)) for v in bag}
        code = encode(bag, assign)
        parts = decode(code, bag)
        assert parts[2] == frozenset()
        for v in bag:
            assert v in parts[assign[v]]
        back = {v: digit for digit, part in enumerate(parts) for v in part}
        assert encode(bag, back) == code
    assert three_way_roots >= 8, three_way_roots


def test_tables_match_brute_force():
    rng = random.Random(909)
    for _ in range(40):
        g, t, root = small_instance(rng)
        e = SplitEngine(g, t, root=root)
        for i in e.bag_list:
            assert e.table[i] == brute_table(g, e, i), (g.edges(), t, root, i)


def test_tables_match_brute_force_two_way():
    rng = random.Random(910)
    for _ in range(25):
        g, t, root = small_instance(rng)
        e = SplitEngine(g, t, root=root, groups=2)
        for i in e.bag_list:
            assert e.table[i] == brute_table(g, e, i)


def test_all_zero_code_always_present():
    rng = random.Random(911)
    for _ in range(20):
        g, t, root = small_instance(rng, nmax=9)
        e = SplitEngine(g, t, root=root)
        for i in e.bag_list:
            assert e.table[i][0] == (0, 0)
            for code, (h, d) in e.table[i].items():
                assert 0 <= code < 4 ** len(e.bag_list[i])
                assert 0 <= h <= e.hmax and d >= 0


def test_init_rejects_bad_input():
    g = path_graph(3)
    with pytest.raises(ContractViolation):
        SplitEngine(g, TreeDecomposition([[0, 1]], [], root=0))  # no coverage
    star = TreeDecomposition(
        [[0, 1], [1], [1], [1], [1]], [(0, 1), (0, 2), (0, 3), (0, 4)], root=0
    )
    with pytest.raises(ContractViolation):
        SplitEngine(Graph(2, [(0, 1)]), star)  # degree 4
    t = TreeDecomposition([[0, 1], [1, 2]], [(0, 1)], root=0)
    with pytest.raises(ContractViolation):
        SplitEngine(g, t, root=7)
    with pytest.raises(ContractViolation):
        SplitEngine(g, t, groups=4)
    with pytest.raises(ContractViolation):
        SplitEngine(g, t, cap=-1)


def test_move_recomputes_exactly_two_tables():
    g = path_graph(5)
    t = normalize_degree3(
        TreeDecomposition([[0, 1], [1, 2], [2, 3], [3, 4]], [(0, 1), (1, 2), (2, 3)], root=0)
    )
    e = SplitEngine(g, t, root=0)
    before = e.tables_computed
    e.move_to(1)
    assert e.root == 1
    assert e.tables_computed == before + 2
    e.move_to(3)
    assert e.root == 3
    assert e.tables_computed == before + 6


def test_move_walk_and_return_restores_tables():
    rng = random.Random(912)
    for _ in range(15):
        g, t, root = small_instance(rng, nmax=8)
        e = SplitEngine(g, t, root=root)
        frozen = {i: dict(tab) for i, tab in e.table.items()}
        nodes = list(e.bag_list)
        for _ in range(25):
            e.move_to(rng.choice(nodes))
        e.move_to(root)
        assert e.parent[root] is None
        assert e.table == frozen


@pytest.mark.parametrize("groups", [2, 3])
def test_moved_tables_match_brute_force(groups):
    rng = random.Random(913)
    steps = {True: 0, False: 0}
    for _ in range(12):
        g, t, root = small_instance(rng)
        e = SplitEngine(g, t, root=root, groups=groups)
        nodes = list(e.bag_list)

        def check_root():
            r = e.root
            for i in (r, *e.children[r]):
                assert e.table[i] == brute_table(g, e, i)

        for _ in range(8):
            e.move_to(rng.choice(nodes))
            check_root()
            # one step into a leaf child, whose new table is the lift of the
            # old root alone, then one into an inner child, whose new table
            # joins that lift with the table it replaces
            for leaf in (True, False):
                kids = [c for c in e.children[e.root] if (not e.children[c]) == leaf]
                if kids:
                    e.move_to(rng.choice(kids))
                    check_root()
                    steps[leaf] += 1
    assert min(steps.values()) >= 20


# Hand-built decompositions whose lifts, from root 0, all take one path of
# _lift: "identity" has every child bag inside its parent's bag (equal bags
# included), so the projection is the identity; "memo" has every parent bag
# a proper subset of its child's, so the projection drops vertices and goes
# through the per-lift _canon memo. Moving the root to the last node turns
# some of the edges around. In "memo", 1 meets only 0, so dropping it can
# lose the label of its group, which _canon restores; and 0 must be a
# separator when 2 and 3 part, a cost that, from the moved root, an identity
# lift re-anchors.
SUBSET_GRAPH = Graph(6, [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5), (3, 4), (4, 5)])
SUBSET_CASES = {
    "identity": TreeDecomposition(
        [[0, 1, 2, 3, 4, 5], [0, 1, 2, 3], [2, 3, 4, 5], [1, 2, 3], [0, 1, 2, 3],
         [3, 5], [4]],
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
        root=0,
    ),
    "memo": TreeDecomposition(
        [[2, 3], [0, 1, 2, 3], [2, 3, 4], [2, 3, 4, 5]],
        [(0, 1), (0, 2), (2, 3)],
        root=0,
    ),
}


@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("groups", [2, 3])
@pytest.mark.parametrize("name", sorted(SUBSET_CASES))
def test_subset_bag_lifts_match_brute_force(name, groups, cap):
    t = SUBSET_CASES[name]
    e = SplitEngine(SUBSET_GRAPH, t, root=0, groups=groups, cap=cap)
    for c, p in e.parent.items():
        if p is not None:
            if name == "identity":
                assert set(e.bag_list[c]) <= set(e.bag_list[p])
            else:
                assert set(e.bag_list[p]) < set(e.bag_list[c])
    for root in (0, len(t.bags) - 1):
        e.move_to(root)
        for i in e.bag_list:
            assert e.table[i] == brute_table(SUBSET_GRAPH, e, i), (root, i)


def plain_join(a, b, lows, hmax):
    """The join of two tables over one bag, written out: the codes both
    hold, with h = h1 + h2 less the separator digits at lows and d = d1 +
    d2, keeping h <= hmax."""
    out = {}
    for code, (h1, d1) in a.items():
        if code in b:
            h2, d2 = b[code]
            h = h1 + h2 - (code & (code >> 1) & lows).bit_count()
            if h <= hmax:
                out[code] = (h, d1 + d2)
    return out


@pytest.mark.parametrize("cap", [None, 2])
@pytest.mark.parametrize("groups", [2, 3])
def test_fold_is_the_join_with_the_lift(groups, cap):
    # folding a child into a table over its parent's bag, by lookup in the
    # child's forgotten table, gives what joining the child's introduced
    # lift gives, for every kind of frame: the whole child bag (child inside
    # parent), the whole parent bag (parent inside child) and a part of each
    rng = random.Random(924 + groups)
    frames = {"child": 0, "parent": 0, "partial": 0}
    for _ in range(60):
        g, t, root = small_instance(rng, nmax=9, extra=4)
        e = SplitEngine(g, t, root=root, groups=groups, cap=cap)
        for c, i in e.parent.items():
            if i is None:
                continue
            bag, lows = e.bag_list[i], _full_lows(len(e.bag_list[i]))
            local = e._introduce_all({0: (0, 0)}, [], bag)
            for tab in (local, e.table[i]):
                e._edges = {}
                folded = e._fold(tab, c, i)
                frame = e._edges[c, i][2][0]
                want = plain_join(tab, e._lift(c, i), lows, e.hmax)
                assert folded == want, (c, i)
            if len(frame) == len(bag):
                frames["parent"] += 1
            elif len(frame) == len(e.bag_list[c]):
                frames["child"] += 1
            else:
                frames["partial"] += 1
    assert min(frames.values()) >= 20, frames


def deepen(e, toward):
    """Edit the root bag B into two bags, I - B, where the root's neighbour
    on the way to node toward attaches to I, the part of B it shares. Seen
    from that neighbour, the rest of B and everything past it sit one edge
    deeper: the tables on that side keep their codes, but a cost can grow."""
    r = e.root
    path = [toward]
    while path[-1] != r:
        path.append(e.parent[path[-1]])
    up = path[-2]
    attach = {c: 1 for c in e.children[r]}
    attach[up] = 0
    bag = e.bag_list[r]
    e.edit(EditPlan([r], [set(e.bag_list[up]).intersection(bag), bag], [(0, 1)], attach, 1))


def walk_passes(groups, cap, seed, check):
    """Width-reduction passes over coarsened partial 1-trees. Each pass is
    followed by random moves, each with a deepen edit, and then next_pass.
    check(e, removed) runs after every move, edit and next_pass, with the
    node ids that call removed. next_pass keeps hmax and every edge entry
    but the start leaf's. Returns how many kept entries, with their child
    table still standing, came through next_pass."""
    rng = random.Random(seed)
    survived = 0
    for _ in range(8):
        g, t = partial_ktree(rng, rng.randint(10, 24), k=1)
        e = SplitEngine(g, _with_sentinel(coarsen(t, 6)), groups=groups, cap=cap)
        move_to, edit = e.move_to, e.edit

        def moved(target, e=e, move_to=move_to):
            move_to(target)
            check(e, ())

        def edited(plan, e=e, edit=edit):
            ids = edit(plan)
            check(e, plan.removed)
            return ids

        e.move_to, e.edit = moved, edited
        while True:
            sentinel = e.root
            if reduce_width_pass(e) is not None:
                break
            for _ in range(3):
                e.move_to(rng.choice([i for i in sorted(e.bag_list) if i != sentinel]))
                deepen(e, sentinel)
            if max(len(b) for b in e.bag_list.values()) < 5:
                break
            hmax, kept = e.hmax, dict(e._edges)
            e.next_pass(sentinel)
            check(e, (sentinel,))
            assert e.hmax == hmax
            assert all(key in e._edges for key in kept if sentinel not in key)
            survived += sum(
                e._edges.get(key) is entry and e.table[key[0]] is entry[0]
                for key, entry in kept.items()
            )
    return survived


def assert_lifts_exact(e, _removed):
    """Every kept edge entry whose child still holds the table it was made
    from is what an engine keeping nothing makes afresh: its forgotten
    table and its whole pack plan. Every table is the one built from the
    leaves up with nothing kept."""
    fresh = copy.copy(e)
    fresh._edges = {}
    for (c, p), (tab, proj, plan) in e._edges.items():
        if e.table[c] is not tab:
            continue
        _tab, want, want_plan = fresh._forget(c, p)
        assert (proj, plan) == (want, want_plan), (c, p)
    fresh.table, fresh._edges = {}, {}
    for i in reversed(subtree_nodes(e, e.root)):
        fresh._compute_table(i)
    assert fresh.table == e.table


def assert_lifts_on_tree_edges(e, removed):
    """The kept edge entries name no removed node, only tree edges, so
    there are at most two per edge."""
    edges = {(c, p) for c, p in e.parent.items() if p is not None}
    for c, p in e._edges:
        assert c not in removed and p not in removed, (c, p, removed)
        assert (c, p) in edges or (p, c) in edges, (c, p)
    assert len(e._edges) <= 2 * (len(e.bag_list) - 1)


@pytest.mark.parametrize("cap", [None, 2])
@pytest.mark.parametrize("groups", [2, 3])
def test_kept_lifts_are_exact(monkeypatch, groups, cap):
    # a kept edge entry is reused only while its child holds the very table
    # it was made from: the walk meets both kinds of kept entry, current and
    # stale, and every table stays what an engine keeping nothing builds
    kept_current = {True: 0, False: 0}
    forget = SplitEngine._forget

    def counted(e, c, p):
        kept = e._edges.get((c, p))
        if kept is not None:
            kept_current[kept[0] is e.table[c]] += 1
        return forget(e, c, p)

    monkeypatch.setattr(SplitEngine, "_forget", counted)
    # entries kept through next_pass, which keeps hmax, are checked against
    # fresh ones like any other
    survived = walk_passes(groups, cap, 930 + groups, assert_lifts_exact)
    assert kept_current[True] >= 100 and kept_current[False] >= 20, kept_current
    assert survived >= 50, survived


@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("groups", [2, 3])
def test_kept_lift_goes_stale_with_its_child_table(groups, cap):
    # a stale entry of the walk above rarely differs from the fresh lift, so
    # pin one that does: 2 must be a separator when 0 and 1 part, and an edit
    # below node 1 moves the home of 2 one edge deeper, so the lift of node 1
    # into the root changes; a cache that ignored the child table would keep
    # the old one
    g = Graph(3, [(0, 2), (1, 2)])
    t = TreeDecomposition([[0, 1], [0, 1], [0, 1, 2]], [(0, 1), (1, 2)], root=0)
    e = SplitEngine(g, t, root=0, groups=groups, cap=cap)
    before = e.table[0]
    e.move_to(2)
    deepen(e, 0)
    e.move_to(0)
    assert e.table[0] != before
    for i in e.bag_list:
        assert e.table[i] == brute_table(g, e, i), i


@pytest.mark.parametrize("groups", [2, 3])
def test_kept_lifts_stay_on_tree_edges(groups):
    survived = walk_passes(groups, 2, 940 + groups, assert_lifts_on_tree_edges)
    assert survived >= 50, survived


def test_split_query_matches_oracle():
    rng = random.Random(914)
    agree_true = agree_false = three_way_roots = 0
    for _ in range(300):
        g, t, fat = small_instance(rng, nmax=9)
        for root in split_roots(t, fat):
            e = SplitEngine(g, t, root=root)
            got = e.split_query()
            want = exhaustive_min_split(g, t, root, t.bags[root])
            assert got == (want and want.objective)
            if want is not None:
                agree_true += 1
                three_way_roots += len(e.children[root]) == 3
            else:
                agree_false += 1
    assert agree_true >= 30 and agree_false >= 30 and three_way_roots >= 20, (
        agree_true, agree_false, three_way_roots)


def test_split_query_matches_oracle_two_way():
    rng = random.Random(915)
    hits = three_way_roots = 0
    for _ in range(150):
        g, t, fat = small_instance(rng, nmax=9, fat_root=True)
        for root in split_roots(t, fat):
            e = SplitEngine(g, t, root=root, groups=2)
            got = e.split_query()
            want = exhaustive_min_split(g, t, root, t.bags[root], groups=2)
            assert got == (want and want.objective)
            if want is not None:
                hits += 1
                three_way_roots += len(e.children[root]) == 3
    assert hits >= 30 and three_way_roots >= 12, (hits, three_way_roots)


@pytest.mark.parametrize("groups", [2, 3])
def test_capped_tables_are_filtered_tables(groups):
    # a table built under cap c is the uncapped one with its codes of h > c
    # dropped, and the query finds the uncapped minimum split exactly when
    # its separator fits under the cap
    rng = random.Random(919)
    found = {True: 0, False: 0}
    three_way_roots = 0
    for _ in range(150):
        g, t, fat = small_instance(rng, extra=2, fat_root=True)
        for root in split_roots(t, fat):
            full = SplitEngine(g, t, root=root, groups=groups)
            brute = {i: brute_table(g, full, i) for i in full.bag_list}
            want = full.split_query()
            if want is not None:
                three_way_roots += len(full.children[root]) == 3
            for cap in range(3):
                e = SplitEngine(g, t, root=root, groups=groups, cap=cap)
                assert (e.width, e.hmax) == (full.width, min(full.width, cap))
                for i, tab in brute.items():
                    assert e.table[i] == {c: hd for c, hd in tab.items() if hd[0] <= cap}
                fits = want is not None and want[0] <= cap
                assert e.split_query() == (want if fits else None)
                if want is not None:
                    found[fits] += 1
    assert min(found.values()) >= 40 and three_way_roots >= 5, (
        found, three_way_roots)


def test_state_query_requires_active_split():
    g = clique(3)
    t = TreeDecomposition([[0, 1, 2]], [], root=0)
    e = SplitEngine(g, t)
    assert e.split_query() is None
    with pytest.raises(ContractViolation):
        e.state_query()


def test_move_ends_split():
    # a split must not outlive a move, or it could pass for a split of the
    # new root: even the child read just before the move has no state after
    rng = random.Random(916)
    checked = three_way_roots = 0
    for _ in range(200):
        g, t, fat = small_instance(rng, nmax=8, fat_root=True)
        for root in split_roots(t, fat):
            e = SplitEngine(g, t, root=root)
            if e.split_query() is None or not e.children[root]:
                continue
            three_way_roots += len(e.children[root]) == 3
            child = e.children[root][0]
            e.state_query(child)
            e.move_to(child)
            for i in (None, root, e.root):
                with pytest.raises(ContractViolation):
                    e.state_query(i)
            checked += 1
    assert checked >= 10 and three_way_roots >= 10, (checked, three_way_roots)


def test_state_query_path3_worked_example():
    g = path_graph(3)
    t = TreeDecomposition([[0, 1, 2]], [], root=0)
    e = SplitEngine(g, t)
    assert e.split_query() == (1, 0)
    parts = e.state_query()
    assert parts == (frozenset({0}), frozenset({2}), frozenset(), frozenset({1}))


def _no_kernel(*_args):
    raise AssertionError("a table kernel ran during read-back")


@pytest.mark.parametrize("groups", [2, 3])
def test_propagated_states_form_valid_split(groups):
    rng = random.Random(916)
    checked = three_way_roots = 0
    for _ in range(200):
        g, t, fat = small_instance(rng, nmax=8, fat_root=True)
        for root in split_roots(t, fat):
            e = SplitEngine(g, t, root=root, groups=groups)
            objective = e.split_query()
            if objective is None:
                continue
            h, d = objective
            w = set(t.bags[root])
            # every node reads in place, with no move and no table kernel run ...
            e._lift = e._fold = e._introduce_all = _no_kernel
            in_place = {i: e.state_query(i) for i in e.bag_list}
            assert (e.root, e.moves, e.tables_computed) == (root, 0, len(t.bags))
            # ... every state read back is a relabelling of a code of its
            # node's table with that code's (h, d) pair ...
            assert set(e.state) == set(e.bag_list)
            for i, (c, hi, di) in e.state.items():
                assert e.table[i][_canon(c, _full_lows(len(e.bag_list[i])))] == (hi, di)
            # ... and the restrictions fuse into one valid split of the root bag
            group = {}
            for parts in in_place.values():
                for gi, part in enumerate(parts):
                    for v in part:
                        assert group.setdefault(v, gi) == gi
            assert set(group) == set(range(g.n))
            cs = [frozenset(v for v, gi in group.items() if gi == j) for j in range(4)]
            assert len(cs[3]) == h
            assert is_valid_split(g, w, cs[0], cs[1], cs[2], cs[3])
            checked += 1
            three_way_roots += len(e.children[root]) == 3
    assert checked >= 30 and three_way_roots >= 10, (checked, three_way_roots)


def reference_read_back(g, e, root):
    """The split and its read-back by the rule over full tables: the root
    takes the least (h, d, code) that passes the split test, and each child
    the least (nsep, re-anchored cost, code) over the codes of its full
    table that agree with its parent's code on the shared vertices. Returns
    {node: (code, h, d)}."""
    full = {i: full_brute_table(g, e, i) for i in e.bag_list}

    def digits(code, bag):
        return {v: (code >> 2 * (len(bag) - 1 - idx)) & 3 for idx, v in enumerate(bag)}

    w = e.bag_list[root]
    best = None
    for code, (h, d) in full[root].items():
        own = list(digits(code, w).values())
        counts = [own.count(j) for j in range(3)]
        if h + max(counts) < len(w) and (best is None or (h, d, code) < best):
            best = (h, d, code)
    if best is None:
        return None
    states = {root: (best[2], best[0], best[1])}
    order = [root]
    for i in order:
        parent = digits(states[i][0], e.bag_list[i])
        for c in e.children[i]:
            order.append(c)
            cbag = e.bag_list[c]
            shared = [v for v in cbag if v in e.bag_list[i]]
            pick = None
            for code, (ch, cd) in full[c].items():
                own = digits(code, cbag)
                if any(own[v] != parent[v] for v in shared):
                    continue
                cost = cd + ch - sum(1 for v in shared if own[v] == SEP)
                if pick is None or (ch, cost, code) < pick[:3]:
                    pick = (ch, cost, code, cd)
            states[c] = (pick[2], pick[0], pick[3])
    return states


@pytest.mark.parametrize("groups", [2, 3])
def test_read_back_matches_the_full_table_rule(groups):
    # tables hold one canonical code per orbit, but the split root's code
    # and every state read back, code and pair, are what the rule over the
    # full tables picks
    rng = random.Random(920 + groups)
    checked = three_way_roots = 0
    for _ in range(400):
        g, t, fat = small_instance(rng, nmax=7, extra=3, fat_root=True)
        for root in split_roots(t, fat):
            e = SplitEngine(g, t, root=root, groups=groups)
            want = reference_read_back(g, e, root)
            if e.split_query() is None:
                assert want is None
                continue
            assert e.state[root] == want[root]
            for i in e.bag_list:
                e.state_query(i)
            assert e.state == want
            checked += 1
            three_way_roots += len(e.children[root]) == 3
    assert checked >= 100 and three_way_roots >= 10, (checked, three_way_roots)


def test_edit_identity_round_trip():
    g = path_graph(3)
    t = TreeDecomposition([[0, 1], [1, 2]], [(0, 1)], root=0)
    e = SplitEngine(g, t, root=0)
    old_table_child = dict(e.table[1])
    ids = e.edit(
        EditPlan(
            removed=[0],
            bags=[[0, 1]],
            edges=[],
            attach={1: 0},
            pointer=0,
        )
    )
    assert ids == [2]
    assert e.root == 2
    assert e.bag_list[2] == [0, 1]
    assert e.parent[1] == 2 and e.children[2] == [1]
    assert 0 not in e.bag_list
    assert e.table[1] == old_table_child
    assert e.table[2] == brute_table(g, e, 2)


def test_edit_splits_path_bag():
    # replace the single bag {0,1,2} by the worked three-bag star around 1
    g = path_graph(3)
    t = TreeDecomposition([[0, 1, 2]], [], root=0)
    e = SplitEngine(g, t)
    assert e.split_query()
    ids = e.edit(
        EditPlan(
            removed=[0],
            bags=[[0, 1], [1, 2], [1], [1]],
            edges=[(0, 3), (1, 3), (2, 3)],
            attach={},
            pointer=3,
        )
    )
    assert len(ids) == 4
    td, remap = e.export_decomposition()
    assert sorted(map(len, td.bags)) == [1, 1, 2, 2]
    assert e.split_query() is None or max(len(b) for b in e.bag_list.values()) <= 2


def test_edit_rejections():
    g = path_graph(4)
    t = TreeDecomposition([[0, 1], [1, 2], [2, 3]], [(0, 1), (1, 2)], root=0)

    def fresh():
        return SplitEngine(g, t, root=0)

    with pytest.raises(ContractViolation):  # region must contain root
        fresh().edit(EditPlan([1], [[1, 2]], [], {0: 0, 2: 0}, 0))
    with pytest.raises(ContractViolation):  # region must be connected
        fresh().edit(EditPlan([0, 2], [[0, 1], [2, 3]], [], {1: 0}, 0))
    with pytest.raises(ContractViolation):  # border 1 missing from attach
        fresh().edit(EditPlan([0], [[0, 1]], [], {}, 0))
    with pytest.raises(ContractViolation):  # attach key 2 is not a border
        fresh().edit(EditPlan([0], [[0, 1]], [], {1: 0, 2: 0}, 0))
    with pytest.raises(ContractViolation):  # replacement edges form a cycle
        fresh().edit(
            EditPlan([0, 1], [[0, 1], [1, 2], [1]], [(0, 1), (1, 2), (0, 2)], {2: 1}, 2)
        )
    with pytest.raises(ContractViolation):  # attach target out of range
        fresh().edit(EditPlan([0], [[0, 1]], [], {1: 5}, 0))
    with pytest.raises(ContractViolation):  # pointer outside replacement
        fresh().edit(EditPlan([0], [[0, 1]], [], {1: 0}, 4))


def test_edit_degree_cap_enforced():
    g = star_graph(5)
    bags = [[0, 1], [0, 2], [0, 3], [0, 4]]
    t = normalize_degree3(
        TreeDecomposition(bags, [(0, 1), (1, 2), (2, 3)], root=0)
    )
    e = SplitEngine(g, t, root=0)
    borders = e.children[0]
    plan = EditPlan(
        removed=[0],
        bags=[[0, 1]],
        edges=[],
        attach={b: 0 for b in borders},
        pointer=0,
    )
    if len(borders) + 0 <= 2:
        e.edit(plan)  # fine at low degree
    else:
        with pytest.raises(ContractViolation):
            e.edit(plan)


def test_export_decomposition_round_trip():
    from twapx import validate

    rng = random.Random(917)
    for _ in range(20):
        g, t, root = small_instance(rng, nmax=9)
        e = SplitEngine(g, t, root=root)
        td, remap = e.export_decomposition()
        assert validate(g, td) == []
        assert sorted(map(tuple, td.bags)) == sorted(map(tuple, t.bags))
        assert remap[root] == td.root
        assert len(remap) == len(td.bags)
