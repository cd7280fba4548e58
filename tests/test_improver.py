"""Width-reduction pass and outer loop tests."""

import random

import pytest

from twapx import (
    ContractViolation,
    Decomposition,
    EditPlan,
    Graph,
    LowerBound,
    RunStats,
    SplitEngine,
    TreeDecomposition,
    approximate,
    exact_treewidth,
    exhaustive_min_split,
    validate,
    width,
)
from twapx import improver
from twapx.improver import (
    _CheckedEngine,
    _move_back,
    _with_sentinel,
    build_replacement,
    find_editable,
    potential,
    reduce_width_pass,
)

from gen import (
    clique,
    coarsen,
    cycle_graph,
    grid_graph,
    partial_ktree,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)


def test_potential_frozen_values():
    assert potential(TreeDecomposition([[0, 1], [1, 2]], [(0, 1)]).bags) == 98
    assert potential(TreeDecomposition([[], [0]], [(0, 1)]).bags) == 8
    assert potential(TreeDecomposition([[]], []).bags) == 1


def test_find_editable_path3_star_region():
    g = path_graph(3)
    t = TreeDecomposition([[0, 1, 2], []], [(0, 1)], root=0)
    e = SplitEngine(g, t, root=0)
    assert e.split_query()
    moves, tables = e.moves, e.tables_computed
    info = find_editable(e)
    assert (e.moves, e.tables_computed) == (moves, tables)
    assert info.nodes == [0]
    assert info.states[0] == (
        frozenset({0}),
        frozenset({2}),
        frozenset(),
        frozenset({1}),
    )
    assert info.states[1] == (frozenset(),) * 4  # the border's empty bag
    assert info.borders == {1: 0}
    assert info.x_full == frozenset({1})
    assert e.root == 0


def test_build_replacement_path3_worked_example():
    # The split of {0, 1, 2} is 0 | 2 | - with separator {1}, and the empty
    # border 1 meets group 0 (test_find_editable_path3_star_region). The
    # group copies are {0, 1}, {1, 2} and {1} (local ids 0, 1, 2), the
    # separator bag {1} is 3 and joins every root copy, and the border hangs
    # on copy 0. Contraction sweeps in local-id order: 0 and 1 lie in no
    # neighbour (their one neighbour is 3 = {1}); 2 = {1} has degree 1 and
    # lies in 3, so it merges into 3; 3 = {1}, now with neighbours 0 and 1,
    # lies in both and merges into 0, the smaller id, and 1 re-hangs on 0.
    # A second sweep merges nothing: {0, 1} and {1, 2} hold each other in
    # neither direction. What is left is {0, 1} - {1, 2}, the border on 0.
    g = path_graph(3)
    t = TreeDecomposition([[0, 1, 2], []], [(0, 1)], root=0)
    e = SplitEngine(g, t, root=0)
    assert e.split_query()
    info = find_editable(e)
    plan = build_replacement(e, info, 1)
    assert plan.removed == [0]
    assert [set(b) for b in plan.bags] == [{0, 1}, {1, 2}]
    assert plan.edges == [(0, 1)]
    assert plan.attach == {1: 0}
    assert plan.pointer == 0
    ids = e.edit(plan)
    assert len(ids) == 2
    td, _ = e.export_decomposition()
    assert validate(g, td) == []
    assert width(td) == 1


@pytest.mark.parametrize("k", [1, 2])
def test_build_replacement_contracts_subset_bags(monkeypatch, k):
    # in every plan of a pass, no new bag of degree <= 2 (new edges plus
    # attached borders) lies inside a new neighbour, no degree passes 3, and
    # the pointer is the bag that the pointer border q attaches to, so the
    # walk's step back to q is a step to a child of the pointer
    plans, sizes = [], []
    build, contract = improver.build_replacement, improver._contract

    def recorded_build(engine, info, pointer_border):
        plan = build(engine, info, pointer_border)
        plans.append((plan, pointer_border))
        return plan

    def recorded_contract(bags, ledges, attach):
        out = contract(bags, ledges, attach)
        sizes.append((len(bags), len(out[0])))
        return out

    monkeypatch.setattr(improver, "build_replacement", recorded_build)
    monkeypatch.setattr(improver, "_contract", recorded_contract)
    rng = random.Random(671 + k)
    for trial in range(8):
        g, t = partial_ktree(rng, rng.randint(20, 50), k=k)
        r = approximate(g, k, t0=coarsen(t, 3 * k + 4), check=trial < 3)
        assert isinstance(r, Decomposition)
        assert len(r.td.bags) <= 2 * g.n
    for plan, q in plans:
        nn = len(plan.bags)
        nbrs = [[] for _ in range(nn)]
        for a, b in plan.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        deg = [len(nb) for nb in nbrs]
        for loc in plan.attach.values():
            deg[loc] += 1
        assert max(deg) <= 3, deg
        for b in range(nn):
            if deg[b] <= 2:
                assert not any(plan.bags[b] <= plan.bags[c] for c in nbrs[b]), b
        assert plan.pointer == plan.attach[q]
    merged = sum(before - after for before, after in sizes)
    assert len(plans) == len(sizes) >= 40 and merged >= len(plans), (len(plans), merged)


def _spill_instance():
    # a1=0, a2=1, b1=2, b2=3, z=4, x=5, y=6: the triangles a1 a2 z and
    # b1 b2 y hang apart, and x sees a1, a2, b1, b2. Bag 0 holds all but x,
    # and bag 1 = {a1, a2, b1, b2, x} is x's home, below bag 0.
    g = Graph(
        7,
        [(0, 1), (0, 4), (1, 4), (2, 3), (2, 6), (3, 6), (0, 5), (1, 5), (2, 5), (3, 5)],
    )
    return g, TreeDecomposition([[0, 1, 2, 3, 4, 6], [0, 1, 2, 3, 5]], [(0, 1)])


def test_build_replacement_spills_a_separator_vertex_homed_below(monkeypatch):
    # The only minimum split of bag 0 is {a1, a2, z} | {b1, b2, y} with
    # X = {x}, and x is homed at node 1, so B^x of the root is {x}. The
    # copies of node 1 and the separator bag hold x, and the separator bag
    # joins the root copies, so every root copy must hold x too, or the bags
    # holding x fall apart. Contraction then leaves the two root copies.
    g, t0 = _spill_instance()
    fs = frozenset
    s = exhaustive_min_split(g, t0, 0, t0.bags[0])
    assert s.groups == (fs({0, 1, 4}), fs({2, 3, 6}), fs())
    assert (s.x, s.objective) == (fs({5}), (1, 1))
    plans, copies = [], []
    build, contract = improver.build_replacement, improver._contract

    def recorded_build(engine, info, pointer_border):
        plan = build(engine, info, pointer_border)
        plans.append((engine.root, info.nodes, plan))
        return plan

    def recorded_contract(bags, ledges, attach):
        copies.append(list(bags))
        return contract(bags, ledges, attach)

    monkeypatch.setattr(improver, "build_replacement", recorded_build)
    monkeypatch.setattr(improver, "_contract", recorded_contract)
    for check in (False, True):
        r = approximate(g, 1, t0=t0, check=check)
        assert isinstance(r, Decomposition)
        assert (r.td.bags, r.td.edges) == ([[0, 1, 4, 5], [2, 3, 5, 6]], [(0, 1)])
        assert validate(g, r.td) == [] and width(r.td) == 3
    assert len(plans) == len(copies) == 2
    for (root, nodes, plan), bags in zip(plans, copies):
        assert root == 0 and nodes == [0, 1]
        # the copies of group i are bags 2i (the root) and 2i+1 (node 1)
        root_copies = [bags[2 * i] for i in range(3)]
        assert root_copies == [fs({0, 1, 4, 5}), fs({2, 3, 5, 6}), fs({5})]
        assert plan.bags == [fs({0, 1, 4, 5}), fs({2, 3, 5, 6})]


def test_plain_run_validates_each_pass_output(monkeypatch):
    # a plan that leaves the spilled separator vertex x out of its bags
    # uncovers x; the plain engine applies it, and the validation of the
    # pass's output refuses the result
    g, t0 = _spill_instance()
    build = improver.build_replacement

    def without_spill(engine, info, pointer_border):
        plan = build(engine, info, pointer_border)
        spill = info.x_full.difference(engine.bag_list[engine.root])
        assert spill == {5}
        return EditPlan(
            removed=plan.removed,
            bags=[b - spill for b in plan.bags],
            edges=plan.edges,
            attach=plan.attach,
            pointer=plan.pointer,
        )

    monkeypatch.setattr(improver, "build_replacement", without_spill)
    with pytest.raises(ContractViolation, match="pass output invalid: .*vertex 5"):
        approximate(g, 1, t0=t0)


def test_find_editable_without_split_raises():
    g = clique(3)
    e = SplitEngine(g, TreeDecomposition([[0, 1, 2]], [], root=0))
    assert not e.split_query()
    with pytest.raises(ContractViolation):
        find_editable(e)


def test_step_back_needs_a_child_of_the_pointer():
    g = path_graph(4)
    t = TreeDecomposition([[0, 1], [1, 2], [2, 3]], [(0, 1), (1, 2)], root=0)
    e = SplitEngine(g, t, root=2)
    with pytest.raises(ContractViolation, match="not a child of the pointer 2"):
        _move_back(e, 0)  # two edges away
    assert (e.root, e.moves) == (2, 0)
    _move_back(e, 1)
    assert e.root == 1


# name -> (path length, bags, tree edges, sentinel, every move_to target in
#          order, splits, (moves, tables)). Each graph is a path and w = 2.
# Every pass ends at its last split: the pointer never walks back.
PRUNED_WALKS = {
    # Node 5 holds the only bag of size 3. The walk tree from the sentinel 7
    # is 7 - 0 - {1 - 2 - 3, 4 - 5 - 6}: the branch below 1 and the child 6
    # of the maximum bag hold no bag larger than w, and the walk enters none
    # of them.
    "one-branch": (
        9,
        [[3, 4], [2, 3], [1, 2], [0, 1], [4, 5], [5, 6, 7], [7, 8], []],
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7)],
        7,
        [0, 4, 5],
        1,
        (3, 16),
    ),
    # The split at 1 rewrites its parent 0 (the same bag) too, so the unseen
    # maximum bag 2 becomes a border of the edit, which leaves the new nodes
    # 6 = {2, 3} - 7 = {3, 4} with 2 below 7; they carry its count, and the
    # walk goes down through 7 to split 2. The new pointer 6 is the only
    # neighbour of the sentinel 5 left to walk, so the walk stays at 6
    # rather than step up to 5 and straight back.
    "border-taken-over": (
        7,
        [[2, 3, 4], [2, 3, 4], [4, 5, 6], [1, 2], [0, 1], []],
        [(0, 1), (0, 2), (1, 3), (3, 4), (0, 5)],
        5,
        [0, 1, 7, 2],
        2,
        (4, 18),
    ),
    # The walk splits 2 and finishes its parent 1. The split at 3 then
    # rewrites its parent 0 (the same bag) too, so 1 becomes a border of the
    # edit; finished, it counts 0, and the walk does not head back toward it.
    "finished-border": (
        6,
        [[3, 4, 5], [2, 3], [0, 1, 2], [3, 4, 5], []],
        [(0, 1), (1, 2), (0, 3), (0, 4)],
        4,
        [0, 1, 2, 1, 0, 3],
        2,
        (6, 21),
    ),
    # The walk tree from the sentinel 6 is 6 - 0 - {1 - {2, 3 - 5}, 4}. The
    # split at 2 rewrites its parent 1 (the same bag) too; its border 0
    # becomes q, and the unseen maximum bag 3 hangs below the new pointer 7,
    # through 8. The other unseen neighbour of 0, node 4, holds no bag larger
    # than w, so the walk stays at 7 and never steps up to 0 and back.
    "pointer-next": (
        8,
        [[1, 2], [2, 3, 4], [2, 3, 4], [4, 5, 6], [0, 1], [6, 7], []],
        [(0, 1), (1, 2), (1, 3), (0, 4), (3, 5), (0, 6)],
        6,
        [0, 1, 2, 8, 3],
        2,
        (5, 21),
    ),
    # As above, but 4 holds a maximum bag too: it is an older unseen
    # neighbour of q = 0 than the new pointer 7, so the walk steps up to 0
    # and splits 4 first, as the walk at 0 picks the smallest id.
    "older-neighbour-first": (
        9,
        [[2, 3], [3, 4, 5], [3, 4, 5], [5, 6, 7], [0, 1, 2], [7, 8], []],
        [(0, 1), (1, 2), (1, 3), (0, 4), (3, 5), (0, 6)],
        6,
        [0, 1, 2, 0, 4, 0, 7, 8, 3],
        3,
        (9, 31),
    ),
}


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("name", sorted(PRUNED_WALKS))
def test_pass_walks_only_toward_maximum_bags(monkeypatch, name, check):
    n, bags, edges, sentinel, want, splits, counts = PRUNED_WALKS[name]
    t = TreeDecomposition(bags, edges, root=sentinel)
    e = (_CheckedEngine if check else SplitEngine)(path_graph(n), t, root=sentinel)
    visited = []
    edited = [0, 0]
    move_to, edit = e.move_to, e.edit
    monkeypatch.setattr(e, "move_to", lambda i: (visited.append(i), move_to(i)))

    def counted_edit(plan):
        ids = edit(plan)
        edited[0] += len(ids)
        edited[1] += len(plan.removed)
        return ids

    monkeypatch.setattr(e, "edit", counted_edit)
    assert reduce_width_pass(e) is None
    assert (e.edits, e.bags_inserted, e.bags_removed) == (splits, *edited)
    assert max(len(b) for b in e.bag_list.values()) == 2
    assert visited == want
    assert (e.moves, e.tables_computed) == counts


@pytest.mark.parametrize("hidden", ["subtree", "everywhere"])
def test_pass_raises_on_a_hidden_maximum_bag(monkeypatch, hidden):
    # node 5 holds the only bag above w = 2; hiding it from the subtree
    # counts leaves the walk to close its start leaf, and hiding it from
    # every count leaves it to the scan at the end of the pass
    n, bags, edges, sentinel, *_rest = PRUNED_WALKS["one-branch"]
    e = SplitEngine(path_graph(n), TreeDecomposition(bags, edges, root=sentinel))
    count_big = improver._count_big

    def hiding(engine, top, w, seen, big):
        count_big(engine, top, w, seen, big)
        big[5] = 0
        if hidden == "everywhere":
            for i in (4, 0, sentinel):
                big[i] -= 1
        return big

    monkeypatch.setattr(improver, "_count_big", hiding)
    want = "closed its start leaf" if hidden == "subtree" else "pass ended with 1"
    with pytest.raises(ContractViolation, match=want):
        reduce_width_pass(e)


def test_pass_ends_at_its_last_split(monkeypatch):
    # no move follows a pass's last edit, and no bag above w is left
    rng = random.Random(667)
    passes = 0
    for trial in range(12):
        k = 1 + trial % 2
        g, t = partial_ktree(rng, rng.randint(12, 40), k=k)
        engine = _CheckedEngine if trial < 4 else SplitEngine
        e = engine(g, _with_sentinel(coarsen(t, 3 * k + 3)), cap=k + 1)
        events = []
        move_to, edit = e.move_to, e.edit
        monkeypatch.setattr(e, "move_to", lambda i: (events.append("move"), move_to(i)))
        monkeypatch.setattr(e, "edit", lambda plan: (events.append("edit"), edit(plan))[1])
        while e.width >= 2 * k + 2:
            sentinel, w = e.root, e.width
            events.clear()
            assert reduce_width_pass(e) is None
            assert events[-1] == "edit"
            assert max(len(b) for b in e.bag_list.values()) <= w
            passes += 1
            e.next_pass(sentinel)
    assert passes >= 20, passes


@pytest.mark.parametrize("check", [False, True])
def test_run_stats_add_up_the_engine_counters(monkeypatch, check):
    # two-way passes from width 9, then three-way ones on a new engine
    g, t = partial_ktree(random.Random(669), 40, k=2)
    counted = []
    run_pass = improver.reduce_width_pass

    def counting_pass(engine):
        bad = run_pass(engine)
        counted.append((engine.edits, engine.bags_inserted, engine.bags_removed,
                        engine.moves, engine.tables_computed))
        return bad

    monkeypatch.setattr(improver, "reduce_width_pass", counting_pass)
    st = RunStats()
    r = approximate(g, 2, t0=coarsen(t, 10), check=check, stats=st)
    assert isinstance(r, Decomposition)
    assert st.passes == len(counted) >= 3 and 0 < st.two_way_passes < st.passes
    totals = tuple(map(sum, zip(*counted)))
    assert (st.splits, st.inserted, st.removed, st.moves, st.tables) == totals


def test_check_mode_catches_a_wrong_root_table_past_the_oracle(monkeypatch):
    # past ORACLE_CHECK_MAX_N a new engine over the export checks each query:
    # lowering the cost of the winning code of one root table must raise
    g, t = partial_ktree(random.Random(670), 40, k=2)
    query = _CheckedEngine.split_query

    def corrupted(self):
        if SplitEngine.split_query(self) is not None:
            code, h, d = self.state[self.root]
            self.table[self.root] = {**self.table[self.root], code: (h, d - 1)}
        return query(self)

    monkeypatch.setattr(_CheckedEngine, "split_query", corrupted)
    assert g.n > improver.ORACLE_CHECK_MAX_N
    with pytest.raises(ContractViolation, match="disagrees with a new engine"):
        approximate(g, 2, t0=coarsen(t, 7), check=True)


def assert_matches_a_new_engine(e, g, t, remap, groups, cap):
    """e, just past next_pass, holds what a new engine over t (an export of
    e before next_pass, with id map remap) plus a start leaf holds, once its
    tables drop the codes of h > the new engine's hmax: next_pass keeps
    hmax, so an uncapped e keeps the codes of its first width. Returns the
    new engine."""
    fresh = SplitEngine(g, _with_sentinel(t), groups=groups, cap=cap)
    ids = {**remap, e.root: fresh.root}
    assert sorted(ids) == sorted(e.bag_list) and not e.bag_list[e.root]
    for i, j in ids.items():
        kept = {c: hd for c, hd in e.table[i].items() if hd[0] <= fresh.hmax}
        assert kept == fresh.table[j]
        p = e.parent[i]
        assert (None if p is None else ids[p]) == fresh.parent[j]
        assert [ids[c] for c in e.children[i]] == fresh.children[j]
    assert e.width == fresh.width and e.hmax >= fresh.hmax
    assert e.tables_computed == 2 * e.moves > 0
    return fresh


@pytest.mark.parametrize("groups", [2, 3])
def test_next_pass_matches_a_new_engine(groups):
    # after each successful pass, the reused engine must hold what a new
    # engine over the export plus a start leaf holds, under the same cap; an
    # uncapped engine keeps its first hmax and so the codes of h above the
    # new one
    rng = random.Random(666)
    compared = wider = 0
    for trial in range(10):
        g, t = partial_ktree(rng, rng.randint(10, 30), k=1)
        cap = (None, 2)[trial % 2]
        e = SplitEngine(g, _with_sentinel(coarsen(t, 7)), groups=groups, cap=cap)
        hmax = e.hmax
        while True:
            sentinel = e.root
            if reduce_width_pass(e) is not None:
                break
            t, remap = e.export_decomposition(skip=sentinel)
            if width(t) < 4:
                break
            e.next_pass(sentinel)
            assert e.hmax == hmax
            fresh = assert_matches_a_new_engine(e, g, t, remap, groups, cap)
            compared += 1
            wider += e.hmax > fresh.hmax
    assert compared >= 16 and wider >= 8, (compared, wider)


@pytest.mark.parametrize("groups", [2, 3])
def test_next_pass_drops_a_start_leaf_below_the_root(groups):
    # the start leaf's lift is its neighbour's local table, which no join
    # changes: dropping it below the pointer changes no table
    rng = random.Random(668)
    for trial in range(12):
        g, t = partial_ktree(rng, rng.randint(6, 20), k=1)
        cap = (None, 2)[trial % 2]
        e = SplitEngine(g, _with_sentinel(coarsen(t, 5)), groups=groups, cap=cap)
        sentinel = e.root
        e.move_to(rng.choice([i for i in sorted(e.bag_list) if i != sentinel]))
        t, remap = e.export_decomposition(skip=sentinel)
        e.next_pass(sentinel)
        assert sentinel not in e.bag_list
        assert_matches_a_new_engine(e, g, t, remap, groups, cap)


def test_next_pass_needs_the_empty_start_leaf_below_the_pointer():
    g = path_graph(3)
    t = TreeDecomposition([[0, 1], [1, 2], []], [(0, 1), (1, 2)], root=0)
    with pytest.raises(ContractViolation, match="not an empty leaf"):
        SplitEngine(g, t, root=0).next_pass(0)
    between = TreeDecomposition([[0, 1], [], [2]], [(0, 1), (1, 2)], root=0)
    with pytest.raises(ContractViolation, match="not an empty leaf"):
        SplitEngine(Graph(3, [(0, 1)]), between, root=0).next_pass(1)
    # an empty leaf at the pointer is refused, by next_pass and by export
    at_root = SplitEngine(g, t, root=2)
    with pytest.raises(ContractViolation, match="not an empty leaf below the pointer"):
        at_root.next_pass(2)
    with pytest.raises(ContractViolation, match="not a leaf below the pointer"):
        at_root.export_decomposition(skip=2)
    e = SplitEngine(g, t, root=0)
    e.next_pass(2)
    assert e.root == 3 and 2 not in e.bag_list
    assert e.parent == {3: None, 0: 3, 1: 0}
    hung = TreeDecomposition([[0, 1], [1, 2], []], [(0, 1), (0, 2)], root=2)
    fresh = SplitEngine(g, hung)
    assert e.table == {3 if i == 2 else i: tab for i, tab in fresh.table.items()}
    # tables cannot take back rows they never kept: the width may not grow
    e = SplitEngine(g, t, root=2)
    e.edit(EditPlan([2, 1], [[0, 1, 2], []], [(0, 1)], {0: 0}, 0))
    with pytest.raises(ContractViolation, match="width grew from 1 to 2"):
        e.next_pass(4)


def test_every_pass_runs_at_hmax_k_plus_1_below_the_width(monkeypatch):
    # approximate caps its engines at k+1 and runs a pass only while the
    # width is >= 2k+2, so hmax is k+1 at every pass, and next_pass always
    # finds the start leaf of the pass just ended below the pointer
    k_of = {}
    init, next_pass = SplitEngine.__init__, SplitEngine.next_pass

    def built(e, g, t, root=None, groups=3, cap=None):
        init(e, g, t, root=root, groups=groups, cap=cap)
        assert e.hmax == k_of["k"] + 1 < e.width, (e.hmax, e.width)

    def passed(e, start):
        assert start != e.root
        next_pass(e, start)
        assert e.hmax == k_of["k"] + 1 < e.width, (e.hmax, e.width)
        k_of["next"] += 1

    monkeypatch.setattr(SplitEngine, "__init__", built)
    monkeypatch.setattr(SplitEngine, "next_pass", passed)
    rng = random.Random(671)
    cases = [
        (k, False, *partial_ktree(rng, n, k=k)) for k, n in ((1, 40), (2, 40), (3, 30))
    ]
    cases = [(k, check, g, coarsen(t, 3 * k + 4)) for k, check, g, t in cases]
    g, t = partial_ktree(random.Random(669), 40, k=2)
    cases.append((2, True, g, coarsen(t, 10)))
    cases.append((2, False, grid_graph(5, 8), None))
    outcomes = []
    passes = two_way = reused = 0
    for k, check, g, t0 in cases:
        k_of.update(k=k, next=0)
        st = RunStats()
        r = approximate(g, k, t0=t0, check=check, stats=st)
        outcomes.append(type(r))
        assert st.passes >= 1 and k_of["next"] <= st.passes - 1
        passes += st.passes
        two_way += st.two_way_passes
        reused += k_of["next"]
    assert outcomes == [Decomposition] * 4 + [LowerBound]
    assert passes >= 10 and 4 <= two_way < passes and reused >= 6, (
        passes, two_way, reused)


def test_approximate_path3_k0():
    r = approximate(path_graph(3), 0, check=True)
    assert isinstance(r, Decomposition)
    assert width(r.td) <= 1


def test_approximate_triangle_k0_lower_bound():
    g = clique(3)
    r = approximate(g, 0, check=True)
    assert isinstance(r, LowerBound)
    assert r.k == 0
    assert sorted(r.bag) == [0, 1, 2]
    assert len(r.bag) >= 2 * r.k + 3
    assert validate(g, r.td) == []
    assert r.groups == (2 if len(r.bag) >= 3 * r.k + 4 else 3)
    assert exhaustive_min_split(g, r.td, r.node, r.bag) is None


def test_approximate_k4():
    g = clique(4)
    lb = approximate(g, 0, check=True)
    assert isinstance(lb, LowerBound) and len(lb.bag) == 4
    dec = approximate(g, 2, check=True)
    assert isinstance(dec, Decomposition) and width(dec.td) == 3
    dec3 = approximate(g, 3, check=True)
    assert isinstance(dec3, Decomposition) and width(dec3.td) == 3


def test_approximate_tree_k1():
    rng = random.Random(111)
    g = random_tree(rng, 7)
    r = approximate(g, 1, check=True, strategy="trivial")
    assert isinstance(r, Decomposition)
    assert width(r.td) <= 3
    assert validate(g, r.td) == []


def test_approximate_validates_inputs():
    g = path_graph(3)
    with pytest.raises(ValueError):
        approximate(g, -1)
    bad_t0 = TreeDecomposition([[0, 1]], [])
    with pytest.raises(ValueError):
        approximate(g, 1, t0=bad_t0)
    with pytest.raises(ValueError):
        approximate(g, 1, strategy="best")


def test_approximate_rejects_t0_root_out_of_range():
    # bag 4 has degree 4, so normalize_degree3 would look the root up
    g = Graph(6, [(0, i) for i in range(1, 6)])
    bags = [[0, 1, 2], [0, 3], [0, 4], [0, 5], [0]]
    t0 = TreeDecomposition(bags, [(i, 4) for i in range(4)], root=9)
    with pytest.raises(ValueError, match="starting decomposition invalid: structure: root 9"):
        approximate(g, 0, t0=t0)


def test_approximate_keeps_good_t0():
    rng = random.Random(222)
    g, t0 = partial_ktree(rng, 40, k=3)
    stats = RunStats()
    r = approximate(g, 3, t0=t0, stats=stats)
    assert isinstance(r, Decomposition)
    assert r.td is t0
    assert stats.passes == 0 and stats.splits == 0
    assert stats.outcome == "decomposition" and stats.width == 3


def test_stats_populated_on_split_run():
    g = path_graph(6)
    stats = RunStats()
    r = approximate(g, 0, strategy="trivial", stats=stats, check=True)
    assert isinstance(r, Decomposition) and width(r.td) <= 1
    assert stats.outcome == "decomposition"
    assert stats.width == width(r.td)
    assert stats.k == 0
    assert stats.passes >= 1
    assert stats.splits >= 1
    assert stats.removed >= stats.splits
    assert stats.inserted <= 3 * stats.removed + 4 * stats.splits
    assert stats.moves > 0 and stats.tables > 0
    assert stats.wall_time_s >= 0
    lines = stats.as_lines()
    assert all("=" in ln for ln in lines)
    assert lines[0] == "outcome=decomposition"


def test_two_way_modes_sound():
    # the trivial seed's one bag holds all n vertices; on the sparser, larger
    # graphs that is at least 3tw+4, so passes run in both table modes, and
    # check mode compares each split with the oracle
    rng = random.Random(333)
    two_way = three_way = 0
    for _ in range(50):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n, rng.randint(0, n // 2))
        tw = exact_treewidth(g)
        st = RunStats()
        r = approximate(g, tw, strategy="trivial", check=True, stats=st)
        assert isinstance(r, Decomposition)
        assert width(r.td) <= 2 * tw + 1
        assert validate(g, r.td) == []
        two_way += st.two_way_passes > 0
        three_way += st.passes > st.two_way_passes
    assert two_way >= 8 and three_way >= 20, (two_way, three_way)


def test_two_way_stats_on_wide_bags():
    # wide starting bag over a sparse graph: bags of 12 down to 7 are at
    # least 3k+4, so six passes run on two-way tables
    g = path_graph(12)
    stats = RunStats()
    r = approximate(g, 1, strategy="trivial", stats=stats, check=True)
    assert isinstance(r, Decomposition)
    assert width(r.td) <= 3
    assert stats.two_way_passes == 6


def test_two_way_failure_is_the_certificate():
    # the min-degree seed of K_n is one bag of n >= 3k+4 vertices: one
    # two-way pass fails on it, and that failure is the certificate
    for n, tables in ((10, 13), (11, 14), (12, 15)):
        g = clique(n)
        st = RunStats()
        r = approximate(g, 1, stats=st)
        assert isinstance(r, LowerBound), n
        counts = (st.passes, st.two_way_passes, st.splits, st.moves, st.tables)
        assert counts == (1, 1, 0, 1, tables), (n, counts)
        assert r.groups == 2
        assert sorted(r.bag) == list(range(n))
        assert exhaustive_min_split(g, r.td, r.node, r.bag, groups=2) is None
    # below 3k+4 the passes are three-way, and so is the certificate
    g = grid_graph(4, 4)
    r = approximate(g, 1)
    assert isinstance(r, LowerBound)
    assert len(r.bag) < 3 * 1 + 4
    assert r.groups == 3


def test_structured_families_small():
    assert isinstance(approximate(cycle_graph(8), 2, check=True), Decomposition)
    assert isinstance(approximate(star_graph(9), 1, check=True), Decomposition)
    g = grid_graph(3, 3)
    r = approximate(g, 3, strategy="trivial", check=True)
    assert isinstance(r, Decomposition)
    assert width(r.td) <= 7


def test_lower_bound_certificates_oracle_confirmed():
    rng = random.Random(444)
    seen_lb = 0
    for _ in range(60):
        n = rng.randint(3, 9)
        g = random_connected_graph(rng, n, rng.randint(n // 2, 2 * n))
        tw = exact_treewidth(g)
        for k in {0, max(0, tw - 1)}:
            r = approximate(g, k, strategy="trivial", check=True)
            if isinstance(r, LowerBound):
                seen_lb += 1
                assert tw > r.k
                assert len(r.bag) >= 2 * r.k + 3
                assert validate(g, r.td) == []
                assert r.groups == (2 if len(r.bag) >= 3 * r.k + 4 else 3)
                # no split with a separator of at most k+1 vertices
                ref = exhaustive_min_split(g, r.td, r.node, r.bag)
                assert ref is None or ref.objective[0] > r.k + 1
            else:
                assert width(r.td) <= 2 * k + 1
    assert seen_lb >= 10


def test_check_mode_full_corpus_sample():
    rng = random.Random(555)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        tw = exact_treewidth(g)
        r = approximate(g, tw, strategy="trivial", check=True)
        assert isinstance(r, Decomposition)
        assert width(r.td) <= 2 * tw + 1
        assert validate(g, r.td) == []


def test_disconnected_input():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    tw = exact_treewidth(g)
    assert tw == 2
    r = approximate(g, 2, strategy="trivial", check=True)
    assert isinstance(r, Decomposition)
    assert width(r.td) <= 5
    assert validate(g, r.td) == []


def test_single_vertex_and_edge():
    r = approximate(Graph(1), 0)
    assert isinstance(r, Decomposition) and width(r.td) == 0
    r = approximate(Graph(2, [(0, 1)]), 1)
    assert isinstance(r, Decomposition) and width(r.td) <= 3
    lb = approximate(Graph(2, [(0, 1)]), 0, strategy="trivial")
    assert isinstance(lb, (Decomposition, LowerBound))
    if isinstance(lb, Decomposition):
        assert width(lb.td) <= 1
