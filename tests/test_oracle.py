"""Exhaustive oracle tests.

exact_treewidth (subset DP) is the reference the rest of the suite trusts, so
it is itself checked two ways: against the factorial-time naive oracle on
tiny graphs and against frozen known widths of standard families.
"""

import random

import pytest

from twapx import (
    BudgetError,
    Graph,
    TreeDecomposition,
    exact_treewidth,
    exhaustive_min_split,
)
from twapx.oracle import _home_depths, exact_treewidth_naive
from twapx.treedec import normalize_degree3

from gen import (
    clique,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_degree3_decomposition,
    random_tree,
    star_graph,
)


def test_known_family_widths():
    assert exact_treewidth(Graph(1)) == 0
    assert exact_treewidth(path_graph(2)) == 1
    assert exact_treewidth(path_graph(8)) == 1
    assert exact_treewidth(star_graph(9)) == 1
    assert exact_treewidth(cycle_graph(8)) == 2
    for n in range(2, 9):
        assert exact_treewidth(clique(n)) == n - 1
    assert exact_treewidth(grid_graph(2, 4)) == 2
    assert exact_treewidth(grid_graph(3, 3)) == 3
    assert exact_treewidth(grid_graph(3, 4)) == 3


def test_random_trees_have_width_one():
    rng = random.Random(404)
    for _ in range(25):
        g = random_tree(rng, rng.randint(2, 12))
        assert exact_treewidth(g) == 1


def test_disconnected_graph_width_is_max_over_components():
    g = Graph(7, [(0, 1), (2, 3), (3, 4), (2, 4), (5, 6)])
    assert exact_treewidth(g) == 2
    assert exact_treewidth(Graph(3)) == 0


def test_double_oracle_agreement():
    rng = random.Random(505)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        assert exact_treewidth(g) == exact_treewidth_naive(g)


def test_budget_refusals():
    big = path_graph(13)
    with pytest.raises(BudgetError):
        exact_treewidth(big)
    assert exact_treewidth(big, max_n=13) == 1
    with pytest.raises(BudgetError):
        exact_treewidth_naive(path_graph(8))
    t = TreeDecomposition([list(range(13))], [], root=0)
    with pytest.raises(BudgetError):
        exhaustive_min_split(big, t, 0, set(range(13)))


def test_min_split_path3_single_bag():
    g = path_graph(3)
    t = TreeDecomposition([[0, 1, 2]], [], root=0)
    s = exhaustive_min_split(g, t, 0, {0, 1, 2})
    assert s is not None
    assert s.objective == (1, 0)
    assert s.x == frozenset({1})
    assert s.groups == (frozenset({0}), frozenset({2}), frozenset())
    # a decomposition whose tree is not connected cannot be rooted
    split_forest = TreeDecomposition([[0, 1], [1, 2]], [], root=0)
    with pytest.raises(ValueError):
        exhaustive_min_split(g, split_forest, 0, {0, 1})


def test_min_split_triangle_none():
    g = clique(3)
    t = TreeDecomposition([[0, 1, 2]], [], root=0)
    assert exhaustive_min_split(g, t, 0, {0, 1, 2}) is None


def test_min_split_clique_none_at_any_bag():
    g = clique(5)
    t = TreeDecomposition([list(range(5))], [], root=0)
    assert exhaustive_min_split(g, t, 0, set(range(5))) is None


def test_min_split_prefers_shallow_separator():
    # C4 has two minimum separators for W = V: the pairs {1,3} and {0,2}.
    # With {1,3} homed at the root and {0,2} homed one level down, the
    # distance tie-break must pick {1,3}.
    g = cycle_graph(4)
    t = TreeDecomposition([[1, 3], [0, 1, 3], [1, 2, 3]], [(0, 1), (0, 2)], root=0)
    s = exhaustive_min_split(g, t, 0, {0, 1, 2, 3})
    assert s is not None
    assert s.x == frozenset({1, 3})
    assert s.objective == (2, 0)
    assert s.groups == (frozenset({0}), frozenset({2}), frozenset())


def test_min_split_two_way_mode_more_restrictive():
    # K1,3: the star center separates three leaves. A 3-bag split works, a
    # 2-bag split must merge two leaves into one group and still satisfies
    # the size condition for W = all vertices.
    g = star_graph(4)
    t = TreeDecomposition([[0, 1, 2, 3]], [], root=0)
    s3 = exhaustive_min_split(g, t, 0, {0, 1, 2, 3}, groups=3)
    s2 = exhaustive_min_split(g, t, 0, {0, 1, 2, 3}, groups=2)
    assert s3 is not None and s3.x == frozenset({0})
    assert s3.objective == (1, 0)
    assert frozenset().union(*s3.groups) == frozenset({1, 2, 3})
    assert max(len(p) for p in s3.groups) <= 2
    assert s2 is not None and s2.x == frozenset({0})
    assert s2.groups[2] == frozenset()
    assert frozenset().union(*s2.groups) == frozenset({1, 2, 3})
    # W = the three leaves: any separator leaves them in singleton
    # components that need three groups, so 2-way mode finds nothing
    w = {1, 2, 3}
    assert exhaustive_min_split(g, t, 0, w, groups=3) is not None
    assert exhaustive_min_split(g, t, 0, w, groups=2) is None


def test_min_split_objective_distance_matches_helper():
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(3, 9)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        t, root = random_degree3_decomposition(rng, g)
        home = _home_depths(t, root)
        w = set(t.bags[root])
        if len(w) < 2:
            continue
        s = exhaustive_min_split(g, t, root, w)
        if s is None:
            continue
        assert s.objective == (len(s.x), sum(home[v] for v in s.x))
        # groups are reported in canonical order
        nonempty = [p for p in s.groups if p]
        assert nonempty == sorted(nonempty, key=min)
