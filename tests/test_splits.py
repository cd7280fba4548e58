"""Split semantics: validity predicate, home depths, distance objective,
canonical form."""

import random

import pytest

from twapx import ContractViolation, TreeDecomposition, exhaustive_min_split
from twapx.oracle import Split, _home_depths, is_valid_split

from gen import (
    clique,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_degree3_decomposition,
    star_graph,
)


def fs(*xs):
    return frozenset(xs)


def test_path3_worked_split():
    g = path_graph(3)
    w = {0, 1, 2}
    assert is_valid_split(g, w, fs(0), fs(2), fs(), fs(1))
    # separator too weak: {0,2} in one group leaves |w∩c|+|x| = 3
    assert not is_valid_split(g, w, fs(0, 2), fs(), fs(), fs(1))
    # edge between groups
    assert not is_valid_split(g, w, fs(0, 1), fs(2), fs(), fs())


def test_triangle_has_no_split():
    g = clique(3)
    w = {0, 1, 2}
    for x in [fs(), fs(0), fs(1), fs(2)]:
        rest = [v for v in range(3) if v not in x]
        groupings = [
            (fs(*rest), fs(), fs()),
            (fs(rest[0]), fs(*rest[1:]), fs()) if len(rest) >= 2 else None,
        ]
        for gr in groupings:
            if gr is None:
                continue
            assert not is_valid_split(g, w, gr[0], gr[1], gr[2], x)


def test_is_valid_split_rejects_non_partition():
    g = path_graph(3)
    with pytest.raises(ContractViolation):
        is_valid_split(g, {0, 1, 2}, fs(0), fs(0, 2), fs(), fs(1))
    with pytest.raises(ContractViolation):
        is_valid_split(g, {0, 1, 2}, fs(0), fs(), fs(), fs(1))


def test_split_condition_counts_whole_separator():
    # |w ∩ ci| + |x| < |w| uses all of x, including vertices outside w.
    g = path_graph(5)
    w = {1, 2, 3}
    # x = {0, 2} has size 2, so groups may keep at most 0 vertices of w: fails
    assert not is_valid_split(g, w, fs(1), fs(3, 4), fs(), fs(0, 2))
    # x = {2}: each side keeps one w vertex, 1 + 1 < 3 holds
    assert is_valid_split(g, w, fs(0, 1), fs(3, 4), fs(), fs(2))


def test_home_depths_breadth_first():
    t = TreeDecomposition([[0, 1], [1, 2], [2, 3]], [(0, 1), (1, 2)])
    assert _home_depths(t, 0) == {0: 0, 1: 0, 2: 1, 3: 2}
    assert _home_depths(t, 2) == {0: 2, 1: 1, 2: 0, 3: 0}
    # a vertex in two bags at one depth takes that depth once
    star = TreeDecomposition([[0], [0, 1], [0, 2]], [(0, 1), (0, 2)])
    assert _home_depths(star, 1) == {0: 0, 1: 0, 2: 2}


def test_home_depths_rejects_disconnected_and_out_of_range():
    g = path_graph(2)
    forest = TreeDecomposition([[0], [1]], [])
    with pytest.raises(ValueError, match="decomposition is not connected"):
        _home_depths(forest, 0)
    with pytest.raises(ValueError, match="decomposition is not connected"):
        exhaustive_min_split(g, forest, 0, {0, 1})
    t = TreeDecomposition([[0, 1]], [])
    for root in (1, -1):
        with pytest.raises(ValueError, match=f"root {root} out of range for 1 nodes"):
            _home_depths(t, root)
        with pytest.raises(ValueError, match=f"root {root} out of range for 1 nodes"):
            exhaustive_min_split(g, t, root, {0, 1})
    # a vertex no bag holds has no home depth
    with pytest.raises(KeyError):
        exhaustive_min_split(path_graph(3), t, 0, {0, 1})


def test_split_distance_uses_home_depths():
    # W = {1, 2, 3} on the path 0-1-2-3: only x = {2} splits it, since {1}
    # leaves 2 and 3 together and {0}, {3} leave three or two W-vertices in
    # one component. Its distance is the home depth of 2 from the root.
    g = path_graph(4)
    t = TreeDecomposition([[0, 1], [1, 2], [2, 3]], [(0, 1), (1, 2)])
    for root, d in ((0, 1), (1, 0), (2, 0)):
        s = exhaustive_min_split(g, t, root, {1, 2, 3})
        assert s is not None and s.x == fs(2)
        assert s.objective == (1, d)
    # with W = V both {1} and {2} split; the distance picks the shallower
    w = {0, 1, 2, 3}
    s = exhaustive_min_split(g, t, 0, w)
    assert (s.x, s.objective) == (fs(1), (1, 0))
    s = exhaustive_min_split(g, t, 2, w)
    assert (s.x, s.objective) == (fs(2), (1, 0))
    # on the 4-cycle, a separator's distance sums its two home depths
    c4 = cycle_graph(4)
    t4 = TreeDecomposition([[0], [0, 1, 3], [1, 2, 3]], [(0, 1), (1, 2)])
    assert _home_depths(t4, 0) == {0: 0, 1: 1, 3: 1, 2: 2}
    s = exhaustive_min_split(c4, t4, 0, w)
    assert (s.x, s.objective) == (fs(0, 2), (2, 2))
    s = exhaustive_min_split(c4, t4, 2, w)
    assert (s.x, s.objective) == (fs(1, 3), (2, 0))


def test_canonical_groups_orders_by_min_and_pads():
    rng = random.Random(707)
    seen = set()
    for _ in range(60):
        n = rng.randint(3, 8)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        t, root = random_degree3_decomposition(rng, g)
        for groups in (2, 3):
            s = exhaustive_min_split(g, t, root, t.bags[root], groups=groups)
            if s is None:
                continue
            nonempty = [p for p in s.groups if p]
            assert s.groups[: len(nonempty)] == tuple(sorted(nonempty, key=min))
            assert all(not p for p in s.groups[len(nonempty):])
            if groups == 2:
                assert not s.c3
            seen.add((groups, len(nonempty)))
    assert {(2, 2), (3, 2)} <= seen
    # three leaves of a star, each a group of its own
    star = TreeDecomposition([[0, 1, 2, 3]], [])
    s = exhaustive_min_split(star_graph(4), star, 0, {1, 2, 3})
    assert s.groups == (fs(1), fs(2), fs(3))


def test_min_split_objective_and_form():
    # On the path 0-1-2-3-4 with W = V, x = {1} is the first separator that
    # splits. Packing places the heavier component {2, 3, 4} first; the
    # Split lists groups by smallest member, the empty one last.
    g = path_graph(5)
    t = TreeDecomposition([[0, 1, 2, 3, 4]], [])
    s = exhaustive_min_split(g, t, 0, set(range(5)))
    assert isinstance(s, Split)
    assert s.groups == (fs(0), fs(2, 3, 4), fs())
    assert s.objective == (1, 0)
    assert s.x == fs(1)
