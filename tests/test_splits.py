"""Split semantics: validity predicate, distance objective, canonical form."""

import pytest

from twapx import ContractViolation, TreeDecomposition
from twapx.splits import (
    Split,
    canonical_groups,
    is_valid_split,
    make_split,
    split_distance,
)
from twapx.treedec import root_and_home_bags

from gen import clique, path_graph


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


def test_split_distance_uses_home_depths():
    t = TreeDecomposition([[0, 1], [1, 2], [2, 3]], [(0, 1), (1, 2)])
    rv = root_and_home_bags(t, 0)
    assert split_distance({0, 1}, rv) == 0
    assert split_distance({2}, rv) == 1
    assert split_distance({3}, rv) == 2
    assert split_distance({1, 2, 3}, rv) == 3
    rv2 = root_and_home_bags(t, 2)
    assert split_distance({3}, rv2) == 0
    assert split_distance({0}, rv2) == 2


def test_canonical_groups_orders_by_min_and_pads():
    parts = (fs(5, 6), fs(), fs(1, 9))
    assert canonical_groups(parts) == (fs(1, 9), fs(5, 6), fs())
    assert canonical_groups((fs(), fs(), fs())) == (fs(), fs(), fs())


def test_make_split_objective_and_form():
    g = path_graph(3)
    t = TreeDecomposition([[0, 1, 2]], [])
    rv = root_and_home_bags(t, 0)
    s = make_split(fs(2), fs(0), fs(), fs(1), rv)
    assert isinstance(s, Split)
    assert s.groups == (fs(0), fs(2), fs())
    assert s.objective == (1, 0)
    assert s.x == fs(1)
