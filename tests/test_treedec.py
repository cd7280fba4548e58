"""Tree decomposition container, validation, normalization,
.td format, and bootstrap heuristic tests."""

import random

import pytest

from twapx import Graph, ParseError, TreeDecomposition, emit_td, parse_td, validate, width
from twapx.treedec import (
    STRATEGIES,
    decomposition_from_order,
    initial_decomposition,
    normalize_degree3,
)

from gen import clique, grid_graph, path_graph, random_connected_graph, star_graph


def test_width_examples():
    assert width(TreeDecomposition([], [])) == -1
    assert width(TreeDecomposition([[]], [])) == -1
    assert width(TreeDecomposition([[0, 1], [1]], [(0, 1)])) == 1


def test_validate_accepts_hand_decomposition():
    g = path_graph(3)
    t = TreeDecomposition([[0, 1], [1, 2]], [(0, 1)])
    assert validate(g, t) == []


def test_validate_named_violations():
    g = path_graph(3)
    cases = [
        (TreeDecomposition([[1, 0], [1, 2]], [(0, 1)]), "structure"),
        (TreeDecomposition([[0, 5], [1, 2]], [(0, 1)]), "structure"),
        (TreeDecomposition([[0, 1], [1, 2]], [(0, 2)]), "structure"),
        (TreeDecomposition([[0, 1], [1, 2]], []), "tree"),
        (TreeDecomposition([[0, 1], [1, 2], []], [(0, 1), (0, 1)]), "structure"),
        (TreeDecomposition([[0], [1, 2]], [(0, 1)]), "edge coverage"),
        (TreeDecomposition([[0, 1], [2]], [(0, 1)]), "edge coverage"),
        (TreeDecomposition([[0, 1], [1]], [(0, 1)]), "coverage"),
        (TreeDecomposition([[0, 1], [1, 2], [0, 1]], [(0, 1), (1, 2)]), "connectivity"),
    ]
    for t, label in cases:
        problems = validate(g, t)
        assert problems and any(p.startswith(label) for p in problems), (t, problems)


def test_validate_reports_root_out_of_range():
    g = path_graph(3)
    for root in (2, -1):
        t = TreeDecomposition([[0, 1], [1, 2]], [(0, 1)], root=root)
        assert validate(g, t) == [f"structure: root {root} out of range for 2 nodes"]


def test_normalize_degree3_star_center():
    # One center bag adjacent to 5 leaves: center splits into a 3-node path.
    center = [0, 1]
    leaves = [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6]]
    t = TreeDecomposition([center] + leaves, [(0, i) for i in range(1, 6)], root=0)
    g = Graph(7, [(0, 1)] + [(1, i) for i in range(2, 7)])
    assert validate(g, t) == []
    nt = normalize_degree3(t)
    assert validate(g, nt) == []
    assert width(nt) == width(t)
    assert max(len(a) for a in nt.adjacency()) <= 3
    assert len(nt.bags) == 6 + (5 - 2) - 1
    assert nt.root == 0 and nt.bags[nt.root] == [0, 1]


def test_normalize_degree3_identity_when_already_ok():
    t = TreeDecomposition([[0, 1], [1, 2]], [(0, 1)], root=1)
    assert normalize_degree3(t) is t


def test_normalize_degree3_property():
    rng = random.Random(202)
    for _ in range(80):
        n = rng.randint(1, 12)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        order = list(range(n))
        rng.shuffle(order)
        t = decomposition_from_order(g, order)
        t = TreeDecomposition(t.bags, t.edges, root=rng.randrange(len(t.bags)))
        nt = normalize_degree3(t)
        assert validate(g, nt) == []
        assert width(nt) == width(t)
        assert max(len(a) for a in nt.adjacency()) <= 3
        assert len(nt.bags) <= 2 * len(t.bags)
        # root maps to a copy holding the same bag
        assert sorted(nt.bags[nt.root]) == sorted(t.bags[t.root])


def test_emit_td_single_bag():
    assert emit_td(TreeDecomposition([[0]], [])) == "s td 1 1 1\nb 1 1\n"


def test_emit_td_empty_bag_line():
    t = TreeDecomposition([[], [0]], [(0, 1)])
    assert emit_td(t) == "s td 2 1 1\nb 1\nb 2 1\n1 2\n"


def test_parse_td_round_trip():
    text = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
    t = parse_td(text)
    assert t.bags == [[0, 1], [1, 2]] and t.edges == [(0, 1)]
    assert emit_td(t) == text


def test_parse_td_comments_and_order():
    text = "c comment\ns td 2 2 3\n1 2\nb 2 3 2\nc more\nb 1 2 1\n"
    t = parse_td(text)
    assert t.bags == [[0, 1], [1, 2]]


@pytest.mark.parametrize(
    "text",
    [
        "b 1 1\ns td 1 1 1\n",
        "s td 1 1 1\ns td 1 1 1\nb 1 1\n",
        "s td 1 1\nb 1 1\n",
        "s td 1 1 1\nb 1 1\nb 1 1\n",
        "s td 2 1 1\nb 1 1\n",
        "s td 1 1 1\nb 2 1\n",
        "s td 1 1 2\nb 1 3\n",
        "s td 1 2 2\nb 1 1\n",
        "s td 2 1 1\nb 1 1\nb 2 1\n1 1\n",
        "s td 2 1 1\nb 1 1\nb 2 1\n1 2\n2 1\n",
        "s td 2 1 1\nb 1 1\nb 2 1\n1 3\n",
        "",
    ],
)
def test_parse_td_rejections(text):
    with pytest.raises(ParseError):
        parse_td(text)


def test_decomposition_from_order_path():
    g = path_graph(4)
    t = decomposition_from_order(g, [0, 1, 2, 3])
    assert validate(g, t) == []
    assert width(t) == 1
    assert t.root == 3


def test_decomposition_from_order_rejects_non_permutation():
    with pytest.raises(ValueError):
        decomposition_from_order(path_graph(3), [0, 1])
    with pytest.raises(ValueError):
        decomposition_from_order(path_graph(3), [0, 1, 1])


def test_decomposition_from_order_empty_graph():
    t = decomposition_from_order(Graph(0), [])
    assert t.bags == [[]] and t.root == 0


def test_strategies_all_valid():
    rng = random.Random(303)
    for strategy in STRATEGIES:
        empty = initial_decomposition(Graph(0), strategy)
        assert (empty.bags, empty.root) == ([[]], 0), strategy
        for _ in range(30):
            n = rng.randint(0, 12)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            t = initial_decomposition(g, strategy)
            assert validate(g, t) == [], strategy
    with pytest.raises(ValueError):
        initial_decomposition(path_graph(2), "best-first")


def test_heuristic_widths_on_known_families():
    # min-degree is exact on these families; frozen expectations.
    assert width(initial_decomposition(path_graph(9), "min-degree")) == 1
    assert width(initial_decomposition(star_graph(9), "min-degree")) == 1
    assert width(initial_decomposition(clique(6), "min-degree")) == 5
    assert width(initial_decomposition(grid_graph(2, 4), "min-degree")) == 2
    assert width(initial_decomposition(grid_graph(3, 3), "min-fill")) == 3
    assert width(initial_decomposition(path_graph(9), "trivial")) == 8


def test_disconnected_graph_still_decomposes():
    g = Graph(4, [(0, 1), (2, 3)])
    for strategy in STRATEGIES:
        t = initial_decomposition(g, strategy)
        assert validate(g, t) == [], strategy
