"""Graph container and .gr format tests."""

import random

import pytest

from twapx import Graph, ParseError, emit_gr, parse_gr

from gen import random_connected_graph


def test_basic_container():
    g = Graph(4, [(0, 1), (2, 1), (0, 3)])
    assert g.n == 4 and g.m == 3
    assert g.adj[1] == [0, 2]
    assert g.has_edge(1, 0) and g.has_edge(0, 1)
    assert not g.has_edge(2, 3)
    assert g.edges() == [(0, 1), (0, 3), (1, 2)]
    assert len(g.adj[0]) == 2 and len(g.adj[3]) == 1


def test_constructor_rejections():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(-1, 0)])
    # duplicates given far apart, in either orientation
    for edges in [(0, 3), (1, 2), (3, 0)], [(0, 3), (1, 2), (0, 3)], [(3, 1), (1, 3)]:
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph(4, edges)


def test_has_edge_at_the_ends_of_the_list():
    g = Graph(6, [(2, 3), (2, 4), (0, 1)])
    assert g.adj[2] == [3, 4]
    assert not g.has_edge(2, 0) and not g.has_edge(2, 1)  # below the smallest
    assert not g.has_edge(2, 5)  # above the largest
    assert g.has_edge(2, 3) and g.has_edge(2, 4) and g.has_edge(4, 2)
    assert not any(g.has_edge(5, v) for v in range(6))  # isolated vertex
    assert not any(g.has_edge(v, 5) for v in range(6))


def test_has_edge_matches_the_edge_list():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 14)
        g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
        edges = set(g.edges())
        for u in range(n):
            assert g.adj[u] == sorted(set(g.adj[u]))
            for v in range(n):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)


def test_emit_canonical_path3():
    g = Graph(3, [(1, 2), (0, 1)])
    assert emit_gr(g) == "p tw 3 2\n1 2\n2 3\n"


def test_parse_handles_comments_and_blank_lines():
    text = "c a comment\n\np tw 3 2\nc mid comment\n1 2\n2 3\n"
    g = parse_gr(text)
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]


def test_parse_drops_loops_and_duplicates_with_warning():
    text = "p tw 3 4\n1 2\n2 1\n3 3\n2 3\n"
    with pytest.warns(UserWarning):
        g = parse_gr(text)
    assert g.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text",
    [
        "1 2\np tw 2 1\n",
        "p tw 2 1\np tw 2 1\n1 2\n",
        "p tw two 1\n",
        "p cnf 2 1\n1 2\n",
        "p tw 2 1\n1 2 3\n",
        "p tw 2 2\n1 2\n",
        "p tw 2 1\n1 3\n",
        "p tw 2 1\n0 1\n",
        "",
    ],
)
def test_parse_rejections(text):
    with pytest.raises(ParseError):
        parse_gr(text)


def test_parse_error_carries_line_number():
    try:
        parse_gr("p tw 2 1\nx y\n")
    except ParseError as e:
        assert e.line == 2 and str(e).startswith("line 2:")
    else:
        raise AssertionError("expected ParseError")


def test_round_trip_random_graphs():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(0, 12)
        g = random_connected_graph(rng, n, rng.randint(0, n)) if n else Graph(0)
        s = emit_gr(g)
        h = parse_gr(s)
        assert h == g
        assert emit_gr(h) == s
