"""The lean validator and elimination game against the reference copies in
`reference_treedec`: the same messages in the same order, the same bags,
edges and root, and a smaller traced memory peak on the same instance."""

import gc
import random
import tracemalloc

import pytest

from twapx import Graph, TreeDecomposition, validate, width
from twapx.treedec import decomposition_from_order, initial_decomposition

import reference_treedec as ref
from gen import (
    clique,
    cycle_graph,
    grid_graph,
    partial_ktree,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)


def with_hubs(rng, g, hubs, share):
    """g plus edges from each of `hubs` random vertices to about `share` of
    the others."""
    edges = set(g.edges())
    for h in rng.sample(range(g.n), hubs):
        for v in range(g.n):
            if v != h and rng.random() < share:
                edges.add((min(h, v), max(h, v)))
    return Graph(g.n, sorted(edges))


def disjoint_union(*graphs):
    edges, off = [], 0
    for g in graphs:
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    return Graph(off, edges)


def graph_corpus():
    """At least 200 graphs: random, grids, cliques, stars, disconnected
    unions with isolated vertices, and partial k-trees with hubs."""
    rng = random.Random(2025)
    out = [Graph(0), Graph(1), Graph(3), path_graph(2)]
    for _ in range(80):
        n = rng.randint(2, 40)
        out.append(random_connected_graph(rng, n, rng.randint(0, 3 * n)))
    out += [grid_graph(p, q) for p in (1, 2, 3, 5) for q in (1, 4, 7, 12)]
    out += [clique(n) for n in (2, 3, 5, 9)]
    out += [star_graph(n) for n in (2, 5, 17)]
    out += [cycle_graph(n) for n in (3, 8, 20)]
    for _ in range(40):
        parts = [
            random_connected_graph(rng, rng.randint(1, 12), rng.randint(0, 10))
            for _ in range(rng.randint(2, 4))
        ]
        out.append(disjoint_union(*parts, Graph(rng.randint(0, 3))))
    for _ in range(60):
        k = rng.randint(1, 4)
        g, _t = partial_ktree(rng, rng.randint(k + 1, 120), k, keep=rng.random())
        if g.n > 4 and rng.random() < 0.7:
            g = with_hubs(rng, g, rng.randint(1, 3), rng.uniform(0.1, 0.6))
        out.append(g)
    return out


CORPUS = graph_corpus()


def test_corpus_is_large_and_varied():
    assert len(CORPUS) >= 200
    assert any(g.n > 100 and max(map(len, g.adj)) > g.n // 3 for g in CORPUS)


@pytest.mark.parametrize("strategy", ["min-degree", "min-fill"])
def test_bootstrap_matches_the_reference(strategy):
    for g in CORPUS:
        got = initial_decomposition(g, strategy)
        want = ref.initial_decomposition(g, strategy)
        assert (got.bags, got.edges, got.root) == (want.bags, want.edges, want.root), g


def test_decomposition_from_order_matches_the_reference():
    rng = random.Random(7)
    for g in CORPUS[:120]:
        order = list(range(g.n))
        rng.shuffle(order)
        got = decomposition_from_order(g, order)
        adj = [set(a) for a in g.adj]
        bags = []
        for v in order:
            ref._eliminate(adj, v, bags)
        want = ref._elimination_tree(order, bags)
        assert (got.bags, got.edges, got.root) == (want.bags, want.edges, want.root)


def corrupt(rng, g, t):
    """One random violation of one kind applied to a copy of t."""
    bags = [list(b) for b in t.bags]
    edges = list(t.edges)
    root = t.root
    nn = len(bags)
    kind = rng.randrange(12)
    i = rng.randrange(nn)
    if kind == 0 and len(bags[i]) >= 2:  # unsorted
        a, b = rng.sample(range(len(bags[i])), 2)
        bags[i][a], bags[i][b] = bags[i][b], bags[i][a]
    elif kind == 1 and bags[i]:  # duplicate vertex
        bags[i].insert(rng.randrange(len(bags[i])), bags[i][rng.randrange(len(bags[i]))])
        bags[i].sort()
    elif kind == 2:  # out-of-range vertices at either end
        bags[i] = sorted(bags[i] + rng.sample([-3, -1, g.n, g.n + 2], rng.randint(1, 2)))
    elif kind == 3:  # root out of range
        root = rng.choice([nn, nn + 5, -1])
    elif kind == 4:  # bad tree edge
        edges.insert(rng.randrange(len(edges) + 1), rng.choice([(i, i), (i, nn), (-1, i)]))
    elif kind == 5 and edges:  # duplicate tree edge, either orientation
        a, b = rng.choice(edges)
        edges.insert(rng.randrange(len(edges) + 1), rng.choice([(a, b), (b, a)]))
    elif kind == 6 and edges:  # too few edges
        edges.pop(rng.randrange(len(edges)))
    elif kind == 7 and edges and nn >= 3:  # right count, but a cycle
        edges.pop(rng.randrange(len(edges)))
        a, b = rng.sample(range(nn), 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.append((a, b))
    elif kind == 8:  # drop a vertex from every bag
        v = rng.randrange(max(g.n, 1))
        bags = [[x for x in b if x != v] for b in bags]
    elif kind == 9 and bags[i]:  # drop a vertex from one bag
        bags[i].pop(rng.randrange(len(bags[i])))
    elif kind == 10 and g.n:  # add a vertex to a far bag
        bags[i] = sorted(set(bags[i]) | {rng.randrange(g.n)})
    elif kind == 11:  # an extra empty node, attached or not
        bags.append([])
        if rng.random() < 0.5:
            edges.append((nn, i))
    return TreeDecomposition(bags, edges, root=root)


def valid_decompositions():
    rng = random.Random(11)
    for g in CORPUS[::2]:
        order = list(range(g.n))
        rng.shuffle(order)
        t = decomposition_from_order(g, order)
        yield g, TreeDecomposition(t.bags, t.edges, root=rng.randrange(len(t.bags)))


def test_validate_matches_the_reference_on_valid_and_corrupted():
    rng = random.Random(12)
    kinds = set()
    for g, t in valid_decompositions():
        assert validate(g, t) == ref.validate(g, t) == []
        for _ in range(8):
            bad = t
            for _ in range(rng.choice([1, 1, 2, 3])):
                bad = corrupt(rng, g, bad)
            got = validate(g, bad)
            assert got == ref.validate(g, bad), (g, bad)
            kinds.update(p.split(":")[0] for p in got)
    assert kinds == {"structure", "tree", "coverage", "edge coverage", "connectivity"}


P3 = path_graph(3)

# (decomposition, graph) -> every message must equal the reference's
HAND_CASES = {
    "unsorted": (TreeDecomposition([[1, 0], [1, 2]], [(0, 1)]), P3),
    "duplicate vertex": (TreeDecomposition([[0, 1, 1], [1, 2]], [(0, 1)]), P3),
    "out of range both ends": (TreeDecomposition([[-2, -1, 0, 1, 5, 7], [1, 2]], [(0, 1)]), P3),
    "root out of range": (TreeDecomposition([[0, 1], [1, 2]], [(0, 1)], root=2), P3),
    "negative root": (TreeDecomposition([[0, 1], [1, 2]], [(0, 1)], root=-1), P3),
    "self edge": (TreeDecomposition([[0, 1], [1, 2]], [(0, 1), (1, 1)]), P3),
    "edge out of range": (TreeDecomposition([[0, 1], [1, 2]], [(0, 2)]), P3),
    "duplicate edge": (TreeDecomposition([[0, 1], [1, 2], []], [(0, 1), (1, 0)]), P3),
    "too few edges": (TreeDecomposition([[0, 1], [1, 2]], []), P3),
    "cycle and hole": (
        TreeDecomposition([[0, 1], [1, 2], [1], [1], []], [(0, 1), (1, 2), (2, 0), (3, 4)]),
        P3,
    ),
    "uncovered vertex": (TreeDecomposition([[0, 1], [1]], [(0, 1)]), P3),
    "uncovered edge": (TreeDecomposition([[0], [1, 2]], [(0, 1)]), P3),
    "disconnected vertex": (TreeDecomposition([[0, 1], [1, 2], [0, 1]], [(0, 1), (1, 2)]), P3),
    "several at once": (
        TreeDecomposition(
            [[0, 9], [2, 1], [1, 1], [3], []],
            [(0, 1), (1, 1), (0, 1), (5, 2), (3, 4)],
            root=7,
        ),
        Graph(5, [(0, 1), (1, 2), (3, 4)]),
    ),
    "several valid bags": (
        TreeDecomposition([[0, 1], [3], [1, 2], [0, 4]], [(0, 1), (1, 2), (2, 3)]),
        Graph(5, [(0, 1), (1, 2), (3, 4), (0, 2)]),
    ),
    "empty decomposition": (TreeDecomposition([], []), P3),
    "empty decomposition, empty graph": (TreeDecomposition([], []), Graph(0)),
    "empty decomposition, bad root": (TreeDecomposition([], [], root=0), Graph(0)),
    "one empty bag, empty graph": (TreeDecomposition([[]], [], root=0), Graph(0)),
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_validate_matches_the_reference_by_hand(name):
    t, g = HAND_CASES[name]
    got = validate(g, t)
    assert got == ref.validate(g, t)
    assert bool(got) != name.endswith(", empty graph")


def traced_peak(fn, *args):
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_validate_peak_memory_against_the_reference():
    g, t = partial_ktree(random.Random(20), 20_003, 3)
    assert len(t.bags) == 20_000
    new, got = traced_peak(validate, g, t)
    old, want = traced_peak(ref.validate, g, t)
    assert got == want == []
    assert new <= 0.5 * old, (new, old)


def test_min_degree_peak_memory_against_the_reference():
    g = random_tree(random.Random(21), 20_000)
    new, got = traced_peak(initial_decomposition, g, "min-degree")
    old, want = traced_peak(ref.initial_decomposition, g, "min-degree")
    assert (got.bags, got.edges, got.root) == (want.bags, want.edges, want.root)
    assert new <= 0.75 * old, (new, old)


def test_min_fill_on_a_partial_3tree_of_4000():
    # about 6 s when every dirty fill-in was recounted in full; no clock here
    g, _t = partial_ktree(random.Random(5), 4000, 3)
    t = initial_decomposition(g, "min-fill")
    assert validate(g, t) == []
    assert width(t) == 4
