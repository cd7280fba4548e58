"""Lower-bound certificates checked past the oracle by a plain reference DP.

The exhaustive oracle stops at n = 12. Past it, a certificate's claim (its
bag has no split into `groups` groups with a separator of at most k+1
vertices) is checked here by a dynamic programme that shares no code with
the engine: it keeps every labelled assignment of a bag as a tuple of
digits, with no canonical codes, no kept entries and no moves, and is built
in one bottom-up pass over the certificate's own decomposition, rooted at
its bag. The claim holds exactly when no code of the root table passes the
split test. The DP is itself checked against the brute-force tables of
tests/test_dpengine.py at small n.
"""

import random

import pytest

from twapx import LowerBound, SplitEngine, approximate
from twapx.treedec import initial_decomposition

from gen import coarsen, grid_graph, partial_ktree
from test_dpengine import SEP, full_brute_table, small_instance


def reference_tables(g, td, root, groups, cap):
    """For every node i of td rooted at root, the least number of separator
    vertices over the assignments of the vertices of i's subtree to groups
    0..groups-1 and the separator (SEP) in which no edge joins two distinct
    groups, per restriction to bag i: a dict from the tuple of digits of
    td.bags[i], in list order, to that least count, kept only when it is at
    most cap."""
    adj = td.adjacency()
    parent = {root: None}
    order = [root]
    for cur in order:
        for nb in adj[cur]:
            if nb not in parent:
                parent[nb] = cur
                order.append(nb)
    digits = list(range(groups)) + [SEP]
    tables = {}
    for i in reversed(order):
        bag = td.bags[i]
        kids = [c for c in adj[i] if parent.get(c) == i]
        # each child's table forgotten onto the vertices it shares with bag i
        forgotten = []
        for c in kids:
            shared = [v for v in td.bags[c] if v in bag]
            where = [td.bags[c].index(v) for v in shared]
            best = {}
            for code, nsep in tables[c].items():
                key = tuple(code[j] for j in where)
                if nsep < best.get(key, cap + 1):
                    best[key] = nsep
            forgotten.append((shared, best))
        # assign the bag vertex by vertex, each child's shared vertices first,
        # and look a child up as soon as its shared vertices are all assigned
        verts = []
        for shared, _best in sorted(forgotten, key=lambda f: -len(f[0])):
            verts += [v for v in shared if v not in verts]
        verts += [v for v in bag if v not in verts]
        done_at = {}
        for shared, best in forgotten:
            last = max((verts.index(v) for v in shared), default=-1)
            done_at.setdefault(last, []).append((shared, best))

        def join(codes, shared, best):
            where = [verts.index(u) for u in shared]
            out = {}
            for code, nsep in codes.items():
                key = tuple(code[j] for j in where)
                if key in best:
                    nsep += best[key] - key.count(SEP)
                    if nsep <= cap:
                        out[code] = nsep
            return out

        partial = {(): 0}
        for shared, best in done_at.get(-1, []):
            partial = join(partial, shared, best)
        for pos, v in enumerate(verts):
            nbrs = [j for j in range(pos) if g.has_edge(verts[j], v)]
            grown = {}
            for code, nsep in partial.items():
                for digit in digits:
                    if digit == SEP:
                        if nsep < cap:
                            grown[code + (digit,)] = nsep + 1
                    elif all(code[j] in (digit, SEP) for j in nbrs):
                        grown[code + (digit,)] = nsep
            for shared, best in done_at.get(pos, []):
                grown = join(grown, shared, best)
            partial = grown
        where = [verts.index(v) for v in bag]
        tables[i] = {tuple(c[j] for j in where): nsep for c, nsep in partial.items()}
    return tables


def passing_codes(table, groups):
    """The codes of a root table that pass the split test: nsep plus the
    largest group stays below the bag size."""
    return [
        code for code, nsep in table.items()
        if nsep + max(code.count(j) for j in range(groups)) < len(code)
    ]


def certificate_holds(g, lb):
    """No split of lb.bag into lb.groups groups with a separator of at most
    lb.k + 1 vertices exists, by the reference DP over lb.td rooted at
    lb.node."""
    root = reference_tables(g, lb.td, lb.node, lb.groups, lb.k + 1)[lb.node]
    return not passing_codes(root, lb.groups)


@pytest.mark.parametrize("groups", [2, 3])
def test_reference_dp_matches_brute_force(groups):
    rng = random.Random(950 + groups)
    nodes = 0
    for _ in range(60):
        g, t, root = small_instance(rng, nmax=8, extra=4)
        e = SplitEngine(g, t, root=root, groups=groups)
        got = reference_tables(g, t, root, groups, e.hmax)
        for i in e.bag_list:
            size = len(e.bag_list[i])
            want = {
                tuple((code >> 2 * (size - 1 - j)) & 3 for j in range(size)): hd[0]
                for code, hd in full_brute_table(g, e, i).items()
            }
            assert got[i] == want, i
            nodes += 1
    assert nodes >= 150, nodes


def min_degree_seed(p, q, cap=None):
    g = grid_graph(p, q)
    t = initial_decomposition(g, "min-degree")
    return g, t if cap is None else coarsen(t, cap)


# name -> (graph and seed, k, groups of the failed pass)
CERTIFICATES = {
    "grid5x8-k2": (lambda: min_degree_seed(5, 8), 2, 3),
    "grid5x20-k2": (lambda: min_degree_seed(5, 20), 2, 3),
    "grid6x40-k2": (lambda: min_degree_seed(6, 40), 2, 3),
    "grid4x20-k1-c5": (lambda: min_degree_seed(4, 20, 5), 1, 3),
    "grid4x8-k1-c8": (lambda: min_degree_seed(4, 8, 8), 1, 2),
    "grid6x20-k1-c8": (lambda: min_degree_seed(6, 20, 8), 1, 2),
    "grid6x30-k2-c12": (lambda: min_degree_seed(6, 30, 12), 2, 2),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_holds_by_reference_dp(name):
    make, k, groups = CERTIFICATES[name]
    g, t0 = make()
    lb = approximate(g, k, t0=t0)
    assert isinstance(lb, LowerBound) and lb.groups == groups, name
    assert g.n > 12
    assert certificate_holds(g, lb), name


def test_reference_dp_rejects_a_bag_that_splits():
    # a partial 2-tree has treewidth <= 2, so every bag of its coarsened seed
    # splits into three groups with a separator of at most 3 vertices, and a
    # certificate naming any of them must be rejected
    g, t = partial_ktree(random.Random(7), 40, k=2)
    t = coarsen(t, 7)
    big = [i for i, bag in enumerate(t.bags) if len(bag) == 7]
    assert len(big) >= 3
    for node in big:
        forged = LowerBound(2, t, node)
        assert forged.groups == 3
        assert not certificate_holds(g, forged), node
