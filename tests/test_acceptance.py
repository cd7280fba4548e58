"""Acceptance suite.

Each criterion below is exercised at its stated tolerance and reports one
PASS/FAIL summary line (printed immediately and repeated in the terminal
summary). Shared corpora are module-scoped fixtures so the expensive sweeps
run once.

The clique clause of criterion 5 is asserted literally but marked as an
expected failure: it is unsatisfiable as stated (see the decisions ledger
entry; any decomposition of K_n already has width n-1 <= 2k+1 at k = n-2,
and no bag of size 2k+3 = 2n-1 can exist on n vertices). A sound variant
with k small enough to admit a certificate is tested alongside it.
"""

import gc
import math
import os
import random
import time

import pytest

from twapx import (
    Decomposition,
    LowerBound,
    RunStats,
    SplitEngine,
    TreeDecomposition,
    approximate,
    emit_gr,
    emit_td,
    exact_treewidth,
    exhaustive_min_split,
    parse_gr,
    parse_td,
    validate,
    width,
)
from twapx.treedec import decomposition_from_order, initial_decomposition

from conftest import record
from gen import (
    clique,
    coarsen,
    cycle_graph,
    grid_graph,
    partial_ktree,
    path_graph,
    random_connected_graph,
    random_degree3_decomposition,
    random_tree,
    star_graph,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
CORPUS_SEED = 20260814
N_RANDOM = 3000


@pytest.fixture(scope="module")
def corpus():
    """(name, graph, exact treewidth) for >= 3000 random connected graphs
    with n in [1, 10] plus the structured families that fit the oracle
    budget."""
    rng = random.Random(CORPUS_SEED)
    items = []
    for i in range(N_RANDOM):
        n = rng.randint(1, 10)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        items.append((f"rand{i}", g, exact_treewidth(g)))
    for p in range(2, 5):
        for q in range(p, 5):
            g = grid_graph(p, q)
            items.append((f"grid{p}x{q}", g, exact_treewidth(g, max_n=16)))
    for n in range(2, 9):
        items.append((f"K{n}", clique(n), exact_treewidth(clique(n))))
    for n in (2, 5, 9, 12):
        items.append((f"path{n}", path_graph(n), exact_treewidth(path_graph(n))))
    for n in (3, 6, 10):
        items.append((f"cycle{n}", cycle_graph(n), exact_treewidth(cycle_graph(n))))
    for n in (4, 8, 12):
        items.append((f"star{n}", star_graph(n), exact_treewidth(star_graph(n))))
    for i, n in enumerate((8, 10, 12)):
        g = random_tree(rng, n)
        items.append((f"tree{n}", g, exact_treewidth(g)))
        pg, _ = partial_ktree(rng, n, k=3)
        items.append((f"p3tree{n}", pg, exact_treewidth(pg)))
    return items


@pytest.fixture(scope="module")
def checked_runs(corpus):
    """Corpus sweep with check mode on.

    Every instance runs at k = tw; every 9th also runs at k in {0, tw-1} to
    exercise lower bounds. Trivial seeding forces the full split machinery
    wherever the table sizes stay reasonable (all n <= 8, every 8th larger
    instance); the rest run the default bootstrap, matching the plain
    corpus runs. Returns (name, g, tw, k, result, stats) tuples.
    """
    out = []
    for idx, (name, g, tw) in enumerate(corpus):
        ks = {tw}
        if idx % 9 == 0:
            ks.add(0)
            if tw > 0:
                ks.add(tw - 1)
        trivial = g.n <= 8 or idx % 8 == 0
        strategy = "trivial" if trivial else "min-degree"
        for k in sorted(ks):
            st = RunStats()
            r = approximate(g, k, strategy=strategy, check=True, stats=st)
            out.append((name, g, tw, k, r, st))
    return out


def test_criterion_1_approximation_guarantee(corpus):
    start = time.monotonic()
    for name, g, tw in corpus:
        r = approximate(g, tw)
        assert isinstance(r, Decomposition), name
        problems = validate(g, r.td)
        assert problems == [], (name, problems[:3])
        assert width(r.td) <= 2 * tw + 1, (name, width(r.td), tw)
        assert len(r.td.bags) <= 2 * g.n, (name, len(r.td.bags), g.n)
    elapsed = time.monotonic() - start
    ok = elapsed < 300
    record(
        f"criterion 1 (approximation guarantee): "
        f"{'PASS' if ok else 'FAIL'} - {len(corpus)} instances, "
        f"all valid with width <= 2k+1 and at most 2n bags, {elapsed:.1f}s"
    )
    assert ok, f"corpus sweep took {elapsed:.1f}s, expected under 300s"


def test_criterion_2_lower_bound_sound_and_complete(corpus, checked_runs):
    for name, g, tw in corpus:
        for k in (tw, tw + 1):
            r = approximate(g, k)
            assert not isinstance(r, LowerBound), (name, k)
    lbs = two_way = 0
    for name, g, tw, k, r, _st in checked_runs:
        if k >= tw:
            assert not isinstance(r, LowerBound), (name, k, tw)
        if isinstance(r, LowerBound):
            lbs += 1
            assert tw > r.k, (name, tw, r.k)
            assert validate(g, r.td) == [], name
            assert len(r.bag) >= 2 * r.k + 3, (name, r.bag, r.k)
            assert r.groups == (2 if len(r.bag) >= 3 * r.k + 4 else 3), name
            two_way += r.groups == 2
            # no split with a separator of at most k+1 vertices
            ref = exhaustive_min_split(g, r.td, r.node, r.bag)
            assert ref is None or ref.objective[0] > r.k + 1, (name, ref)
    assert lbs >= 100, f"only {lbs} lower bounds exercised"
    assert two_way >= 100, f"only {two_way} two-way certificates exercised"
    record(
        f"criterion 2 (lower-bound soundness/completeness): PASS - "
        f"no false certificate at k >= tw; {lbs} certificates ({two_way} "
        f"from two-way passes) all oracle-confirmed (tw > k, no split with "
        f"|X| <= k+1)"
    )


def test_criterion_3_dp_oracle_equivalence():
    rng = random.Random(CORPUS_SEED + 3)
    found = absent = 0
    for _ in range(1000):
        n = rng.randint(1, 10)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        t, root = random_degree3_decomposition(rng, g)
        e = SplitEngine(g, t, root=root)
        got = e.split_query()
        want = exhaustive_min_split(g, t, root, t.bags[root])
        assert got == (want and want.objective), (g.edges(), t.bags, root)
        if want is None:
            absent += 1
        else:
            found += 1
    assert found >= 50 and absent >= 50
    record(
        f"criterion 3 (DP-oracle equivalence): PASS - 1000 triples agree "
        f"({found} split, {absent} splitless)"
    )


def test_criterion_4_split_accounting(checked_runs):
    # The per-split properties (potential descent by at least t, at most
    # 3t+4 insertions, every new bag smaller than W, the separator-spill
    # inequality at every editable bag) are asserted during every checked
    # run; reaching this point means zero violations. Require real coverage.
    splits = sum(st.splits for *_rest, st in checked_runs)
    inserted = sum(st.inserted for *_rest, st in checked_runs)
    removed = sum(st.removed for *_rest, st in checked_runs)
    assert splits >= 1000, f"only {splits} splits exercised"
    assert inserted <= 3 * removed + 4 * splits
    record(
        f"criterion 4 (split accounting under --check): PASS - "
        f"{len(checked_runs)} runs, {splits} splits, 0 violations "
        f"({inserted} bags in / {removed} out)"
    )


def test_criterion_5_grids(corpus):
    for p in range(2, 5):
        for q in range(p, 5):
            g = grid_graph(p, q)
            assert exact_treewidth(g, max_n=16) == p, (p, q)
            r = approximate(g, p)
            assert isinstance(r, Decomposition)
            assert validate(g, r.td) == []
            assert width(r.td) <= 2 * p + 1, (p, q, width(r.td))
    record(
        "criterion 5a (grids 2<=p<=q<=4): PASS - exact width p, "
        "approximation width <= 2p+1"
    )


@pytest.mark.xfail(
    strict=True,
    reason="unsatisfiable as stated: every decomposition of K_n has width "
    "n-1 <= 2k+1 at k = n-2, so approximate correctly returns a "
    "Decomposition, and no bag of size 2k+3 = 2n-1 fits in n vertices; "
    "see the decisions ledger",
)
def test_criterion_5_cliques_as_stated():
    outcomes = {}
    for n in range(2, 9):
        outcomes[n] = approximate(clique(n), n - 2, strategy="trivial")
    ok = all(isinstance(r, LowerBound) for r in outcomes.values())
    record(
        f"criterion 5b (K_n at k=n-2 yields LowerBound, as stated): "
        f"{'PASS' if ok else 'FAIL'} - criterion unsatisfiable as stated "
        f"(got {sum(isinstance(r, LowerBound) for r in outcomes.values())}"
        f"/{len(outcomes)} certificates); sound variant tested separately"
    )
    assert ok


def test_criterion_5_cliques_sound_variant():
    # k small enough that a size-(2k+3) bag fits: K_n certifies tw > k
    for n, k in ((3, 0), (5, 1), (7, 2), (8, 2)):
        g = clique(n)
        r = approximate(g, k, strategy="trivial")
        assert isinstance(r, LowerBound), (n, k)
        assert len(r.bag) >= 2 * k + 3
        assert r.groups == (2 if len(r.bag) >= 3 * r.k + 4 else 3)
        assert exhaustive_min_split(g, r.td, r.node, r.bag) is None
    record(
        "criterion 5b' (K_n at k <= (n-3)/2 yields LowerBound): PASS - "
        "all certificates oracle-confirmed"
    )


def test_criterion_5_large_tree():
    rng = random.Random(CORPUS_SEED + 5)
    n = 100_000
    g = random_tree(rng, n)
    start = time.monotonic()
    r = approximate(g, 1)
    elapsed = time.monotonic() - start
    assert isinstance(r, Decomposition)
    w = width(r.td)
    assert w <= 3, w
    assert validate(g, r.td) == []
    ok = elapsed < 30
    record(
        f"criterion 5c (tree n=10^5 at k=1): {'PASS' if ok else 'FAIL'} - "
        f"width {w} in {elapsed:.2f}s"
    )
    assert ok


def test_criterion_6_scaling(corpus):
    rng = random.Random(CORPUS_SEED + 6)
    sizes = (10_000, 20_000, 40_000)
    insts = {n: partial_ktree(rng, n, k=3) for n in sizes}
    for n, (g, t0) in insts.items():
        r = approximate(g, 3, t0=t0)  # warm caches, check the result once
        assert isinstance(r, Decomposition)
        assert width(r.td) <= 7
    # Interleave the sizes and take per-size minima so heap drift and GC
    # pauses cannot skew one size against another.
    times = {n: math.inf for n in sizes}
    gc.collect()
    gc.disable()
    try:
        for _ in range(7):
            for n, (g, t0) in insts.items():
                start = time.monotonic()
                approximate(g, 3, t0=t0)
                times[n] = min(times[n], time.monotonic() - start)
    finally:
        gc.enable()
    times = {n: max(v, 1e-4) for n, v in times.items()}
    f1 = times[20_000] / times[10_000]
    f2 = times[40_000] / times[20_000]
    ok = f1 <= 3 and f2 <= 3
    record(
        f"criterion 6 (partial 3-tree scaling): {'PASS' if ok else 'FAIL'} "
        f"- doubling factors {f1:.2f}, {f2:.2f} (tolerance 3)"
    )
    assert ok, (times, f1, f2)


def test_criterion_6b_engine_table_scaling():
    # Criterion 6 never runs the engine and gates on wall time. Here a
    # coarsened partial 2-tree (seed width 6) forces one splitting pass at
    # k = 2, and the gate is on the table count, which no host load moves.
    tables = {}
    start = time.monotonic()
    for n in (250, 500, 1000):
        g, t = partial_ktree(random.Random(7), n, k=2)
        st = RunStats()
        r = approximate(g, 2, t0=coarsen(t, 7), stats=st)
        assert isinstance(r, Decomposition), n
        assert width(r.td) <= 5 and validate(g, r.td) == []
        assert len(r.td.bags) <= 2 * g.n, (n, len(r.td.bags))
        assert st.passes > 0 and st.splits > 0
        tables[n] = st.tables
    elapsed = time.monotonic() - start
    f1 = tables[500] / tables[250]
    f2 = tables[1000] / tables[500]
    ok = 1.5 <= f1 <= 2.5 and 1.5 <= f2 <= 2.5
    record(
        "criterion 6b (engine tables, coarsened partial 2-tree n=250->500->1000): "
        f"{'PASS' if ok else 'FAIL'} - {tables[250]} -> {tables[500]} -> "
        f"{tables[1000]} tables, factors {f1:.2f}, {f2:.2f} "
        f"(tolerance [1.5, 2.5]), {elapsed:.2f}s"
    )
    assert ok, tables


def test_criterion_6c_known_treewidth_beyond_oracle():
    # Instances of known treewidth far past the oracle's n <= 12, each of
    # which runs splitting passes: full k-trees (tw = k) coarsened to bags
    # of 2k+3, and p x q grids (tw = min(p, q)) from a coarsened min-degree
    # seed. At k >= tw the result must be a Decomposition; at k < tw a
    # LowerBound is also sound, if its bag has >= 2k+3 vertices. Partial
    # k-trees (tw <= k) coarsened further run several passes, so their edits
    # pile up; every output must keep at most 2n bags.
    cases = []
    for k, n in ((1, 300), (2, 300), (3, 120)):
        g, t = partial_ktree(random.Random(7), n, k=k, keep=1.0)
        cases.append((f"{k}-tree n={n}", g, k, k, coarsen(t, 2 * k + 3)))
    for k, n, cap in ((1, 100, 9), (2, 200, 10)):
        g, t = partial_ktree(random.Random(7), n, k=k)
        cases.append((f"partial {k}-tree n={n}", g, k, k, coarsen(t, cap)))
    for p, q, k, cap in ((3, 30, 3, 9), (4, 20, 1, 5)):
        g = grid_graph(p, q)
        seed = coarsen(initial_decomposition(g), cap)
        cases.append((f"grid {p}x{q}", g, min(p, q), k, seed))
    lines = []
    for name, g, tw, k, seed in cases:
        st = RunStats()
        start = time.monotonic()
        r = approximate(g, k, t0=seed, stats=st)
        elapsed = time.monotonic() - start
        assert st.passes > 0, name
        assert len(r.td.bags) <= 2 * g.n, (name, len(r.td.bags))
        if k >= tw:
            assert isinstance(r, Decomposition) and st.splits > 0, name
        if isinstance(r, LowerBound):
            assert len(r.bag) >= 2 * k + 3 and validate(g, r.td) == [], name
            got = f"LowerBound bag {len(r.bag)}"
        else:
            assert width(r.td) <= 2 * k + 1 and validate(g, r.td) == [], name
            got = f"width {width(r.td)}"
        lines.append(
            f"{name} k={k}: {got}, {len(r.td.bags)} bags, {st.passes} passes, "
            f"{st.splits} splits, {elapsed:.2f}s"
        )
    record(
        "criterion 6c (known treewidth beyond the oracle): PASS - " + "; ".join(lines)
    )


def test_criterion_7_format_fidelity():
    rng = random.Random(CORPUS_SEED + 7)
    for _ in range(100):
        n = rng.randint(0, 12)
        if n == 0:
            from twapx import Graph

            g = Graph(0)
        else:
            g = random_connected_graph(rng, n, rng.randint(0, n))
        s = emit_gr(g)
        assert parse_gr(s) == g
        assert emit_gr(parse_gr(s)) == s
    for _ in range(100):
        n = rng.randint(1, 10)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        order = list(range(n))
        rng.shuffle(order)
        t = decomposition_from_order(g, order)
        s = emit_td(t)
        u = parse_td(s)
        assert u.bags == t.bags
        assert sorted(u.edges) == sorted((min(e), max(e)) for e in t.edges)
        assert emit_td(u) == s
    pairs = 0
    for stem in ("ex001", "ex002", "ex003"):
        with open(os.path.join(DATA, stem + ".gr"), encoding="utf-8") as fh:
            gtext = fh.read()
        with open(os.path.join(DATA, stem + ".td"), encoding="utf-8") as fh:
            ttext = fh.read()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = parse_gr(gtext)
        t = parse_td(ttext)
        assert validate(g, t) == [], stem
        ge = emit_gr(g)
        te = emit_td(t)
        assert emit_gr(parse_gr(ge)) == ge
        assert emit_td(parse_td(te)) == te
        assert parse_gr(ge) == g
        assert parse_td(te).bags == t.bags
        pairs += 1
    record(
        f"criterion 7 (format fidelity): PASS - 200 random round-trips "
        f"byte-exact, {pairs} sample file pairs stable"
    )


def test_criterion_8_dfs_invariants(checked_runs):
    # Every run checks that each move of the walk back to an open node steps
    # to a child of the pointer, which keeps the open nodes a path from the
    # start leaf, and that no maximum-size bag is left when a pass ends, which
    # catches a skipped subtree that still held one; check mode adds its query
    # and edit checks. A violation raises. Passing runs with real pass counts
    # prove it held.
    passes = sum(st.passes for *_rest, st in checked_runs)
    moves = sum(st.moves for *_rest, st in checked_runs)
    assert passes >= 1000, f"only {passes} passes exercised"
    record(
        f"criterion 8 (DFS invariants under --check): PASS - "
        f"{passes} passes, {moves} pointer moves, 0 violations"
    )
