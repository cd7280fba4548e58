"""Byte-identity of results across engine rewrites.

Pins the exact output of small engine-exercising runs, recorded once from a
known-good engine: the SHA-256 of the emitted .td text (and, for a lower
bound, of the certificate line plus its .td) together with the run counters.
Any change to table codes, tie-breaking or split choice shows here. The
bootstrap decompositions (min-degree and min-fill elimination) are pinned the
same way, by the SHA-256 of their .td text.
"""

import hashlib
import random

import pytest

from twapx import Decomposition, Graph, RunStats, approximate, emit_td
from twapx.treedec import decomposition_from_order, initial_decomposition

from gen import clique, coarsen, grid_graph, partial_ktree, random_connected_graph


def result_text(r):
    if isinstance(r, Decomposition):
        return emit_td(r.td)
    bag = " ".join(str(v + 1) for v in r.bag)
    return f"LOWERBOUND k={r.k} bag {bag}\n" + emit_td(r.td)


def coarse_ktree(seed, n, k, cap):
    g, t = partial_ktree(random.Random(seed), n, k=k)
    return g, coarsen(t, cap)


CASES = {
    # bags of 7 at k=2 are below 3k+4: one three-way pass
    "ktree2-three-way": lambda: (*coarse_ktree(3, 16, 2, 7), 2),
    # bags of 9 at k=1: three two-way passes on one reused engine, then
    # three-way passes once the bags drop below 3k+4 = 7
    "ktree1-two-way": lambda: (*coarse_ktree(3, 16, 1, 9), 1),
    # K10 at k=1: the one bag of 10 >= 3k+4 has no two-way split, and that
    # failed two-way pass is the certificate
    "k10-two-way-certificate": lambda: (clique(10), None, 1),
    "grid4x4-lower-bound": lambda: (grid_graph(4, 4), None, 1),
    # larger runs that load the engine: many splits, moves and edits
    "ktree2-n200": lambda: (*coarse_ktree(7, 200, 2, 7), 2),
    # 5 passes, the first 3 two-way on one reused engine
    "ktree1-n100-two-way": lambda: (*coarse_ktree(7, 100, 1, 9), 1),
    "ktree3-n120": lambda: (*coarse_ktree(7, 120, 3, 12), 3),
    # bags of 8 < 3k+4 from the min-degree seed: a three-way certificate
    "grid5x8-three-way-certificate": lambda: (grid_graph(5, 8), None, 2),
    # the min-degree seed coarsened to bags of 12 >= 3k+4: one split, then a
    # bag with no two-way split is the certificate
    "grid6x30-two-way-certificate": lambda: (
        grid_graph(6, 30),
        coarsen(initial_decomposition(grid_graph(6, 30), "min-degree"), 12),
        2,
    ),
    "ktree2-n40-check": lambda: (*coarse_ktree(7, 40, 2, 7), 2),
}

# cases run with check=True, which compares every query with the oracle or
# with a new engine over the export
CHECKED = {"ktree2-n40-check"}

# name -> (first output line, sha256 of the full text,
#          (passes, two_way_passes, splits, moves, tables))
PINNED = {
    "grid4x4-lower-bound": (
        "LOWERBOUND k=1 bag 9 10 11 12 15",
        "313477bbe9d40f571b8d7154adb1e9931b9d4919a5df8df9479127e12b575090",
        (1, 0, 0, 7, 31),
    ),
    "ktree1-two-way": (
        "s td 16 4 16",
        "7c2ba18a4577e284f9696fe9d595d3a0df3eb5397a8143bb9b28757586cec6d0",
        (5, 3, 5, 35, 126),
    ),
    "k10-two-way-certificate": (
        "LOWERBOUND k=1 bag 1 2 3 4 5 6 7 8 9 10",
        "1e68429edd288d5545df93faa3b1b0f02045b3fb710a463af2bf5eba05b7b88f",
        (1, 1, 0, 1, 13),
    ),
    "ktree2-three-way": (
        "s td 7 6 16",
        "1805a37b0a54bba1d9fc957a1fbc94f62ba15f78afea63add07ef7557e8701fd",
        (1, 0, 2, 4, 18),
    ),
    "ktree2-n200": (
        "s td 152 6 200",
        "f6492052620bbf5c173c94c7dc6c458acbba6d29f30a1dcd32ce24b006dafa2d",
        (1, 0, 22, 130, 481),
    ),
    "ktree1-n100-two-way": (
        "s td 98 4 100",
        "a027d8ee291bfee5ecc64108b944ce815253ccdb017c86208baf5077d6fca70c",
        (5, 3, 31, 247, 835),
    ),
    "ktree3-n120": (
        "s td 95 8 120",
        "f09250bca31e89c7a5d40f13e364265704c2ff86376285b118ed6d97a44b6cf2",
        (4, 0, 20, 236, 733),
    ),
    "grid5x8-three-way-certificate": (
        "LOWERBOUND k=2 bag 5 12 17 18 20 27 28 37",
        "7b7a0ae190b88f8e8e71b1493dde133088ffa38c4daa43935b4166a706fa496c",
        (1, 0, 0, 7, 55),
    ),
    "grid6x30-two-way-certificate": (
        "LOWERBOUND k=2 bag 25 56 58 87 89 90 116 117 118 147 148 177",
        "7ee6487a08a029501f39f19274f4c0ed1b41f3c294316ccc90a4c5a0065b743a",
        (1, 1, 1, 30, 114),
    ),
    "ktree2-n40-check": (
        "s td 29 6 40",
        "31e5739f80ba4f89226fea6005197487b345d19867842769ad7427ae3259cfb9",
        (1, 0, 3, 13, 68),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    g, t0, k = CASES[name]()
    st = RunStats()
    text = result_text(approximate(g, k, t0=t0, check=name in CHECKED, stats=st))
    counts = (st.passes, st.two_way_passes, st.splits, st.moves, st.tables)
    got = (text.splitlines()[0], hashlib.sha256(text.encode()).hexdigest(), counts)
    assert got == PINNED[name]


def two_grids_and_isolated():
    """Two 3x3 grids on vertices 0-8 and 9-17; vertices 18 and 19 are isolated."""
    edges = grid_graph(3, 3).edges()
    return Graph(20, edges + [(u + 9, v + 9) for u, v in edges])


BOOT_GRAPHS = {
    "grid5x8": lambda: grid_graph(5, 8),
    "random30": lambda: random_connected_graph(random.Random(30), 30, 20),
    "two-grids3x3+2": two_grids_and_isolated,
}

# (graph, strategy) -> (first line, sha256) of the bootstrap decomposition's .td
BOOT_PINNED = {
    ("grid5x8", "min-degree"): (
        "s td 40 8 40",
        "252cad88f63a2d01527bc2eecdb197c209a7922ebda341966f21f4c023c0c75f",
    ),
    ("grid5x8", "min-fill"): (
        "s td 40 6 40",
        "78cd7b2032069cdc17c591d8fd748abdb9ddccff78636ba1454234c315fe6bc5",
    ),
    ("random30", "min-degree"): (
        "s td 30 7 30",
        "37f1f7b4aeb845b0cf6d646154e202c7a9c99e9dda54bbc0d6893123829b3f70",
    ),
    ("random30", "min-fill"): (
        "s td 30 7 30",
        "b7f4c809376ba2a0503bcc33eec0ab2737a79d4e7d2c7cab3febddff6a70dc20",
    ),
    ("two-grids3x3+2", "min-degree"): (
        "s td 20 4 20",
        "8938c08977a515f550327f195a4ca4c03efe1bb4c992af48cb9a9b436d715e07",
    ),
    ("two-grids3x3+2", "min-fill"): (
        "s td 20 4 20",
        "0289f5936317aef5307cbdd1ea26af9835806c6811eaef62be2871d4457a6dc0",
    ),
}


@pytest.mark.parametrize("graph, strategy", sorted(BOOT_PINNED))
def test_bootstrap_output_is_byte_identical(graph, strategy):
    text = emit_td(initial_decomposition(BOOT_GRAPHS[graph](), strategy))
    got = (text.splitlines()[0], hashlib.sha256(text.encode()).hexdigest())
    assert got == BOOT_PINNED[graph, strategy]


def test_decomposition_from_order_is_byte_identical():
    order = list(range(40))
    random.Random(40).shuffle(order)
    text = emit_td(decomposition_from_order(grid_graph(5, 8), order))
    got = (text.splitlines()[0], hashlib.sha256(text.encode()).hexdigest())
    assert got == (
        "s td 40 16 40",
        "485e1642e91867995c59db483d502233ac02175cff055c1493679c6cccd00942",
    )
