"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload's instance family through the closed loop, untraced and
traced, in a fraction of a second each, and checks the harness's own
guarantees: outputs checked, counts repeated, the tracer's counts equal to
the program's, and a refusal to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import workloads
from tracer import Tracer
from twapx import Decomposition, Graph, TreeDecomposition, dpengine, improver, treedec

HERE = Path(__file__).resolve().parent

TINY = {
    "ktree2-walk": lambda seed: workloads.ktree2_walk(seed, sizes=(8, 10)),
    "tree1-auto": lambda seed: workloads.tree1_auto(seed, n=8),
    "grid-cert": lambda seed: workloads.grid_cert(seed, p=4, q=4, k=1),
    "sparse-bypass": lambda seed: workloads.sparse_bypass(seed, tree_n=300, ktree_n=200),
}
ENGINE = ("ktree2-walk", "tree1-auto", "grid-cert")


def test_tiny_families_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_checks_and_repeats(name):
    instances = TINY[name](3)
    res = harness.measure(TINY[name], 3, seconds=0, trace=False)
    assert res["problems"] == []
    assert res["failed"] == 0
    assert res["attempted"] == res["rounds"] * len(instances) >= 2 * len(instances)
    assert res["solve_s"] > 0
    assert res["layers"] == {}
    assert res["setup_s"] > 0 and res["setup_reps"] >= harness.SETUP_MIN_REPS
    again = harness.measure(TINY[name], 3, seconds=0, trace=False)
    assert [r["sha256"] for r in again["per_instance"]] == [
        r["sha256"] for r in res["per_instance"]
    ]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(name):
    res = harness.measure(TINY[name], 5, seconds=0, trace=True)
    assert res["failed"] == 0, res["problems"]
    layers = res["layers"]
    assert len(layers) == 32
    if name in ENGINE:
        assert layers["improver.passes"] > 0
        assert layers["dpengine.tables_per_step"] == 2.0
    else:
        assert layers["improver.passes"] == 0
        assert layers["dpengine.tables"] == 0
    if name in ("ktree2-walk", "tree1-auto"):
        assert layers["improver.splits"] > 0
    assert improver.SplitEngine is dpengine.SplitEngine
    assert treedec.emit_td.__module__ == "twapx.treedec"


def test_tracer_parents_and_self_time():
    tracer = Tracer()
    inst = TINY["ktree2-walk"](1)[0]
    with tracer.attached():
        harness.solve(inst)
    names = {s.name for s in tracer.spans}
    assert {"improver.approximate", "dpengine.init", "dpengine.move_to"} <= names
    for span in tracer.spans:
        assert span.end >= span.start
        assert span.end - span.start >= span.children - 1e-9
        if span.name == "dpengine.move_to":
            assert tracer.parent_name(span) in (
                "improver.reduce_width_pass",
                "improver.find_editable",
                "improver.approximate",
            )


def test_wrong_lower_bound_counts_as_failure():
    # K5 has treewidth 4; declaring it <= 1 makes its certificate a failure
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    inst = workloads.Instance("K5", k5, 1, None, tw_at_most_k=True)
    res = harness.measure(lambda seed: [inst], 0, seconds=0, trace=False)
    assert res["failed"] == res["attempted"] == 2
    assert "treewidth <= 1" in res["problems"][0]


@pytest.mark.parametrize(
    "bags, edges, want",
    [
        ([[0, 1, 2]], [], "width 2 > 2k+1 = 1"),
        ([[0, 1]], [], "invalid decomposition: coverage"),
        ([[0, 1], [1, 2]], [(0, 1)], ""),
    ],
)
def test_check_flags_wrong_decompositions(bags, edges, want):
    path = workloads.Instance("P3", Graph(3, [(0, 1), (1, 2)]), 0, None, True)
    result = Decomposition(TreeDecomposition(bags, edges))
    problem = harness.check(path, result)[3]
    assert problem.startswith(want) and bool(problem) == bool(want)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-cert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    result = harness.run(TINY["tree1-auto"], "tree1-auto", 1, seconds=0, trace=False)
    assert result["correct"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    result = harness.run(TINY["tree1-auto"], "tree1-auto", 1, seconds=0, trace=True)
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
