"""Command-line interface tests, driven through run_cli plus one real
subprocess round-trip."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import twapx
from twapx import emit_gr, emit_td, parse_td, validate, width
from twapx.cli import run_cli

from gen import clique, coarsen, partial_ktree, path_graph

P3_GR = "p tw 3 2\n1 2\n2 3\n"
K3_GR = "p tw 3 3\n1 2\n1 3\n2 3\n"


@pytest.fixture
def p3(tmp_path):
    f = tmp_path / "p3.gr"
    f.write_text(P3_GR)
    return f


@pytest.fixture
def k3(tmp_path):
    f = tmp_path / "k3.gr"
    f.write_text(K3_GR)
    return f


def test_approx_stdout_mode(p3, capsys):
    rc = run_cli(["approx", "--graph", str(p3), "--k", "1"])
    cap = capsys.readouterr()
    assert rc == 0
    t = parse_td(cap.out)
    assert width(t) <= 3
    assert cap.err.startswith("WIDTH ")


def test_approx_out_file(p3, tmp_path, capsys):
    out = tmp_path / "result.td"
    rc = run_cli(["approx", "--graph", str(p3), "--k", "1", "--out", str(out)])
    cap = capsys.readouterr()
    assert rc == 0
    assert cap.out.strip().startswith("WIDTH ")
    t = parse_td(out.read_text())
    g = path_graph(3)
    assert validate(g, t) == []


def test_approx_out_dash_is_stdout(p3, capsys):
    rc = run_cli(["approx", "--graph", str(p3), "--k", "1", "--out", "-"])
    cap = capsys.readouterr()
    assert rc == 0
    assert cap.out.startswith("s td ")


def test_approx_lower_bound_line(k3, capsys):
    rc = run_cli(["approx", "--graph", str(k3), "--k", "0"])
    cap = capsys.readouterr()
    assert rc == 10
    assert cap.out.strip() == "LOWERBOUND k=0 bag 1 2 3"


def test_approx_two_way_certificate(tmp_path, capsys):
    # K4's one bag of 4 >= 3k+4 at k=0: the failed two-way pass certifies
    f = tmp_path / "k4.gr"
    f.write_text(emit_gr(clique(4)))
    rc = run_cli(["approx", "--graph", str(f), "--k", "0", "--stats"])
    cap = capsys.readouterr()
    assert rc == 10
    assert cap.out.strip() == "LOWERBOUND k=0 bag 1 2 3 4"
    stats = cap.err.splitlines()
    assert {"passes=1", "two_way_passes=1", "tables=7"} <= set(stats)


def test_approx_stats_lines(p3, capsys):
    rc = run_cli(
        [
            "approx",
            "--graph",
            str(p3),
            "--k",
            "0",
            "--seed-strategy",
            "trivial",
            "--stats",
            "--check",
        ]
    )
    cap = capsys.readouterr()
    assert rc == 0
    keys = [ln.split("=")[0] for ln in cap.err.splitlines() if "=" in ln]
    assert keys == [
        "outcome",
        "width",
        "k",
        "passes",
        "two_way_passes",
        "splits",
        "inserted",
        "removed",
        "moves",
        "tables",
        "wall_time_s",
    ]


def test_approx_check_past_the_oracle_prints_the_same(tmp_path, capsys):
    # at n = 40 check mode compares each query with a new engine's
    g, t = partial_ktree(random.Random(41), 40, k=2)
    gr, td = tmp_path / "g.gr", tmp_path / "seed.td"
    gr.write_text(emit_gr(g))
    td.write_text(emit_td(coarsen(t, 8)))
    runs = []
    for extra in ([], ["--check"]):
        rc = run_cli(["approx", "--graph", str(gr), "--k", "2", "--td", str(td), *extra])
        runs.append((rc, capsys.readouterr()))
    (rc, plain), (rc_checked, checked) = runs
    assert rc == rc_checked == 0
    assert (checked.out, checked.err) == (plain.out, plain.err)
    assert parse_td(plain.out).bags != coarsen(t, 8).bags


def test_approx_with_seed_td(p3, tmp_path, capsys):
    seed = tmp_path / "seed.td"
    seed.write_text("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    rc = run_cli(["approx", "--graph", str(p3), "--k", "1", "--td", str(seed)])
    assert rc == 0
    cap = capsys.readouterr()
    assert parse_td(cap.out).bags == [[0, 1], [1, 2]]


def test_validate_ok_and_fail(p3, tmp_path, capsys):
    good = tmp_path / "good.td"
    good.write_text("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert run_cli(["validate", "--graph", str(p3), "--td", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    bad = tmp_path / "bad.td"
    bad.write_text("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")
    assert run_cli(["validate", "--graph", str(p3), "--td", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "edge coverage" in out or "coverage" in out


def test_exact_command(p3, k3, capsys):
    assert run_cli(["exact", "--graph", str(p3)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run_cli(["exact", "--graph", str(k3)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_exact_budget_refusal(tmp_path, capsys):
    g = clique(5)
    big = tmp_path / "big.gr"
    big.write_text(emit_gr(g))
    rc = run_cli(["exact", "--graph", str(big), "--max-n", "4"])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.err.startswith("error:")


def test_usage_errors(p3, tmp_path, capsys):
    assert run_cli(["approx", "--graph", "x.gr"]) == 2  # missing --k
    capsys.readouterr()
    # the table mode is chosen by the program, not by an option
    assert run_cli(["approx", "--graph", str(p3), "--k", "1", "--two-way", "on"]) == 2
    capsys.readouterr()
    assert run_cli([]) == 2
    capsys.readouterr()
    assert run_cli(["approx", "--graph", str(tmp_path / "nope.gr"), "--k", "1"]) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("error:")


def test_malformed_graph_file(tmp_path, capsys):
    f = tmp_path / "bad.gr"
    f.write_text("p tw 2 1\n1 5\n")
    rc = run_cli(["approx", "--graph", str(f), "--k", "1"])
    cap = capsys.readouterr()
    assert rc == 2
    assert "error:" in cap.err


def test_negative_k_rejected(p3, capsys):
    rc = run_cli(["approx", "--graph", str(p3), "--k", "-1"])
    cap = capsys.readouterr()
    assert rc == 2
    assert "error:" in cap.err


def child_env():
    """Environment for a child `python -m twapx.cli`: the directory that
    holds the imported twapx package goes first on PYTHONPATH, so the child
    runs the code under test whether or not the package is installed."""
    env = dict(os.environ)
    top = str(Path(twapx.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [top, env.get("PYTHONPATH")]))
    return env


def test_subprocess_round_trip(tmp_path):
    gr = tmp_path / "g.gr"
    gr.write_text(P3_GR)
    td = tmp_path / "g.td"
    run = subprocess.run(
        [
            sys.executable,
            "-m",
            "twapx.cli",
            "approx",
            "--graph",
            str(gr),
            "--k",
            "1",
            "--out",
            str(td),
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().startswith("WIDTH ")
    check = subprocess.run(
        [
            sys.executable,
            "-m",
            "twapx.cli",
            "validate",
            "--graph",
            str(gr),
            "--td",
            str(td),
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert check.returncode == 0
    assert check.stdout.strip() == "OK"


def test_graph_dash_reads_stdin():
    run = subprocess.run(
        [sys.executable, "-m", "twapx.cli", "approx", "--graph", "-", "--k", "1"],
        input=P3_GR,
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("s td ")
    assert "WIDTH 1" in run.stderr
