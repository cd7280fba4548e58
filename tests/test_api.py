"""The package root exports exactly the documented API."""

import re
from pathlib import Path

import twapx

README = Path(__file__).resolve().parents[1] / "README.md"


def test_root_exports_only_the_documented_names():
    assert sorted(twapx.__all__) == [
        "BudgetError",
        "ContractViolation",
        "Decomposition",
        "EditPlan",
        "Graph",
        "LowerBound",
        "ParseError",
        "RunStats",
        "SplitEngine",
        "TreeDecomposition",
        "approximate",
        "emit_gr",
        "emit_td",
        "exact_treewidth",
        "exhaustive_min_split",
        "parse_gr",
        "parse_td",
        "validate",
        "width",
    ]
    for name in twapx.__all__:
        assert hasattr(twapx, name), name


def test_readme_names_every_export():
    text = README.read_text(encoding="utf-8")
    missing = [n for n in twapx.__all__ if not re.search(rf"`{n}\b", text)]
    assert missing == [], missing
