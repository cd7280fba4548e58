"""The package root exports exactly the documented API."""

import twapx


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
