"""Treewidth 2-approximation by local splitting of tree decompositions.

Given a graph and an integer k, the package either produces a tree
decomposition of width at most 2k+1 or a machine-checkable certificate that
the treewidth exceeds k. Exhaustive oracles for exact treewidth and minimum
splits back the incremental engine in tests, and PACE-format .gr/.td text is
supported throughout.
"""

from .dpengine import EditPlan, SplitEngine
from .errors import BudgetError, ContractViolation, ParseError
from .graph import Graph, emit_gr, parse_gr
from .improver import Decomposition, LowerBound, RunStats, approximate
from .oracle import exact_treewidth, exhaustive_min_split
from .treedec import TreeDecomposition, emit_td, parse_td, validate, width

__all__ = [
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
