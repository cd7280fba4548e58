"""Splits of a graph relative to a bag of a rooted tree decomposition.

A split partitions the vertex set into three component groups and a
separator; the groups have no edges between them and each, together with the
separator, stays strictly smaller than the target bag. Splits are compared by
separator size first and total home-bag depth of the separator second.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation
from .graph import Graph
from .treedec import RootedView


@dataclass(frozen=True)
class Split:
    """Canonical split: groups ordered by smallest member, empties last."""

    c1: frozenset[int]
    c2: frozenset[int]
    c3: frozenset[int]
    x: frozenset[int]
    objective: tuple[int, int]

    @property
    def groups(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return (self.c1, self.c2, self.c3)


def canonical_groups(
    parts: tuple[frozenset[int], frozenset[int], frozenset[int]],
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    nonempty = sorted((p for p in parts if p), key=min)
    nonempty += [frozenset()] * (3 - len(nonempty))
    return (nonempty[0], nonempty[1], nonempty[2])


def make_split(
    c1: frozenset[int],
    c2: frozenset[int],
    c3: frozenset[int],
    x: frozenset[int],
    rv: RootedView,
) -> Split:
    a, b, c = canonical_groups((c1, c2, c3))
    return Split(a, b, c, frozenset(x), (len(x), split_distance(x, rv)))


def split_distance(x: frozenset[int] | set[int], rv: RootedView) -> int:
    """Sum of home-bag depths over the separator vertices."""
    return sum(rv.depth[rv.home[v]] for v in x)


def is_valid_split(
    g: Graph,
    w: frozenset[int] | set[int] | list[int],
    c1: frozenset[int] | set[int],
    c2: frozenset[int] | set[int],
    c3: frozenset[int] | set[int],
    x: frozenset[int] | set[int],
) -> bool:
    """Decide whether (c1, c2, c3, x) splits bag w.

    The four parts must partition the vertex set (ContractViolation
    otherwise). Valid means: no edge joins two distinct groups, and
    |w ∩ ci| + |x| < |w| for every group.
    """
    parts = [frozenset(c1), frozenset(c2), frozenset(c3), frozenset(x)]
    total = sum(len(p) for p in parts)
    union = frozenset().union(*parts)
    if total != g.n or len(union) != g.n or (union and (min(union) < 0 or max(union) >= g.n)):
        raise ContractViolation(
            f"split parts do not partition the {g.n} vertices (sizes {[len(p) for p in parts]})"
        )
    side = {}
    for idx, part in enumerate(parts[:3]):
        for v in part:
            side[v] = idx
    for u in range(g.n):
        su = side.get(u)
        if su is None:
            continue
        for v in g.adj[u]:
            sv = side.get(v)
            if sv is not None and sv != su:
                return False
    wset = frozenset(w)
    bound = len(wset)
    for part in parts[:3]:
        if len(wset & part) + len(parts[3]) >= bound:
            return False
    return True
