"""Span tracer that wraps the twapx layers from outside.

The public functions of dpengine, improver and treedec are wrapped by
rebinding the names where their callers look them up: the improver module's
globals, dpengine's `validate`, and the `approximate`/`emit_td` attributes the
harness calls through. SplitEngine is replaced, for improver, by a subclass
whose public methods open spans. Nothing under src/ changes, and `attached()`
restores every name on exit.

Each span records its name, its parent span, start and end, and the engine
counters diffed around the call, so per-layer ratios are measured where the
work happens.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from twapx import dpengine, improver, treedec


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at top level
    start: float
    end: float = 0.0
    tables: int = 0
    moves: int = 0
    repeats: int = 0  # move-built tables whose orientation was already built
    inserted: int = 0
    removed: int = 0
    two_way: bool = False  # engine built on two-group tables
    children: float = 0.0  # summed duration of direct child spans


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    # (codes, entries) of every node table, read after each pass
    table_sizes: list[tuple[int, int]] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.table_sizes.clear()

    @contextmanager
    def span(self, name: str):
        """Record a span around the block, as a child of the open one."""
        span = Span(name, self.stack[-1] if self.stack else -1, time.perf_counter())
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].children += span.end - span.start

    def parent_name(self, span: Span) -> str:
        return self.spans[span.parent].name if span.parent >= 0 else ""

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def wrap_pass(self, fn):
        """reduce_width_pass, plus a read of the engine's table sizes after
        it returns, itself a span so that it leaves the layers' self times."""
        traced = self.wrap("improver.reduce_width_pass", fn)

        def after_pass(engine, *args, **kwargs):
            try:
                return traced(engine, *args, **kwargs)
            finally:
                with self.span("bench.table_scan"):
                    for tab in engine.table.values():
                        self.table_sizes.append(
                            (len(tab), sum(len(hs) for hs in tab.values()))
                        )

        return after_pass

    def engine_class(self):
        tracer = self

        class TracedEngine(dpengine.SplitEngine):
            def __init__(self, *args, **kwargs):
                with tracer.span("dpengine.init") as span:
                    super().__init__(*args, **kwargs)
                span.tables = self.tables_computed
                span.two_way = self.groups == 2
                self.built = set(self.parent.items())

            def move_to(self, target):
                path = [target]
                while path[-1] != self.root and self.parent.get(path[-1]) is not None:
                    path.append(self.parent[path[-1]])
                repeats = 0
                prev = self.root
                for node in reversed(path[:-1]):
                    for orient in ((prev, node), (node, None)):
                        if orient in self.built:
                            repeats += 1
                        else:
                            self.built.add(orient)
                    prev = node
                tables, moves = self.tables_computed, self.moves
                with tracer.span("dpengine.move_to") as span:
                    super().move_to(target)
                span.tables = self.tables_computed - tables
                span.moves = self.moves - moves
                span.repeats = repeats

            def split_query(self):
                with tracer.span("dpengine.split_query"):
                    return super().split_query()

            def edit(self, plan):
                tables = self.tables_computed
                with tracer.span("dpengine.edit") as span:
                    ids = super().edit(plan)
                span.tables = self.tables_computed - tables
                span.inserted = len(ids)
                span.removed = len(plan.removed)
                # only each node's current orientation survives an edit
                self.built = set(self.parent.items())
                return ids

            def export_decomposition(self, skip=None):
                with tracer.span("dpengine.export"):
                    return super().export_decomposition(skip)

        return TracedEngine

    @contextmanager
    def attached(self):
        """Rebind the traced names for the duration of the block."""
        bindings = [
            (improver, "approximate", self.wrap("improver.approximate", improver.approximate)),
            (improver, "reduce_width_pass", self.wrap_pass(improver.reduce_width_pass)),
            (improver, "find_editable", self.wrap("improver.find_editable", improver.find_editable)),
            (improver, "build_replacement", self.wrap("improver.build_replacement", improver.build_replacement)),
            (improver, "SplitEngine", self.engine_class()),
            (improver, "initial_decomposition", self.wrap("treedec.bootstrap", improver.initial_decomposition)),
            (improver, "normalize_degree3", self.wrap("treedec.normalize", improver.normalize_degree3)),
            (improver, "validate", self.wrap("treedec.validate", improver.validate)),
            (dpengine, "validate", self.wrap("treedec.validate", dpengine.validate)),
            (treedec, "emit_td", self.wrap("treedec.emit", treedec.emit_td)),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in bindings]
        try:
            for mod, name, value in bindings:
                setattr(mod, name, value)
            yield self
        finally:
            for mod, name, value in saved:
                setattr(mod, name, value)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded since the last reset.

        Plain `_s` times are inclusive span durations; `_self_s` times
        subtract the direct child spans.
        """
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        tables: dict[str, int] = {}
        walk = {"s": 0.0, "tables": 0, "repeats": 0}
        editable = {"s": 0.0, "tables": 0, "repeats": 0}
        moves = inserted = removed = two_way = 0
        for span in self.spans:
            dur = span.end - span.start
            total[span.name] = total.get(span.name, 0.0) + dur
            own[span.name] = own.get(span.name, 0.0) + dur - span.children
            calls[span.name] = calls.get(span.name, 0) + 1
            tables[span.name] = tables.get(span.name, 0) + span.tables
            moves += span.moves
            inserted += span.inserted
            removed += span.removed
            two_way += span.two_way
            if span.name == "dpengine.move_to":
                from_pass = self.parent_name(span) == "improver.reduce_width_pass"
                side = walk if from_pass else editable
                side["s"] += dur
                side["tables"] += span.tables
                side["repeats"] += span.repeats
        passes = calls.get("improver.reduce_width_pass", 0)
        splits = calls.get("dpengine.edit", 0)
        queries = calls.get("dpengine.split_query", 0)
        step_tables = walk["tables"] + editable["tables"]
        sizes = self.table_sizes

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "dpengine.init_s": total.get("dpengine.init", 0.0),
            "dpengine.move_walk_s": walk["s"],
            "dpengine.move_editable_s": editable["s"],
            "dpengine.edit_s": total.get("dpengine.edit", 0.0),
            "dpengine.split_query_s": total.get("dpengine.split_query", 0.0),
            "dpengine.export_s": total.get("dpengine.export", 0.0),
            "dpengine.tables": sum(tables.values()),
            "dpengine.tables_walk": walk["tables"],
            "dpengine.tables_editable": editable["tables"],
            "dpengine.tables_edit": tables.get("dpengine.edit", 0),
            "dpengine.moves": moves,
            "dpengine.tables_per_step": ratio(step_tables, moves),
            "dpengine.ms_per_table_walk": ratio(1000 * walk["s"], walk["tables"]),
            "dpengine.ms_per_table_editable": ratio(
                1000 * editable["s"], editable["tables"]
            ),
            "dpengine.table_entries_mean": ratio(sum(e for _, e in sizes), len(sizes)),
            "dpengine.table_codes_max": max((c for c, _ in sizes), default=0),
            "dpengine.repeat_orientation_share": ratio(
                walk["repeats"] + editable["repeats"], step_tables
            ),
            "improver.approximate_self_s": own.get("improver.approximate", 0.0),
            "improver.pass_self_s": own.get("improver.reduce_width_pass", 0.0),
            "improver.find_editable_self_s": own.get("improver.find_editable", 0.0),
            "improver.build_replacement_s": total.get("improver.build_replacement", 0.0),
            "improver.passes": passes,
            "improver.two_way_passes": two_way,
            "improver.splits": splits,
            "improver.split_yield": ratio(splits, queries),
            "improver.moves_per_split": ratio(moves, splits),
            "improver.bags_inserted": inserted,
            "improver.bags_removed": removed,
            "treedec.bootstrap_s": total.get("treedec.bootstrap", 0.0),
            "treedec.validate_s": total.get("treedec.validate", 0.0),
            "treedec.normalize_s": total.get("treedec.normalize", 0.0),
            "treedec.emit_s": total.get("treedec.emit", 0.0),
        }
