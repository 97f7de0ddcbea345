"""Spans around ccquery's public functions, installed from outside the package.

:func:`install` replaces each traced function by a wrapper on every name a
caller resolves: the module globals of every loaded ``ccquery`` module that
hold the original (``ccquery.adaptive`` imports ``find_high_degree`` and
``has_neighbor`` by value, for instance) and the class attribute for methods.
It returns a function that puts the originals back.

A span has a name, a start, an end and a parent. Spans are folded into
per-name totals as they close instead of being stored, because one
reconstruction opens millions of them. A span's self time is its duration
minus the time its child spans cover; its queries are the ledger's growth
while it was open, and its self queries leave out the queries of child spans
outside the oracle layer.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# (name, unit, better) of every per-layer metric, in the order printed.
PER_LAYER = [
    ("graph_core.Graph.init_s", "s", "lower"),
    ("oracle.CcOracle.init_s", "s", "lower"),
    ("oracle.query.calls", "count", "lower"),
    ("oracle.query.self_s", "s", "lower"),
    ("oracle.query.mean_size", "vertices", "lower"),
    ("oracle.submit_or_probes.calls", "count", "lower"),
    ("oracle.submit_or_probes.rows", "count", "lower"),
    ("oracle.submit_or_probes.self_s", "s", "lower"),
    ("oracle.dump_trace.self_s", "s", "lower"),
    ("oracle.dump_trace.bytes", "B", "lower"),
    ("primitives.has_neighbor.calls", "count", "lower"),
    ("primitives.has_neighbor.queries", "count", "lower"),
    ("primitives.has_neighbor.self_s", "s", "lower"),
    ("primitives.binary_search_reconstruct.queries", "count", "lower"),
    ("primitives.binary_search_reconstruct.self_s", "s", "lower"),
    ("primitives.find_high_degree.queries", "count", "lower"),
    ("primitives.find_high_degree.self_s", "s", "lower"),
    ("primitives.find_adjacent_to_set.calls", "count", "lower"),
    ("primitives.find_adjacent_to_set.halted", "count", "lower"),
    ("primitives.find_adjacent_to_set.queries", "count", "lower"),
    ("primitives.find_adjacent_to_set.self_s", "s", "lower"),
    ("primitives.has_cross_edge.calls", "count", "lower"),
    ("primitives.has_cross_edge.queries", "count", "lower"),
    ("primitives.has_cross_edge.self_s", "s", "lower"),
    ("primitives.reconstruct_forest.calls", "count", "lower"),
    ("primitives.reconstruct_forest.queries", "count", "lower"),
    ("primitives.reconstruct_forest.edges", "count", "higher"),
    ("primitives.reconstruct_forest.self_s", "s", "lower"),
    ("adaptive.key_subroutine.calls", "count", "lower"),
    ("adaptive.key_subroutine.queries", "count", "lower"),
    ("adaptive.key_subroutine.self_s", "s", "lower"),
    ("primitives.find_neighbors_in_known_subgraph.calls", "count", "lower"),
    ("primitives.find_neighbors_in_known_subgraph.queries", "count", "lower"),
    ("primitives.find_neighbors_in_known_subgraph.self_s", "s", "lower"),
    ("adaptive.verify_reconstruction.queries", "count", "lower"),
    ("adaptive.verify_reconstruction.self_s", "s", "lower"),
    ("adaptive.adaptive_reconstruct.restarts", "count", "lower"),
    ("adaptive.adaptive_reconstruct.self_queries", "count", "lower"),
    ("adaptive.adaptive_reconstruct.self_s", "s", "lower"),
    ("two_round.plan_degree.self_s", "s", "lower"),
    ("two_round.plan_degree.bytes", "B", "lower"),
    ("two_round.plan_neighborhood.self_s", "s", "lower"),
    ("two_round.plan_neighborhood.bytes", "B", "lower"),
    ("two_round.submit_degree_plan.self_s", "s", "lower"),
    ("two_round.submit_neighborhood_plan.self_s", "s", "lower"),
    ("two_round.decode_degree.self_s", "s", "lower"),
    ("two_round.decode_neighborhood.self_s", "s", "lower"),
    ("two_round.two_round_reconstruct.self_s", "s", "lower"),
    ("two_round.round1.queries", "count", "lower"),
    ("two_round.round2.queries", "count", "lower"),
    ("two_round.round1.rss_mb", "MB", "lower"),
    ("two_round.round2.rss_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("bench.wall_unscaled_s", "s", "lower"),
    ("bench.reference_kernel_s", "s", "lower"),
]

# Metrics named after what they time rather than after the wrapped function.
_ALIASES = {
    "graph_core.Graph.init_s": "graph_core.Graph.self_s",
    "oracle.CcOracle.init_s": "oracle.CcOracle.self_s",
}


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Span:
    __slots__ = ("probe", "start", "parent", "queries_at_start", "child_s", "child_queries")

    def __init__(self, probe, start, parent, queries_at_start):
        self.probe = probe
        self.start = start
        self.parent = parent
        self.queries_at_start = queries_at_start
        self.child_s = 0.0
        self.child_queries = 0


class Tracer:
    """Open spans on a stack and fold each into its name's totals on close."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.totals: dict[str, float] = defaultdict(float)

    def traced_call(self, probe: "Probe", fn, args, kwargs):
        if probe.before is not None:
            args = probe.before(args)
        ledger = args[0].ledger if probe.charges else None
        parent = self.stack[-1] if self.stack else None
        span = _Span(probe, time.perf_counter(), parent, ledger.total_queries if ledger else 0)
        self.stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._fold(span, end, ledger.total_queries if ledger else 0)
        if probe.after is not None:
            probe.after(self.totals, args, result)
        return result

    def _fold(self, span: _Span, end: float, queries_at_end: int) -> None:
        duration = end - span.start
        queries = queries_at_end - span.queries_at_start
        name = span.probe.name
        totals = self.totals
        totals[name + ".calls"] += 1
        totals[name + ".self_s"] += duration - span.child_s
        totals[name + ".queries"] += queries
        totals[name + ".self_queries"] += queries - span.child_queries
        if span.parent is not None:
            span.parent.child_s += duration
            if not span.probe.oracle_layer:
                span.parent.child_queries += queries

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric from spans; absent spans read 0."""
        totals = self.totals
        calls = totals.get("oracle.query.calls", 0.0)
        derived = {
            "oracle.query.mean_size": totals.get("oracle.query.size_sum", 0.0) / calls
            if calls
            else 0.0
        }
        out = {}
        for name, _, _ in PER_LAYER:
            if name.startswith(("trace.", "bench.")):
                continue
            if name in derived:
                out[name] = derived[name]
            else:
                out[name] = totals.get(_ALIASES.get(name, name), 0.0)
        return out


@dataclass(frozen=True)
class Probe:
    """One traced function: its span name, where it lives, and what to count.

    ``charges``: the first argument is an oracle whose ledger counts queries.
    ``before`` may replace the call's arguments; ``after`` adds counts from
    the arguments and the result to the tracer's totals.
    """

    name: str
    module: str
    attr: str
    charges: bool = True
    oracle_layer: bool = False
    before: Callable | None = None
    after: Callable | None = None


def _materialize_query(args):
    return (args[0], list(args[1]), *args[2:])


def _count_query(totals, args, result):
    totals["oracle.query.size_sum"] += len(set(args[1]))


def _count_rows(totals, args, result):
    totals["oracle.submit_or_probes.rows"] += len(result)


def _count_trace_bytes(totals, args, result):
    totals["oracle.dump_trace.bytes"] += os.path.getsize(args[1])


def _count_halted(totals, args, result):
    totals["primitives.find_adjacent_to_set.halted"] += result is None


def _count_forest_edges(totals, args, result):
    totals["primitives.reconstruct_forest.edges"] += len(result)


def _count_restarts(totals, args, result):
    totals["adaptive.adaptive_reconstruct.restarts"] += result.restarts


def _count_degree_plan(totals, args, result):
    totals["two_round.plan_degree.bytes"] += sum(d.nbytes for d in result.draws)


def _count_neighborhood_plan(totals, args, result):
    totals["two_round.plan_neighborhood.bytes"] += result.membership.nbytes


def _read_round(totals, args, result):
    batches = args[0].ledger.batch_sizes
    if len(batches) <= 2:
        totals[f"two_round.round{len(batches)}.queries"] = batches[-1]
        totals[f"two_round.round{len(batches)}.rss_mb"] = peak_rss_mb()


PROBES = [
    Probe("graph_core.Graph", "graph_core", "Graph.__init__", charges=False),
    Probe("oracle.CcOracle", "oracle", "CcOracle.__init__", charges=False, oracle_layer=True),
    Probe(
        "oracle.query",
        "oracle",
        "CcOracle.query",
        oracle_layer=True,
        before=_materialize_query,
        after=_count_query,
    ),
    Probe(
        "oracle.submit_or_probes",
        "oracle",
        "CcOracle.submit_or_probes",
        oracle_layer=True,
        after=_count_rows,
    ),
    Probe(
        "oracle.close_batch", "oracle", "CcOracle.close_batch", oracle_layer=True, after=_read_round
    ),
    Probe(
        "oracle.dump_trace",
        "oracle",
        "QueryLedger.dump_trace",
        charges=False,
        oracle_layer=True,
        after=_count_trace_bytes,
    ),
    Probe("primitives.has_neighbor", "primitives", "has_neighbor"),
    Probe("primitives.has_cross_edge", "primitives", "has_cross_edge"),
    Probe(
        "primitives.find_adjacent_to_set",
        "primitives",
        "find_adjacent_to_set",
        after=_count_halted,
    ),
    Probe("primitives.find_high_degree", "primitives", "find_high_degree"),
    Probe(
        "primitives.reconstruct_forest",
        "primitives",
        "reconstruct_forest",
        after=_count_forest_edges,
    ),
    Probe("primitives.binary_search_reconstruct", "primitives", "binary_search_reconstruct"),
    Probe(
        "primitives.find_neighbors_in_known_subgraph",
        "primitives",
        "find_neighbors_in_known_subgraph",
    ),
    Probe("adaptive.key_subroutine", "adaptive", "key_subroutine"),
    Probe("adaptive.verify_reconstruction", "adaptive", "verify_reconstruction"),
    Probe(
        "adaptive.adaptive_reconstruct",
        "adaptive",
        "adaptive_reconstruct",
        after=_count_restarts,
    ),
    Probe("two_round.plan_degree", "two_round", "plan_degree", charges=False, after=_count_degree_plan),
    Probe(
        "two_round.plan_neighborhood",
        "two_round",
        "plan_neighborhood",
        charges=False,
        after=_count_neighborhood_plan,
    ),
    Probe("two_round.submit_degree_plan", "two_round", "submit_degree_plan"),
    Probe("two_round.submit_neighborhood_plan", "two_round", "submit_neighborhood_plan"),
    Probe("two_round.decode_degree", "two_round", "decode_degree", charges=False),
    Probe("two_round.decode_neighborhood", "two_round", "decode_neighborhood", charges=False),
    Probe("two_round.two_round_reconstruct", "two_round", "two_round_reconstruct"),
]


def _wrap(tracer: Tracer, probe: Probe, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.traced_call(probe, fn, args, kwargs)

    return traced


def install(cq, tracer: Tracer) -> Callable[[], None]:
    """Route every traced function of the loaded package ``cq`` through ``tracer``."""
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if name == cq.__name__ or name.startswith(cq.__name__ + ".")
    ]
    undo = []
    for probe in PROBES:
        owner = getattr(cq, probe.module)
        if "." in probe.attr:
            cls_name, method = probe.attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(tracer, probe, original))
            undo.append((cls, method, original))
            continue
        original = getattr(owner, probe.attr)
        wrapper = _wrap(tracer, probe, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, original))

    def restore() -> None:
        for target, name, original in reversed(undo):
            setattr(target, name, original)

    return restore
