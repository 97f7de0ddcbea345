"""Query interface between reconstruction algorithms and the hidden graph.

Algorithms never touch a :class:`~ccquery.graph_core.Graph` directly; they hold
a :class:`CcOracle`, which answers component-count queries, counts every query,
and enforces the adaptivity contract. Two modes exist:

* ``adaptive`` -- :meth:`CcOracle.query` answers immediately; every query is
  its own adaptivity round.
* ``batched`` -- queries are staged with :meth:`CcOracle.submit` (or the
  neighbor-probe variants) inside an open batch and all answers of the batch
  are released together by :meth:`CcOracle.close_batch`. With ``max_rounds=k``
  this realizes a k-round algorithm; ``k=1`` is non-adaptive.

:meth:`CcOracle.close_batch` returns the answers as one numpy array indexed
by the positions the submit calls returned: dtype ``bool`` when the batch
staged only neighbor probes (one byte per staged probe answer), ``int64`` once
it holds a component count from :meth:`CcOracle.submit` (probe answers are
then 0 or 1).

A query budget, when set, is a recoverable signal: the violating query raises
:class:`QueryBudgetExceeded` before being answered, and subroutines with
halting rules catch it and truncate.

Two predicates are oracle primitives with a fixed price, however they are
answered:

* :meth:`CcOracle.probe` (and its batched form :meth:`CcOracle.submit_or_probe`)
  -- "does ``u`` have a neighbor in ``s``" -- costs the two queries
  ``cc(s + {u})`` and ``cc(s)``; an empty ``s`` is free.
* :meth:`CcOracle.cross` -- "does an edge join ``s`` and ``u``" -- costs the
  one to four queries of the overlap formula it documents.

Charging is atomic: a predicate either charges all of its queries or raises
:class:`QueryBudgetExceeded` having charged none. Without a trace the answer
is read from the hidden graph's adjacency, which provably equals the
component-count answer. With ``record_trace=True`` the component counts are
computed and recorded, in the same order and with the same round indices as
the individual queries the formula asks.
"""

from __future__ import annotations

import functools
from typing import Iterable, TextIO

import numpy as np

from .graph_core import Graph


class QueryBudgetExceeded(Exception):
    """Raised when answering one more query would exceed the oracle budget."""


class BatchContractError(RuntimeError):
    """Raised on any violation of the batch/round protocol."""


def write_trace_lines(
    fh: TextIO, trace: Iterable[tuple[int, tuple[int, ...], int]], verbose: bool = False
) -> None:
    """Write one line per query: ``round_index set_size answer``.

    With ``verbose`` the sorted members are appended to each line.
    """
    for round_index, members, answer in trace:
        line = f"{round_index} {len(members)} {answer}"
        if verbose:
            line += " " + " ".join(str(v) for v in members)
        fh.write(line + "\n")


class QueryLedger:
    """Append-only accounting of all oracle interactions.

    ``total_queries`` always counts every component-count query (a neighbor
    probe counts as two). Full traces are optional because multi-million-query
    runs would be enormous; when enabled, each entry is
    ``(round_index, members, answer)`` with ``members`` a sorted tuple.
    """

    def __init__(self, mode: str, max_rounds: int | None, record_trace: bool):
        self.mode = mode
        self.max_rounds = max_rounds
        self.total_queries = 0
        self.batch_sizes: list[int] = []
        self.trace: list[tuple[int, tuple[int, ...], int]] | None = [] if record_trace else None

    @property
    def num_rounds(self) -> int:
        """Adaptivity rounds so far: closed batches, or one round per query."""
        if self.mode == "adaptive":
            return self.total_queries
        return len(self.batch_sizes)

    def _record(self, members: Iterable[int], answer: int) -> None:
        """Count one query; a query's round index is the round count before it."""
        if self.trace is not None:
            self.trace.append((self.num_rounds, tuple(sorted(members)), int(answer)))
        self.total_queries += 1

    def dump_trace(self, path: str, verbose: bool = False) -> None:
        """Write the trace to ``path`` in the format of :func:`write_trace_lines`."""
        if self.trace is None:
            raise ValueError("trace recording was not enabled for this oracle")
        with open(path, "w", encoding="utf-8") as fh:
            write_trace_lines(fh, self.trace, verbose)


class _CcEvaluator:
    """Exact component counting tuned for repeated queries on one graph.

    Small sets walk adjacency sets; large sets mask the edge arrays so the
    induced edge list comes out of numpy. Both paths finish with a union-find
    over the induced edges only.
    """

    def __init__(self, g: Graph):
        self.n = g.n
        self.adj = g.adjacency
        if g.m:
            eu, ev = zip(*sorted(g.edges))
            self._eu = np.array(eu, dtype=np.int64)
            self._ev = np.array(ev, dtype=np.int64)
        else:
            self._eu = np.empty(0, dtype=np.int64)
            self._ev = np.empty(0, dtype=np.int64)
        self._mask = np.zeros(g.n, dtype=bool)
        self._range = list(range(g.n))
        # Neighbor-walk cost scales with the walked degree sum; edge masking
        # costs a flat ~m vector ops plus call overhead. Crossover measured
        # at roughly 75 interpreter ops of overhead per masked query.
        avg_deg = (2 * g.m / g.n) if g.n else 0.0
        self._small_cutoff = max(8, int((75 + g.m / 100) / max(1.0, avg_deg)))

    def cc(self, members: list[int]) -> int:
        k = len(members)
        if k <= 1:
            return k
        if k <= self._small_cutoff or self._eu.size == 0:
            return self._cc_small(members)
        return self._cc_masked(members)

    def _cc_small(self, members: list[int]) -> int:
        in_s = set(members)
        comps = len(in_s)
        parent: dict[int, int] = {}
        get = parent.get
        for v in in_s:
            for w in self.adj[v] & in_s:
                if w > v:
                    ra = v
                    nxt = get(ra, ra)
                    while nxt != ra:
                        ra = nxt
                        nxt = get(ra, ra)
                    rb = w
                    nxt = get(rb, rb)
                    while nxt != rb:
                        rb = nxt
                        nxt = get(rb, rb)
                    if ra != rb:
                        parent[rb] = ra
                        comps -= 1
        return comps

    def _cc_masked(self, members: list[int]) -> int:
        arr = np.asarray(members, dtype=np.int64)
        mask = self._mask
        mask[arr] = True
        sel = mask[self._eu] & mask[self._ev]
        mask[arr] = False
        comps = len(members)
        if not sel.any():
            return comps
        parent = self._range.copy()
        for a, b in zip(self._eu[sel].tolist(), self._ev[sel].tolist()):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[b] = a
                comps -= 1
        return comps

    def hits_neighbor_rows(self, u: int, rows: np.ndarray) -> np.ndarray:
        """Per-row test of whether the row's vertices touch ``N(u)``.

        ``rows`` is either an integer array of vertex ids (one sample set per
        row, duplicates allowed) or a boolean membership matrix of width n.
        """
        row = np.zeros(self.n, dtype=bool)
        row[list(self.adj[u])] = True
        if rows.dtype == np.bool_:
            return (rows & row).any(axis=1)
        return np.take(row, rows).any(axis=1)


class CcOracle:
    """Counted, contract-enforcing access to component counts of a hidden graph.

    Args:
        graph: the hidden graph; unreadable by algorithms except via queries.
        mode: ``"adaptive"`` or ``"batched"``.
        max_rounds: round budget in batched mode (``None`` for unlimited).
        budget: optional total query budget.
        record_trace: keep the full per-query trace (memory-heavy).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        mode: str = "adaptive",
        max_rounds: int | None = None,
        budget: int | None = None,
        record_trace: bool = False,
    ):
        if mode not in ("adaptive", "batched"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        if mode == "adaptive" and max_rounds is not None:
            raise ValueError("max_rounds only applies to batched mode")
        self._graph = graph
        self._eval = _CcEvaluator(graph)
        self.budget = budget
        self.ledger = QueryLedger(mode, max_rounds, record_trace)
        self._batch_open = False
        self._reset_batch()

    @property
    def n(self) -> int:
        """Number of vertices of the hidden graph (public knowledge)."""
        return self._graph.n

    @property
    def mode(self) -> str:
        return self.ledger.mode

    def _clean(self, s: Iterable[int]) -> list[int]:
        members = list(dict.fromkeys(s))
        self._check_range(members)
        return members

    @functools.cached_property
    def _vertices(self) -> frozenset[int]:
        # Built on first use, keeping construction cheap. A superset test
        # checks a set in one pass, where min() and max() take two.
        return frozenset(range(self._graph.n))

    def _check_range(self, members: Iterable[int]) -> None:
        if not self._vertices.issuperset(members):
            raise ValueError(f"query set out of range for n={self._graph.n}")

    def _charge(self, k: int) -> None:
        if self.budget is not None and self.ledger.total_queries + k > self.budget:
            raise QueryBudgetExceeded(
                f"budget {self.budget} would be exceeded ({self.ledger.total_queries} used)"
            )

    def _require_adaptive(self) -> None:
        if self.mode != "adaptive":
            raise BatchContractError(
                "batched oracle releases answers only at close_batch; use submit()"
            )

    # -- adaptive mode ----------------------------------------------------

    def query(self, s: Iterable[int]) -> int:
        """Answer one component-count query immediately (adaptive mode only)."""
        self._require_adaptive()
        members = self._clean(s)
        self._charge(1)
        answer = self._eval.cc(members)
        self.ledger._record(members, answer)
        return answer

    def probe(self, u: int, s: Iterable[int]) -> bool:
        """Whether ``u`` has a neighbor in ``s``; two queries (adaptive mode only).

        Decided as ``cc(s + {u}) - cc(s) != 1``: adding ``u`` either creates
        its own component (difference 1, no neighbor) or merges k >= 1
        existing components (difference 1 - k <= 0). An empty ``s`` is False
        for free; ``u`` may not belong to ``s``.
        """
        self._require_adaptive()
        return self._probe(u, s)

    def cross(self, s: Iterable[int], u: Iterable[int]) -> bool:
        """Whether an edge has one endpoint in ``s`` and the other in ``u``.

        The sets may overlap. With ``W = s & u`` there is no crossing edge iff
        ``W`` is independent (``cc(W) == |W|``) and
        ``cc(s-W) + cc(W) + cc(u-W) == cc(s | u)``. The cost is one query per
        non-empty set among ``W``, ``s-W`` and ``u-W`` plus one for the
        union, except that a dependent ``W`` (answer True) or ``s == u == W``
        (answer False) stops after the one query on ``W``. Either set empty
        is False for free. Adaptive mode only.
        """
        self._require_adaptive()
        s_set = set(s)
        u_set = set(u)
        union = s_set | u_set
        self._check_range(union)
        if not s_set or not u_set:
            return False
        w = s_set & u_set
        if self.ledger.trace is None:
            adj = self._graph.adjacency
            w_independent = all(adj[a].isdisjoint(w) for a in w)
        else:
            cc_w = self._eval.cc(list(w)) if w else 0
            w_independent = cc_w == len(w)
        s_rest = len(s_set) > len(w)
        u_rest = len(u_set) > len(w)
        if not w_independent or not (s_rest or u_rest):
            # A dependent W decides True, and s == u == W independent decides
            # False, after the one query on W.
            k = 1
        else:
            k = bool(w) + s_rest + u_rest + 1
        self._charge(k)
        if self.ledger.trace is None:
            self.ledger.total_queries += k
            small, big = (s_set, u_set) if len(s_set) <= len(u_set) else (u_set, s_set)
            return any(not adj[a].isdisjoint(big) for a in small)
        if k == 1:
            self.ledger._record(w, cc_w)
            return not w_independent
        total = 0
        for part in (w, s_set - w, u_set - w):
            if part:
                members = list(part)
                answer = cc_w if part is w else self._eval.cc(members)
                self.ledger._record(members, answer)
                total += answer
        cc_union = self._eval.cc(list(union))
        self.ledger._record(union, cc_union)
        return cc_union != total

    def _probe(self, u: int, s: Iterable[int]) -> bool:
        """Validate, charge and answer one neighbor probe in either mode."""
        members = set(s)
        self._check_range(members)
        if u in members:
            raise ValueError(f"probe vertex {u} may not belong to the probed set")
        if not 0 <= u < self._graph.n:
            raise ValueError(f"vertex {u} out of range")
        if not members:
            return False
        self._charge(2)
        return self._probe_answer(u, members)

    def _probe_answer(self, u: int, members: set[int]) -> bool:
        """Count and answer a charged probe on a valid, non-empty set."""
        ledger = self.ledger
        if ledger.trace is None:
            ledger.total_queries += 2
            return not self._graph.adjacency[u].isdisjoint(members)
        without_u = list(members)
        with_u = without_u + [u]
        cc_with = self._eval.cc(with_u)
        cc_without = self._eval.cc(without_u)
        ledger._record(with_u, cc_with)
        ledger._record(without_u, cc_without)
        return cc_with - cc_without != 1

    # -- batched mode ------------------------------------------------------

    def open_batch(self) -> None:
        if self.mode != "batched":
            raise BatchContractError("open_batch requires batched mode")
        if self._batch_open:
            raise BatchContractError("previous batch is still open")
        if (
            self.ledger.max_rounds is not None
            and len(self.ledger.batch_sizes) >= self.ledger.max_rounds
        ):
            raise BatchContractError(f"round budget of {self.ledger.max_rounds} exhausted")
        self._batch_open = True
        self._reset_batch()

    def _reset_batch(self) -> None:
        # Answers of the open batch: numpy chunks in staging order, then the
        # scalar answers staged since the last chunk, buffered so that single
        # submits allocate no array each. Only the open batch charges queries,
        # so its size is the ledger's growth since it opened.
        self._chunks: list[np.ndarray] = []
        self._scalars: list[int | bool] = []
        self._staged = 0
        self._has_counts = False
        self._batch_start = self.ledger.total_queries

    def _require_open(self) -> None:
        if not self._batch_open:
            raise BatchContractError("no batch is open")

    def _stage(self, answer: int | bool) -> int:
        self._scalars.append(answer)
        self._staged += 1
        return self._staged - 1

    def _flush_scalars(self) -> None:
        if self._scalars:
            dtype = np.int64 if self._has_counts else np.bool_
            self._chunks.append(np.array(self._scalars, dtype=dtype))
            self._scalars = []

    def submit(self, s: Iterable[int]) -> int:
        """Stage one query; returns its index among the batch answers."""
        self._require_open()
        members = self._clean(s)
        self._charge(1)
        answer = self._eval.cc(members)
        self.ledger._record(members, answer)
        self._has_counts = True
        return self._stage(answer)

    def submit_or_probe(self, u: int, s: Iterable[int]) -> int:
        """Stage a neighbor probe for ``u`` against ``s``; two queries.

        The batch answer is the boolean "u has a neighbor in s", decided
        exactly as by :meth:`probe`. An empty ``s`` is answered False for free.
        """
        self._require_open()
        return self._stage(self._probe(u, s))

    def submit_or_probes(self, u: int, rows: np.ndarray) -> range:
        """Stage one neighbor probe per row of ``rows``; two queries each.

        Rows are sample sets for ``u``, given either as an integer id matrix
        (duplicates collapse into the queried set) or a boolean membership
        matrix of width n. Returns the index range of the staged answers.
        They are kept as one bool chunk, a byte per probe, until
        :meth:`close_batch` returns them in the batch's array: ``bool``, or
        ``int64`` once :meth:`submit` has staged a component count.
        """
        self._require_open()
        if not 0 <= u < self._graph.n:
            raise ValueError(f"vertex {u} out of range")
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        if rows.dtype != np.bool_ and rows.size and (
            rows.min() < 0 or rows.max() >= self._graph.n or (rows == u).any()
        ):
            raise ValueError("sample ids out of range or equal to the probed vertex")
        if rows.dtype == np.bool_ and rows[:, u].any():
            raise ValueError("membership rows may not include the probed vertex")
        count = rows.shape[0]
        # Empty sample sets are free, exactly as in the single-probe form.
        if rows.dtype == np.bool_:
            nonempty = int(rows.any(axis=1).sum())
        else:
            nonempty = count if rows.shape[1] else 0
        self._charge(2 * nonempty)
        if self.ledger.trace is not None:
            answers = np.zeros(count, dtype=bool)
            for i in range(count):
                members = set(
                    np.flatnonzero(rows[i]).tolist() if rows.dtype == np.bool_ else rows[i].tolist()
                )
                if members:
                    answers[i] = self._probe_answer(u, members)
        else:
            answers = self._eval.hits_neighbor_rows(u, rows)
            self.ledger.total_queries += 2 * nonempty
        self._flush_scalars()
        self._chunks.append(answers)
        start = self._staged
        self._staged += count
        return range(start, start + count)

    def close_batch(self) -> np.ndarray:
        """Release the batch answers atomically and count the round.

        The answers come as one array, position ``i`` answering the submit
        call that returned ``i``. Its dtype is ``bool`` when only neighbor
        probes were staged, a byte per answer, and ``int64`` once a
        :meth:`submit` staged a component count, probe answers then reading
        0 or 1. An empty batch gives an empty ``bool`` array.
        """
        self._require_open()
        self._flush_scalars()
        chunks = self._chunks
        if not chunks:
            answers = np.zeros(0, dtype=bool)
        elif len(chunks) == 1:
            answers = chunks[0]  # already of the batch's dtype
        else:
            answers = np.concatenate(chunks, dtype=np.int64 if self._has_counts else np.bool_)
        self.ledger.batch_sizes.append(self.ledger.total_queries - self._batch_start)
        self._batch_open = False
        self._reset_batch()
        return answers
