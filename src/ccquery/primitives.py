"""Query subroutines shared by the reconstruction algorithms.

All functions take the oracle first and communicate with the hidden graph only
through it. Every edge any routine returns has been individually verified (or
follows from an exact predicate), so outputs are always true edges outside the
supplied known set; budget exhaustion truncates output instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph_core import Edge, edge
from .oracle import CcOracle, QueryBudgetExceeded

KnownEdges = set  # set[Edge]; kept as a plain set of normalized pairs
_EMPTY: frozenset[int] = frozenset()


def has_neighbor(oracle: CcOracle, u: int, s: Iterable[int]) -> bool:
    """Whether ``u`` has at least one neighbor inside ``s``; see :meth:`CcOracle.probe`."""
    return oracle.probe(u, s)


def has_cross_edge(oracle: CcOracle, s: Iterable[int], u: Iterable[int]) -> bool:
    """Whether an edge joins ``s`` and ``u``; see :meth:`CcOracle.cross`."""
    return oracle.cross(s, u)


class _Halt(Exception):
    """Stops an adjacency search whose query allowance is used up."""


def _adjacent_in_block(
    oracle: CcOracle, s_set: set[int], block: Sequence[int], out: list[int], stop_at: int | None
) -> None:
    if stop_at is not None and oracle.ledger.total_queries >= stop_at:
        raise _Halt
    if not has_cross_edge(oracle, s_set, block):
        return
    if len(block) == 1:
        out.append(block[0])
        return
    mid = (len(block) + 1) // 2
    _adjacent_in_block(oracle, s_set, block[:mid], out, stop_at)
    _adjacent_in_block(oracle, s_set, block[mid:], out, stop_at)


def find_adjacent_to_set(
    oracle: CcOracle,
    s: Iterable[int],
    max_queries: int | None = None,
) -> list[int] | None:
    """All vertices with at least one neighbor in ``s``, by recursive halving.

    Starts from the full vertex set and prunes halves with no edge into ``s``;
    vertices of ``s`` itself are reported when they have a neighbor in ``s``.
    Costs O(sum of degrees over s * log n) queries. When ``max_queries`` is
    given and exhausted the search halts and returns None.
    """
    stop_at = None if max_queries is None else oracle.ledger.total_queries + max_queries
    out: list[int] = []
    try:
        _adjacent_in_block(oracle, set(s), list(range(oracle.n)), out, stop_at)
    except _Halt:
        return None
    return out


def high_degree_iterations(m: int, delta: float) -> int:
    """Voting rounds used by :func:`find_high_degree`."""
    return math.ceil(200.0 * (math.log(2 * m) + math.log(1.0 / delta)))


def find_high_degree(
    oracle: CcOracle,
    m: int,
    t: float,
    delta: float,
    rng: np.random.Generator,
    c_adj: int = 4,
) -> list[int]:
    """Vertices whose degree is around ``t`` or larger, by repeated sampling.

    Each round samples vertices at rate ``1/t`` and runs a budget-capped
    :func:`find_adjacent_to_set`; a vertex is returned when it was adjacent to
    the sample in at least half the rounds. With probability ``1 - delta``
    every vertex of degree at least ``2t`` is returned and none of degree at
    most ``t/2`` is; degree-0 vertices never appear.

    Args:
        m: upper bound on the hidden edge count.
        t: degree threshold, at least 10.
        delta: failure probability, in (0, 1).
        c_adj: per-recursion-step query constant of the adjacency search,
            fixing the per-round halting cap at ``c_adj * ceil(20m/t) * ceil(log2 n)``.
    """
    if t < 10:
        raise ValueError("degree threshold must be at least 10")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    n = oracle.n
    if m <= 0 or t >= n:
        return []
    rounds = high_degree_iterations(m, delta)
    per_round_cap = c_adj * math.ceil(20.0 * m / t) * math.ceil(math.log2(max(2, n)))
    votes = np.zeros(n, dtype=np.int64)
    rate = 1.0 / t
    for _ in range(rounds):
        sample = np.flatnonzero(rng.random(n) < rate)
        if sample.size == 0:
            continue
        hit = find_adjacent_to_set(oracle, sample.tolist(), max_queries=per_round_cap)
        if hit is not None:
            votes[hit] += 1
    return np.flatnonzero(votes * 2 >= rounds).tolist()


@dataclass(frozen=True)
class ForestBudget:
    """Halting knob for forest reconstruction via simulated edge-count queries.

    ``c_density`` is the constant of the budget
    ``ceil(c_density * max(2, m_u) * log2(|vs|) / log2(max(2, m_u)))``,
    calibrated once against the bundled bipartition reconstructor.
    """

    c_density: float = 16.0

    def __post_init__(self):
        if self.c_density <= 0:
            raise ValueError("c_density must be positive")

    def queries(self, vs_size: int, m_u: int) -> int:
        if vs_size < 2:
            return 0
        mu = max(2, m_u)
        return math.ceil(self.c_density * mu * math.log2(vs_size) / math.log2(mu))


class _DensitySearch:
    """The recursive bipartition of :func:`density_reconstruct` over its state.

    An object rather than nested closures, so that no function refers to
    itself and a finished search, with the oracle its ``density_fn`` holds, is
    freed by reference counting alone.
    """

    def __init__(self, kadj: dict[int, set[int]], density_fn: Callable[[list[int]], int]):
        self.kadj = kadj
        self.density_fn = density_fn
        self.memo: dict[tuple[int, ...], int] = {}
        self.found: list[Edge] = []

    def known_within(self, block: Sequence[int]) -> int:
        if not self.kadj:
            return 0
        blk = set(block)
        return sum(len(self.kadj.get(v, _EMPTY) & blk) for v in blk) // 2

    def known_across(self, a_blk: Sequence[int], b_blk: Sequence[int]) -> int:
        if not self.kadj:
            return 0
        b_set = set(b_blk)
        return sum(len(self.kadj.get(v, _EMPTY) & b_set) for v in a_blk)

    def d(self, block: Sequence[int]) -> int:
        # The cross recursion revisits its fixed side at every split level;
        # answers already paid for are reused instead of requeried.
        if len(block) < 2:
            return 0
        key = tuple(block)
        if key not in self.memo:
            self.memo[key] = self.density_fn(list(block)) - self.known_within(block)
        return self.memo[key]

    def emit_all_within(self, block: Sequence[int]) -> None:
        blk = sorted(block)
        for i, a in enumerate(blk):
            for b in blk[i + 1 :]:
                if b not in self.kadj.get(a, ()):
                    self.found.append(edge(a, b))

    def emit_all_across(self, a_blk: Sequence[int], b_blk: Sequence[int]) -> None:
        for a in a_blk:
            for b in b_blk:
                if b not in self.kadj.get(a, ()):
                    self.found.append(edge(a, b))

    def within(self, block: Sequence[int], du: int) -> None:
        if du <= 0 or len(block) < 2:
            return
        pairs = len(block) * (len(block) - 1) // 2 - self.known_within(block)
        if du >= pairs:
            self.emit_all_within(block)
            return
        mid = (len(block) + 1) // 2
        a_blk, b_blk = block[:mid], block[mid:]
        da = self.d(a_blk)
        db = self.d(b_blk)
        self.within(a_blk, da)
        self.within(b_blk, db)
        self.across(a_blk, b_blk, du - da - db, db)

    def across(self, a_blk: Sequence[int], b_blk: Sequence[int], c: int, db: int) -> None:
        if c <= 0:
            return
        pairs = len(a_blk) * len(b_blk) - self.known_across(a_blk, b_blk)
        if c >= pairs:
            self.emit_all_across(a_blk, b_blk)
            return
        if len(a_blk) >= len(b_blk):
            mid = (len(a_blk) + 1) // 2
            a1, a2 = a_blk[:mid], a_blk[mid:]
            da1 = self.d(a1)
            c1 = self.d(list(a1) + list(b_blk)) - da1 - db
            self.across(a1, b_blk, c1, db)
            self.across(a2, b_blk, c - c1, db)
        else:
            mid = (len(b_blk) + 1) // 2
            b1, b2 = b_blk[:mid], b_blk[mid:]
            da = self.d(a_blk)
            db1 = self.d(b1)
            c1 = self.d(list(a_blk) + list(b1)) - da - db1
            self.across(a_blk, b1, c1, db1)
            if c - c1 > 0:
                self.across(a_blk, b2, c - c1, self.d(b2))


def density_reconstruct(
    vs: Iterable[int],
    known: KnownEdges,
    density_fn: Callable[[list[int]], int],
) -> list[Edge]:
    """All unknown edges inside ``vs`` from exact induced edge counts.

    ``density_fn`` must answer the number of hidden-graph edges inside any
    subset of ``vs``; known edges are subtracted internally. Recursive
    bipartition: the crossing count of a split is ``d(A|B) - d(A) - d(B)``,
    and blocks whose unknown count is zero (or equals every remaining pair)
    resolve without further calls. O(m_u log n + n) calls overall.

    A ``QueryBudgetExceeded`` raised by ``density_fn`` truncates the search;
    the edges located so far are returned.
    """
    order = sorted(set(vs))
    kadj: dict[int, set[int]] = {}
    member_set = set(order)
    for a, b in known:
        if a in member_set and b in member_set:
            kadj.setdefault(a, set()).add(b)
            kadj.setdefault(b, set()).add(a)
    search = _DensitySearch(kadj, density_fn)
    try:
        search.within(order, search.d(order))
    except QueryBudgetExceeded:
        pass
    return search.found


def reconstruct_forest(
    oracle: CcOracle,
    vs: Iterable[int],
    known: KnownEdges,
    budget: ForestBudget = ForestBudget(),
) -> set[Edge]:
    """Unknown edges of ``g[vs]``, exact whenever ``g[vs]`` is a forest.

    Edge counts are simulated through component counts (``|U| - cc(U)``, exact
    on forests), the reconstruction halts at the budget derived from the
    initial unknown-edge estimate, and every candidate is verified with one
    pair query before being output. On non-forests the output is therefore
    still a subset of the true unknown edges, merely possibly incomplete.
    """
    order = sorted(set(vs))
    if len(order) <= 1:
        return set()
    member_set = set(order)
    known_vs = {e for e in known if e[0] in member_set and e[1] in member_set}
    cc_all = oracle.query(order)
    m_hat = len(order) - cc_all - len(known_vs)
    if m_hat <= 0:
        return set()
    cap = budget.queries(len(order), m_hat)
    calls = 0

    def density_fn(block: list[int]) -> int:
        nonlocal calls
        if calls >= cap:
            raise QueryBudgetExceeded(f"forest reconstruction budget {cap} reached")
        calls += 1
        return len(block) - oracle.query(block)

    candidates = density_reconstruct(order, known_vs, density_fn)
    verified: set[Edge] = set()
    for cand in candidates:
        if cand in known_vs:
            break
        if oracle.query(cand) != 1:
            break
        verified.add(cand)
    return verified


def _halving_search(oracle: CcOracle, v: int, block: list[int], hits: list[int]) -> None:
    if not has_neighbor(oracle, v, block):
        return
    if len(block) == 1:
        hits.append(block[0])
        return
    mid = (len(block) + 1) // 2
    _halving_search(oracle, v, block[:mid], hits)
    _halving_search(oracle, v, block[mid:], hits)


def binary_search_reconstruct(
    oracle: CcOracle,
    vs: Iterable[int],
    known: KnownEdges,
) -> set[Edge]:
    """Exactly the unknown edges of ``g[vs]``, by per-vertex halving search.

    For each vertex the candidate partners are those without a known (or
    already found) edge to it; halves with no neighbor are pruned with the
    two-query predicate. Deterministic and exact; splits are ceil/floor over
    the sorted vertex order.
    """
    order = sorted(set(vs))
    # Each vertex's non-partners: itself and its known or found neighbors.
    excluded = {v: {v} for v in order}
    for a, b in known:
        if a in excluded and b in excluded:
            excluded[a].add(b)
            excluded[b].add(a)
    found: set[Edge] = set()
    for v in order:
        skip = excluded[v]
        partners = [w for w in order if w not in skip]
        hits: list[int] = []
        if partners:
            _halving_search(oracle, v, partners, hits)
        for w in hits:
            found.add(edge(v, w))
            excluded[w].add(v)
    return found


def greedy_color_classes(
    vertices: Iterable[int],
    edges_u: Iterable[Edge],
    d: float,
) -> list[list[int]]:
    """Partition ``vertices`` into independent classes of the given subgraph.

    Greedy coloring over the sorted order uses at most ``d + 1`` colors when
    ``d`` bounds the maximum degree (a larger count raises, flagging a wrong
    bound). For ``d >= 1`` classes longer than ``ceil(|u|/d)`` are split, so
    at most ``2d + 2`` classes come back.
    """
    order = sorted(set(vertices))
    member_set = set(order)
    adj: dict[int, set[int]] = {v: set() for v in order}
    for a, b in edges_u:
        if a in member_set and b in member_set:
            adj[a].add(b)
            adj[b].add(a)
    color: dict[int, int] = {}
    for v in order:
        used = {color[w] for w in adj[v] if w in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    num_colors = max(color.values()) + 1 if color else 0
    if num_colors > d + 1:
        raise ValueError(
            f"coloring needed {num_colors} classes for degree bound {d}; bound was wrong"
        )
    classes = [[] for _ in range(num_colors)]
    for v in order:
        classes[color[v]].append(v)
    if d >= 1:
        chunk = math.ceil(len(order) / d)
        split: list[list[int]] = []
        for cls in classes:
            for i in range(0, len(cls), chunk):
                split.append(cls[i : i + chunk])
        classes = split
    return [cls for cls in classes if cls]


def find_neighbors_in_known_subgraph(
    oracle: CcOracle,
    v: int,
    u: Iterable[int],
    edges_u: Iterable[Edge],
    d: float,
    budget: ForestBudget = ForestBudget(),
) -> set[Edge]:
    """All edges between ``v`` and ``u``, given the edges inside ``u``.

    Requires ``edges_u`` to be exactly the induced edges on ``u`` and ``d`` to
    bound the induced maximum degree. Colors ``g[u]`` for free, then each
    (independent) class plus ``v`` induces a star forest that forest
    reconstruction recovers exactly.
    """
    members = sorted(set(u))
    if v in members:
        raise ValueError(f"vertex {v} must not belong to u")
    found: set[Edge] = set()
    for cls in greedy_color_classes(members, edges_u, d):
        found |= reconstruct_forest(oracle, cls + [v], set(), budget)
    return found
