"""Shared brute-force oracles and graph enumerators for the test suite.

Everything here is deliberately naive and independent of the library's own
evaluators: component counts by BFS, predicates by scanning all edges, so that
library results can be checked against a second implementation.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np
import pytest

from ccquery import Graph, edge


def bfs_cc(g: Graph, s) -> int:
    """Component count of g[s] by plain breadth-first search."""
    members = set(s)
    seen: set[int] = set()
    comps = 0
    for start in members:
        if start in seen:
            continue
        comps += 1
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if w in members and w not in seen:
                    seen.add(w)
                    queue.append(w)
    return comps


def brute_has_neighbor(g: Graph, u: int, s) -> bool:
    return any(w in g.adjacency[u] for w in s)


def brute_cross_edge(g: Graph, s, u) -> bool:
    s_set, u_set = set(s), set(u)
    return any(
        (a in s_set and b in u_set) or (a in u_set and b in s_set) for a, b in g.edges
    )


def formula_probe(query, u: int, s) -> bool:
    """The neighbor probe as the two-query formula ``cc(s+u) - cc(s) != 1``
    over any ``query`` callable; empty ``s`` is False for free."""
    members = list(s)
    if not members:
        return False
    return query(members + [u]) - query(members) != 1


def formula_cross(query, s, u) -> bool:
    """The cross-edge test as its one-to-four-query overlap formula over any
    ``query`` callable."""
    s_set, u_set = set(s), set(u)
    if not s_set or not u_set:
        return False
    w = s_set & u_set
    cc_w = 0
    if w:
        cc_w = query(w)
        if cc_w != len(w):
            return True
    s_only, u_only = s_set - w, u_set - w
    if not s_only and not u_only:
        return False
    total = cc_w + (query(s_only) if s_only else 0) + (query(u_only) if u_only else 0)
    return query(s_set | u_set) != total


def brute_adjacent_to_set(g: Graph, s) -> list[int]:
    s_set = set(s)
    return sorted(v for v in range(g.n) if any(w in s_set for w in g.adjacency[v]))


def brute_neighbors_between(g: Graph, v: int, u) -> set:
    return {edge(v, w) for w in u if w in g.adjacency[v]}


def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def random_graph(rng: np.random.Generator, n: int, max_m: int | None = None) -> Graph:
    total = n * (n - 1) // 2
    cap = total if max_m is None else min(max_m, total)
    m = int(rng.integers(0, cap + 1))
    idx = rng.choice(total, size=m, replace=False)
    pairs = list(combinations(range(n), 2))
    return Graph(n, [pairs[i] for i in idx])


def subsets(universe) -> list[list[int]]:
    items = list(universe)
    out = []
    for bits in range(1 << len(items)):
        out.append([items[i] for i in range(len(items)) if bits >> i & 1])
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
