"""Hidden-graph representation, exact subgraph statistics, and instance generators.

Vertices are dense integer ids ``0..n-1``. A vertex subset may be passed to any
function here as an arbitrary iterable of ids; edges are unordered pairs stored
as ``(min, max)`` tuples. Graphs are immutable after construction and safe to
share across concurrent trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

Edge = tuple[int, int]

FAMILIES = ("gnm", "forest", "star", "two-path-pair", "clique-minus-edge")


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to ``(min, max)`` form."""
    if u == v:
        raise ValueError(f"self-loop on vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """An unweighted, undirected simple graph on vertices ``0..n-1``.

    Attributes:
        n: vertex count.
        edges: frozenset of normalized ``(u, v)`` pairs with ``u < v``.
        adjacency: tuple of per-vertex neighbor frozensets, symmetric and
            consistent with ``edges``.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm: set[Edge] = set()
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            e = edge(int(u), int(v))
            if not (0 <= e[0] and e[1] < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            if e in norm:
                continue
            norm.add(e)
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
        self.n = n
        self.edges = frozenset(norm)
        self.adjacency = tuple(frozenset(s) for s in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_subset(g: Graph, s: Iterable[int]) -> list[int]:
    out = []
    for v in s:
        v = int(v)
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        out.append(v)
    return out


def cc_count(g: Graph, s: Iterable[int]) -> int:
    """Exact number of connected components of the induced subgraph ``g[s]``.

    The empty set has zero components. This is the reference evaluator used by
    the oracle; it performs no query accounting.
    """
    members = _check_subset(g, s)
    if not members:
        return 0
    in_s = set(members)
    parent = {v: v for v in in_s}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = len(in_s)
    for v in in_s:
        for w in g.adjacency[v]:
            if w > v and w in in_s:
                rv, rw = find(v), find(w)
                if rv != rw:
                    parent[rw] = rv
                    comps -= 1
    return comps


def density(g: Graph, s: Iterable[int]) -> int:
    """Exact number of edges of ``g`` with both endpoints in ``s``."""
    members = _check_subset(g, s)
    in_s = set(members)
    total = 0
    for v in in_s:
        for w in g.adjacency[v]:
            if w > v and w in in_s:
                total += 1
    return total


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters describing one generated hidden-graph instance.

    ``m`` is ignored for the two-path-pair family, whose edge count is forced
    by ``n``; ``u``/``v`` select the distinguished pair for that family only.
    """

    family: str
    n: int
    m: int
    seed: int
    u: int = 0
    v: int = 1

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        max_m = self.n * (self.n - 1) // 2
        if self.family == "two-path-pair":
            if self.n < 3:
                raise ValueError("two-path-pair needs n >= 3")
            if not (0 <= self.u < self.n and 0 <= self.v < self.n and self.u != self.v):
                raise ValueError("two-path-pair needs distinct vertices u, v in range")
            return
        if self.m < 0 or self.m > max_m:
            raise ValueError(f"m={self.m} infeasible for n={self.n}")
        if self.family in ("forest", "star") and self.m > max(0, self.n - 1):
            raise ValueError(f"{self.family} needs m <= n-1")
        if self.family == "clique-minus-edge":
            n0, m_dum = clique_minus_edge_shape(self.m)
            needed = n0 + (1 if m_dum > 0 else 0)
            if self.n < needed:
                raise ValueError(
                    f"clique-minus-edge with m={self.m} needs n >= {needed}, got {self.n}"
                )


def generate(spec: InstanceSpec) -> Graph | tuple[Graph, Graph]:
    """Build the instance described by ``spec``; deterministic for a fixed seed.

    Returns a single :class:`Graph`, except for the two-path-pair family which
    returns the ``(without-edge, with-edge)`` graph pair for ``(spec.u, spec.v)``.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    if spec.family == "gnm":
        return gnm_graph(spec.n, spec.m, rng)
    if spec.family == "forest":
        return random_forest(spec.n, spec.m, rng)
    if spec.family == "star":
        return star_graph(spec.n, spec.m)
    if spec.family == "two-path-pair":
        return two_path_pair(spec.n, spec.u, spec.v)
    return clique_minus_edge(spec.n, spec.m, rng)


def _unrank_pairs(n: int, indices: np.ndarray) -> list[Edge]:
    # Lexicographic rank of (u, v), u < v, is u*n - u*(u+1)/2 + (v - u - 1).
    us = np.arange(n, dtype=np.int64)
    starts = us * n - us * (us + 1) // 2
    u = np.searchsorted(starts, indices, side="right") - 1
    v = indices - starts[u] + u + 1
    return [(int(a), int(b)) for a, b in zip(u, v)]


def gnm_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Uniform random graph with exactly ``m`` distinct edges."""
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError(f"m={m} exceeds {total} possible edges")
    idx = rng.choice(total, size=m, replace=False)
    return Graph(n, _unrank_pairs(n, np.sort(idx)))


def random_forest(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Random forest grown one edge at a time.

    Each new edge is uniform among the pairs that keep the graph acyclic
    (rejection sampling), which is not the uniform distribution over labeled
    forests but is cheap and unbiased per step.
    """
    if m > max(0, n - 1):
        raise ValueError("a forest on n vertices has at most n-1 edges")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: set[Edge] = set()
    while len(edges) < m:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        parent[rv] = ru
        edges.add(edge(u, v))
    return Graph(n, edges)


def star_graph(n: int, m: int) -> Graph:
    """Vertex 0 joined to vertices ``1..m``; the rest are isolated."""
    if m > max(0, n - 1):
        raise ValueError("star needs m <= n-1")
    return Graph(n, [(0, i) for i in range(1, m + 1)])


def two_path_pair(n: int, u: int, v: int) -> tuple[Graph, Graph]:
    """The gadget pair joined by 2-paths through every other vertex.

    The first graph connects ``u`` and ``v`` to each other vertex ``w`` (edges
    ``{u,w}`` and ``{w,v}``); the second adds the single edge ``{u,v}``. Any
    query set containing both ``u`` and ``v`` plus a third vertex induces a
    connected subgraph in both, so only the bare pair query tells them apart.
    """
    if n < 3:
        raise ValueError("two-path-pair needs n >= 3")
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ValueError("u, v must be distinct in-range vertices")
    base = []
    for w in range(n):
        if w == u or w == v:
            continue
        base.append(edge(u, w))
        base.append(edge(w, v))
    return Graph(n, base), Graph(n, base + [edge(u, v)])


def clique_minus_edge_shape(m: int) -> tuple[int, int]:
    """Largest clique size ``n0`` with ``C(n0,2) - 1 <= m`` and the dummy-edge count."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    n0 = 2
    while (n0 + 1) * n0 // 2 - 1 <= m:
        n0 += 1
    m_dum = m - (n0 * (n0 - 1) // 2 - 1)
    return n0, m_dum


def clique_minus_edge(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Near-clique instance: an ``n0``-clique missing one uniform edge.

    Vertices ``0..n0-1`` form the clique ``K`` with one uniformly chosen edge
    removed; when the edge budget is not exhausted, vertex ``n0`` absorbs the
    remainder as edges into the first ``m_dum`` clique vertices. Any further
    vertices are isolated.
    """
    n0, m_dum = clique_minus_edge_shape(m)
    if n < n0 + (1 if m_dum > 0 else 0):
        raise ValueError(f"need n >= {n0 + (1 if m_dum > 0 else 0)} for m={m}")
    pairs = [(a, b) for a in range(n0) for b in range(a + 1, n0)]
    missing = pairs[int(rng.integers(len(pairs)))]
    edges = [e for e in pairs if e != missing]
    if m_dum > 0:
        edges.extend(edge(n0, w) for w in range(m_dum))
    return Graph(n, edges)


def to_edge_list_text(g: Graph) -> str:
    """Serialize as plain text: ``"n m"`` then one sorted ``"u v"`` line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    """Parse the edge-list format produced by :func:`to_edge_list_text`."""
    rows: Iterator[str] = iter(text.strip().splitlines())
    try:
        header = next(rows)
    except StopIteration:
        raise ValueError("empty edge-list text") from None
    n, m = (int(x) for x in header.split())
    edges = []
    for row in rows:
        u, v = (int(x) for x in row.split())
        edges.append((u, v))
    if len(edges) != m:
        raise ValueError(f"header promised {m} edges, found {len(edges)}")
    return Graph(n, edges)
