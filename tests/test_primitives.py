"""Subroutine correctness against brute-force oracles, plus budget behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccquery import (
    CcOracle,
    Graph,
    binary_search_reconstruct,
    density,
    density_reconstruct,
    edge,
    find_adjacent_to_set,
    find_high_degree,
    find_neighbors_in_known_subgraph,
    gnm_graph,
    greedy_color_classes,
    has_cross_edge,
    has_neighbor,
    high_degree_iterations,
    random_forest,
    reconstruct_forest,
    star_graph,
)
from ccquery.primitives import forest_query_cap
from conftest import (
    all_graphs,
    brute_adjacent_to_set,
    brute_cross_edge,
    brute_has_neighbor,
    brute_neighbors_between,
    random_graph,
    subsets,
)


# -- neighbor predicates -----------------------------------------------------


def test_has_neighbor_examples():
    star = star_graph(6, 5)
    o = CcOracle(star)
    assert has_neighbor(o, 0, [1, 2]) is True
    isolated = Graph(4, [(1, 2)])
    o = CcOracle(isolated)
    assert has_neighbor(o, 0, [1, 2, 3]) is False


def test_has_neighbor_merging_two_components():
    # Adding the probe vertex merges two components: the count difference is
    # -1, not 0, which is why the predicate tests "difference != 1".
    g = Graph(5, [(0, 1), (2, 3), (4, 0), (4, 2)])
    o = CcOracle(g)
    assert o.query([0, 1, 2, 3]) == 2
    assert o.query([0, 1, 2, 3, 4]) == 1
    assert has_neighbor(o, 4, [0, 1, 2, 3]) is True


def test_has_neighbor_query_cost():
    g = Graph(4, [(0, 1)])
    o = CcOracle(g)
    assert has_neighbor(o, 0, []) is False
    assert o.ledger.total_queries == 0
    has_neighbor(o, 0, [1, 2])
    assert o.ledger.total_queries == 2
    with pytest.raises(ValueError):
        has_neighbor(o, 1, [1, 2])


def test_has_neighbor_exhaustive_small():
    for g in all_graphs(4):
        o = CcOracle(g)
        for u in range(4):
            others = [v for v in range(4) if v != u]
            for s in subsets(others):
                assert has_neighbor(o, u, s) == brute_has_neighbor(g, u, s)


@given(
    bits=st.integers(min_value=0, max_value=(1 << 10) - 1),
    u=st.integers(0, 4),
    sub=st.integers(0, 31),
)
@settings(max_examples=150, deadline=None)
def test_has_neighbor_property(bits, u, sub):
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    g = Graph(5, [p for i, p in enumerate(pairs) if bits >> i & 1])
    s = [v for v in range(5) if sub >> v & 1 and v != u]
    assert has_neighbor(CcOracle(g), u, s) == brute_has_neighbor(g, u, s)


def test_has_cross_edge_examples():
    g = Graph(4, [(0, 2)])
    o = CcOracle(g)
    assert has_cross_edge(o, [0, 1], [2, 3]) is True
    ind = Graph(4, [])
    o = CcOracle(ind)
    assert has_cross_edge(o, [0, 1], [0, 1]) is False


def test_has_cross_edge_exhaustive_small():
    for g in all_graphs(4):
        o = CcOracle(g)
        for s in subsets(range(4)):
            for u in subsets(range(4)):
                start = o.ledger.total_queries
                assert has_cross_edge(o, s, u) == brute_cross_edge(g, s, u)
                assert o.ledger.total_queries - start <= 4


def test_has_cross_edge_random_overlapping(rng):
    for _ in range(60):
        g = random_graph(rng, 10)
        o = CcOracle(g)
        s = rng.choice(10, size=int(rng.integers(0, 11)), replace=False).tolist()
        u = rng.choice(10, size=int(rng.integers(0, 11)), replace=False).tolist()
        assert has_cross_edge(o, s, u) == brute_cross_edge(g, s, u)


# -- adjacency search ----------------------------------------------------------


def test_find_adjacent_examples(rng):
    g = Graph(5, [(1, 2)])
    o = CcOracle(g)
    assert find_adjacent_to_set(o, [0]) == []  # isolated vertex
    star = star_graph(8, 7)
    o = CcOracle(star)
    assert find_adjacent_to_set(o, [0]) == list(range(1, 8))
    for _ in range(40):
        g = random_graph(rng, 12)
        o = CcOracle(g)
        s = rng.choice(12, size=int(rng.integers(0, 13)), replace=False).tolist()
        assert find_adjacent_to_set(o, s) == brute_adjacent_to_set(g, s)


def test_find_adjacent_budget_halts():
    star = star_graph(16, 15)
    o = CcOracle(star)
    assert find_adjacent_to_set(o, [0], max_queries=3) is None
    assert o.ledger.total_queries <= 8  # a started probe may finish


# -- high-degree detection -----------------------------------------------------


def test_high_degree_iteration_formula():
    assert high_degree_iterations(100, 0.1) == 1521


def test_find_high_degree_validation(rng):
    o = CcOracle(star_graph(8, 7))
    with pytest.raises(ValueError):
        find_high_degree(o, 10, 9, 0.1, rng)
    with pytest.raises(ValueError):
        find_high_degree(o, 10, 10, 0.0, rng)


def test_find_high_degree_trivial_cases(rng):
    empty = Graph(32, [])
    o = CcOracle(empty)
    assert find_high_degree(o, 8, 10, 0.1, rng) == []
    o = CcOracle(star_graph(8, 7))
    assert find_high_degree(o, 7, 10, 0.1, rng) == []  # threshold >= n
    assert o.ledger.total_queries == 0


@pytest.mark.slow
def test_find_high_degree_star_statistics(rng):
    # Center (degree 63 >= 2t) must be kept, a fixed leaf (degree 1 <= t/2)
    # dropped, in all but a 2*delta fraction of 200 seeded trials.
    star = star_graph(64, 63)
    delta = 0.1
    trials = 200
    center_missed = 0
    leaf_kept = 0
    for _ in range(trials):
        o = CcOracle(star)
        h = set(find_high_degree(o, 63, 10, delta, rng))
        center_missed += 0 not in h
        leaf_kept += 1 in h
    assert center_missed / trials <= 2 * delta
    assert leaf_kept / trials <= 2 * delta


# -- forest reconstruction -----------------------------------------------------


def test_density_reconstruct_examples(rng):
    g = Graph(5, [])
    assert density_reconstruct(range(5), set(), lambda u: density(g, u)) == []
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    got = density_reconstruct(range(4), {(1, 2)}, lambda u: density(path, u))
    assert sorted(got) == [(0, 1), (2, 3)]
    for seed in range(5):
        f = random_forest(64, 50, np.random.default_rng(seed))
        got = density_reconstruct(range(64), set(), lambda u: density(f, u))
        assert set(got) == f.edges


def test_reconstruct_forest_path():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    o = CcOracle(path)
    assert reconstruct_forest(o, range(4), set()) == path.edges


def test_reconstruct_forest_known_subset(rng):
    f = random_forest(100, 80, rng)
    known = set(sorted(f.edges)[:40])
    o = CcOracle(f)
    got = reconstruct_forest(o, range(100), known)
    assert got == f.edges - known
    # never returns a known edge or a non-edge, and respects the query budget
    m_u = 40
    cap = forest_query_cap(100, m_u)
    assert o.ledger.total_queries <= 1 + cap + m_u + 1


def test_reconstruct_forest_on_non_forest_is_sound():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    o = CcOracle(triangle)
    got = reconstruct_forest(o, range(3), set())
    assert got <= triangle.edges
    cap = forest_query_cap(3, 2)
    assert o.ledger.total_queries <= 1 + cap + 3 + 1
    for seed in range(10):
        g = random_graph(np.random.default_rng(seed), 12)
        known = set(sorted(g.edges)[: g.m // 3])
        o = CcOracle(g)
        got = reconstruct_forest(o, range(12), known)
        assert got <= g.edges - known


def test_reconstruct_forest_degenerate_inputs():
    g = Graph(5, [(0, 1)])
    o = CcOracle(g)
    assert reconstruct_forest(o, [2], set()) == set()
    assert reconstruct_forest(o, [], set()) == set()
    assert o.ledger.total_queries == 0
    assert reconstruct_forest(o, [0, 1], {(0, 1)}) == set()  # everything known
    assert o.ledger.total_queries == 1


def test_forest_budget_formula():
    assert forest_query_cap(1, 5) == 0
    assert forest_query_cap(100, 50) == math.ceil(16 * 50 * math.log2(100) / math.log2(50))
    assert forest_query_cap(64, 0) == math.ceil(16 * 2 * 6 / 1)


# -- binary search reconstruction ----------------------------------------------


def test_binary_search_examples(rng):
    path = Graph(3, [(0, 1), (1, 2)])
    o = CcOracle(path)
    assert binary_search_reconstruct(o, range(3), set()) == path.edges
    g = random_graph(rng, 10)
    o = CcOracle(g)
    assert binary_search_reconstruct(o, range(10), set(g.edges)) == set()
    assert o.ledger.total_queries <= 2 * 10  # only the root probes remain


def test_binary_search_with_partial_knowledge(rng):
    g = gnm_graph(20, 40, rng)
    known = set(sorted(g.edges)[:15])
    o = CcOracle(g)
    assert binary_search_reconstruct(o, range(20), known) == g.edges - known


def test_binary_search_query_ceiling(rng):
    n, m = 48, 100
    g = gnm_graph(n, m, rng)
    o = CcOracle(g)
    got = binary_search_reconstruct(o, range(n), set())
    assert got == set(g.edges)
    assert o.ledger.total_queries <= 8 * (n + m) * math.log2(n)


def test_binary_search_on_subset(rng):
    g = random_graph(rng, 12)
    sub = [0, 2, 3, 7, 8, 11]
    o = CcOracle(g)
    got = binary_search_reconstruct(o, sub, set())
    want = {e for e in g.edges if e[0] in set(sub) and e[1] in set(sub)}
    assert got == want


# -- coloring and cross-neighbor recovery ---------------------------------------


def test_greedy_color_classes_invariants(rng):
    for _ in range(40):
        g = random_graph(rng, 14)
        verts = rng.choice(14, size=int(rng.integers(2, 15)), replace=False).tolist()
        vset = set(verts)
        sub_edges = {e for e in g.edges if e[0] in vset and e[1] in vset}
        deg = {v: 0 for v in verts}
        for a, b in sub_edges:
            deg[a] += 1
            deg[b] += 1
        d = max(deg.values()) if deg else 0
        classes = greedy_color_classes(verts, sub_edges, d)
        assert sorted(v for cls in classes for v in cls) == sorted(verts)
        assert len(classes) <= 2 * d + 2
        for cls in classes:
            cset = set(cls)
            assert not any(a in cset and b in cset for a, b in sub_edges)
            if d >= 1:
                assert len(cls) <= math.ceil(len(verts) / d)


def test_greedy_coloring_detects_wrong_bound():
    triangle_edges = {(0, 1), (1, 2), (0, 2)}
    with pytest.raises(ValueError):
        greedy_color_classes([0, 1, 2], triangle_edges, 1)


def test_find_neighbors_examples(rng):
    # u independent: one class, equivalent to forest reconstruction directly
    star = star_graph(8, 7)
    o = CcOracle(star)
    got = find_neighbors_in_known_subgraph(o, 0, range(1, 8), set(), 3)
    assert got == star.edges
    # u a perfect matching with d=1: classes are the two sides
    match = Graph(7, [(1, 2), (3, 4), (5, 6), (0, 1), (0, 3), (0, 6)])
    o = CcOracle(match)
    got = find_neighbors_in_known_subgraph(
        o, 0, range(1, 7), {(1, 2), (3, 4), (5, 6)}, 1
    )
    assert got == {(0, 1), (0, 3), (0, 6)}


def test_find_neighbors_random(rng):
    for _ in range(40):
        g = random_graph(rng, 12)
        v = int(rng.integers(12))
        size = int(rng.integers(1, 12))
        u = [w for w in rng.choice(12, size=size, replace=False).tolist() if w != v]
        if not u:
            continue
        uset = set(u)
        edges_u = {e for e in g.edges if e[0] in uset and e[1] in uset}
        deg = {w: 0 for w in u}
        for a, b in edges_u:
            deg[a] += 1
            deg[b] += 1
        d = max(deg.values()) if deg else 0
        o = CcOracle(g)
        got = find_neighbors_in_known_subgraph(o, v, u, edges_u, d)
        assert got == brute_neighbors_between(g, v, u)


def test_find_neighbors_rejects_member_vertex():
    o = CcOracle(Graph(3, []))
    with pytest.raises(ValueError):
        find_neighbors_in_known_subgraph(o, 1, [0, 1], set(), 1)


def test_outputs_always_true_edges(rng):
    # Soundness across every edge-returning routine on arbitrary graphs.
    for _ in range(25):
        g = random_graph(rng, 11)
        o = CcOracle(g)
        assert reconstruct_forest(o, range(11), set()) <= g.edges
        assert binary_search_reconstruct(o, range(11), set()) == set(g.edges)
        v = int(rng.integers(11))
        others = [w for w in range(11) if w != v]
        uset = set(others)
        edges_u = {e for e in g.edges if e[0] in uset and e[1] in uset}
        deg = {w: 0 for w in others}
        for a, b in edges_u:
            deg[a] += 1
            deg[b] += 1
        d = max(deg.values()) if deg else 0
        assert find_neighbors_in_known_subgraph(o, v, others, edges_u, d) <= g.edges
