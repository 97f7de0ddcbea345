"""Sampling reconstruction, level orchestration, and exact verification."""

import hashlib
import math

import numpy as np
import pytest

from ccquery import (
    AdaptiveConfig,
    CcOracle,
    Graph,
    LevelPartition,
    adaptive_reconstruct,
    build_levels,
    edge,
    expected_iterations,
    gnm_graph,
    key_subroutine,
    reconstruct_bounded_degree_expected,
    reconstruct_bounded_degree_whp,
    reconstruct_forest,
    sample_rate,
    star_graph,
    verify_reconstruction,
    whp_iterations,
)
from ccquery import primitives
from ccquery.adaptive import _coloring_sweeps, _pair_phase, _partition_levels
from ccquery.oracle import QueryLedger
from conftest import formula_cross, formula_probe, random_graph


def matching(n: int) -> Graph:
    return Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


# -- parameter formulas ---------------------------------------------------------


def test_sample_rate_value():
    assert sample_rate(1000, 10) == pytest.approx(4.642e-3, rel=1e-3)


def test_whp_iterations_value():
    assert whp_iterations(0.1, 100, 0.01) == 1843


def test_expected_iterations_clamps():
    assert expected_iterations(0.1, 10, 200) == 0  # n^2 <= m
    assert expected_iterations(0.1, 64, 128) == math.ceil(2 * math.log(32) / 0.01)


def test_build_levels():
    with pytest.raises(ValueError):
        build_levels(1)
    lv = build_levels(10**6)
    assert lv.alphas[0] == pytest.approx(100.0)
    assert lv.levels == 1
    # frozen by direct iteration of the 0.9-power recurrence from m^(1/3)
    lv9 = build_levels(10**9)
    assert [round(a, 2) for a in lv9.alphas] == [1000.0, 501.19, 269.15, 153.82, 92.96]
    assert lv9.levels == 5
    for m in (1000, 10**6, 10**9):
        assert build_levels(m).thresholds[0] == pytest.approx(m ** (1 / 3))
    for a, t in zip(lv9.alphas, lv9.thresholds):
        assert t == pytest.approx(math.sqrt(10**9 / a))


# -- key subroutine --------------------------------------------------------------


def test_key_subroutine_zero_iterations(rng):
    g = matching(20)
    o = CcOracle(g)
    known = {(0, 1)}
    assert key_subroutine(o, list(range(20)), 10, 1, 0, known, rng) == known
    assert o.ledger.total_queries == 0


@pytest.mark.slow
def test_key_subroutine_finds_matching(rng):
    # Induced subgraphs of a matching are forests, so every sampled edge is
    # recovered; the round count makes a full find very likely per trial.
    g = matching(200)
    m, d = 100, 1
    p = sample_rate(m, d)
    ell = math.ceil(2 / p**2 * math.log(m))
    full = 0
    trials = 50
    for _ in range(trials):
        o = CcOracle(g)
        found = key_subroutine(o, list(range(200)), m, d, ell, set(), rng)
        assert found <= g.edges
        full += found == g.edges
    assert full >= 0.9 * trials


def test_key_subroutine_soundness(rng):
    for _ in range(10):
        g = random_graph(rng, 14)
        o = CcOracle(g)
        found = key_subroutine(o, list(range(14)), max(1, g.m), 13, 50, set(), rng)
        assert found <= g.edges


def reference_key_subroutine(oracle, vs, m, d, ell, known, rng):
    """key_subroutine as it drew one sample size per round, and the number of
    rounds whose size exceeded the gate."""
    order = sorted(set(vs))
    found = set(known)
    gated = 0
    if len(order) < 2 or ell <= 0:
        return found, gated
    p = sample_rate(m, d)
    gate = 100.0 * p * len(order)
    arr = np.asarray(order, dtype=np.int64)
    for _ in range(ell):
        k = int(rng.binomial(len(order), p))
        gated += k > gate
        if k > gate or k < 2:
            continue
        sample = rng.choice(arr, size=k, replace=False)
        found |= reconstruct_forest(oracle, sample.tolist(), found)
    return found, gated


@pytest.mark.parametrize(
    "n, vs, m, d, ell, outcome",
    [
        # p |vs| = 1.47: a sample of two or more every 2.3 rounds, sizes drawn
        # two a call.
        pytest.param(40, range(40), 20, 1, 300, "grows", id="kept-rounds"),
        # p |vs| = 0.35: one every 20.9 rounds, sizes drawn 20 a call.
        pytest.param(116, range(116), 1000, 37, 30000, "grows", id="short-bulk-calls"),
        # p |vs| = 0.11: one every 190 rounds.
        pytest.param(24, range(24), 1000, 10, 20000, "grows", id="rare-kept-rounds"),
        # p |vs| = 0.0186 puts the gate at 1.86, so every size of two or more
        # is skipped by the gate.
        pytest.param(4, range(4), 1000, 10, 60000, "gated", id="gate-skips"),
        # p = 0.1 keeps nearly every round; sizes drawn one a call.
        pytest.param(400, range(400), 1, 1, 3, "grows", id="large-sizes"),
        pytest.param(6, [3], 20, 1, 100, "no-draws", id="one-vertex"),
        pytest.param(6, [], 20, 1, 100, "no-draws", id="no-vertex"),
    ],
)
def test_chunked_key_subroutine_matches_scalar_reference(n, vs, m, d, ell, outcome):
    g = matching(n)
    known = {(0, 1)}
    runs = []
    for fn in (key_subroutine, reference_key_subroutine):
        o = CcOracle(g)
        rng = np.random.default_rng(9)
        found = fn(o, list(vs), m, d, ell, known, rng)
        runs.append((found, o.ledger.total_queries, rng.bit_generator.state))
    (found, queries, state), ((ref_found, gated), ref_queries, ref_state) = runs
    assert (found, queries, state) == (ref_found, ref_queries, ref_state)
    if outcome == "grows":
        assert queries > 0 and found > known
    elif outcome == "gated":
        assert gated > 0 and found == known
    else:
        assert found == known and state == np.random.default_rng(9).bit_generator.state


# -- corollary wrappers ----------------------------------------------------------


def test_whp_validation(rng):
    o = CcOracle(matching(10))
    with pytest.raises(ValueError):
        reconstruct_bounded_degree_whp(o, list(range(10)), 9, 3, 1.5, rng)


def test_whp_on_empty_graph(rng):
    g = Graph(40, [])
    o = CcOracle(g)
    assert reconstruct_bounded_degree_whp(o, list(range(40)), 100, 5, 0.1, rng) == set()


@pytest.mark.slow
def test_whp_statistical(rng):
    g = matching(100)
    trials = 100
    delta = 0.1
    full = 0
    for _ in range(trials):
        o = CcOracle(g)
        found = reconstruct_bounded_degree_whp(o, list(range(100)), 50, 1, delta, rng)
        assert found <= g.edges
        full += found == g.edges
    assert full / trials >= (1 - delta) - 0.05


def test_expected_variant_is_exact(rng):
    for seed in range(5):
        g = gnm_graph(64, 128, np.random.default_rng(seed))
        dmax = max(len(g.adjacency[v]) for v in range(64))
        assert dmax <= 16 or pytest.skip("unexpectedly dense draw")
        o = CcOracle(g)
        got = reconstruct_bounded_degree_expected(o, list(range(64)), 128, 16, rng)
        assert got == set(g.edges)
    single = Graph(10, [(3, 7)])
    o = CcOracle(single)
    assert reconstruct_bounded_degree_expected(o, list(range(10)), 4, 2, rng) == single.edges
    empty = Graph(10, [])
    o = CcOracle(empty)
    assert reconstruct_bounded_degree_expected(o, list(range(10)), 4, 2, rng) == set()


# -- verification -----------------------------------------------------------------


def test_verify_reconstruction(rng):
    g = gnm_graph(20, 30, rng)
    o = CcOracle(g)
    assert verify_reconstruction(o, set(g.edges))
    missing = set(g.edges)
    missing.pop()
    o = CcOracle(g)
    assert not verify_reconstruction(o, missing)
    extra = set(g.edges)
    non_edges = [e for e in ((a, b) for a in range(20) for b in range(a + 1, 20)) if e not in g.edges]
    extra.add(non_edges[0])
    o = CcOracle(g)
    assert not verify_reconstruction(o, extra)


def test_verify_query_cost(rng):
    g = gnm_graph(20, 30, rng)
    o = CcOracle(g)
    verify_reconstruction(o, set(g.edges))
    assert o.ledger.total_queries <= g.m + 2 * 20


# -- full reconstruction ------------------------------------------------------------


def test_adaptive_on_empty_graph(rng):
    g = Graph(32, [])
    o = CcOracle(g)
    rep = adaptive_reconstruct(o, 0, rng)
    assert rep.success and rep.edges == frozenset() and rep.restarts == 0


def test_adaptive_small_instances_exact(rng):
    for seed in range(50):
        g = gnm_graph(256, 512, np.random.default_rng(seed))
        o = CcOracle(g)
        rep = adaptive_reconstruct(o, g.m, np.random.default_rng(seed + 1))
        assert rep.success and rep.edges == g.edges


def test_adaptive_explicit_failure_on_garbage_oracle():
    # Answers inconsistent with any graph: pair queries claim two components,
    # so no candidate can pass verification and the run fails at the cap.
    class _Garbage:
        n = 12
        mode = "adaptive"

        def __init__(self):
            self.ledger = QueryLedger("adaptive", None, False)

        def query(self, s):
            self.ledger.total_queries += 1
            return 2 if len(set(s)) <= 2 else 1

        def probe(self, u, s):
            return formula_probe(self.query, u, s)

        def cross(self, s, u):
            return formula_cross(self.query, s, u)

    cfg = AdaptiveConfig(restart_cap=3)
    rep = adaptive_reconstruct(_Garbage(), 6, np.random.default_rng(0), cfg)
    assert not rep.success
    assert rep.restarts == 3  # never silently wrong: fails explicitly at the cap


@pytest.mark.parametrize(
    "n, m, bound, queries, digest",
    [
        pytest.param(
            46, 1000, 1000, 540880,
            "98f1418537ac99dadeb97fc8b68be1a5a4d1116de7de82932e49966589942eec",
            id="dense",
        ),
        # A loose edge bound leaves low degrees, so pair sampling and forest
        # reconstruction run as well as degree detection.
        pytest.param(
            64, 150, 1000, 616517,
            "c4f5445ba8e964f06be4560458f0bc00bbca467a904d54c47a7ea0b226fad345",
            id="sparse",
        ),
    ],
)
def test_seeded_pipeline_fingerprint(n, m, bound, queries, digest):
    # Pinned from the code that held the pipeline's constants as AdaptiveConfig
    # fields and ForestBudget; reading them as module constants must not move
    # a query, a restart or an edge.
    g = gnm_graph(n, m, np.random.default_rng(5))
    o = CcOracle(g)
    rep = adaptive_reconstruct(o, bound, np.random.default_rng(6), AdaptiveConfig(small_m_cutoff=0))
    assert rep.success and rep.edges == g.edges
    assert o.ledger.total_queries == queries
    assert rep.restarts == 0
    assert hashlib.sha256(repr(sorted(rep.edges)).encode()).hexdigest() == digest


def test_benchmark_size_pipeline_fingerprint():
    # The pipeline-gnm benchmark's size, forced on; pinned from the code that
    # searched adjacency one cross-edge test at a time and drew one sample
    # size per sampling round. Answering both in bulk must not move a query,
    # a restart or an edge.
    g = gnm_graph(192, 1000, np.random.default_rng(5))
    o = CcOracle(g)
    rep = adaptive_reconstruct(o, 1000, np.random.default_rng(6), AdaptiveConfig(small_m_cutoff=0))
    assert rep.success and rep.edges == g.edges
    assert o.ledger.total_queries == 2259845
    assert rep.restarts == 0
    digest = hashlib.sha256(repr(sorted(rep.edges)).encode()).hexdigest()
    assert digest == "01ed508ea9e9d418264de4d8cdd03800fd9b6ef0423343c31d49317c26530b9a"


@pytest.mark.slow
def test_adaptive_full_pipeline_gnm():
    cfg = AdaptiveConfig(small_m_cutoff=0)
    g = gnm_graph(64, 150, np.random.default_rng(11))
    o = CcOracle(g)
    rep = adaptive_reconstruct(o, 1000, np.random.default_rng(12), cfg)
    assert rep.success and rep.edges == g.edges


@pytest.mark.slow
def test_adaptive_full_pipeline_star_residual_path():
    # A star center of degree 255 lands in the residual class; its edges are
    # recovered through the coloring sweep against the leaf class.
    cfg = AdaptiveConfig(small_m_cutoff=0)
    star = star_graph(256, 255)
    o = CcOracle(star)
    rep = adaptive_reconstruct(o, 1000, np.random.default_rng(13), cfg)
    assert rep.success and rep.edges == star.edges


@pytest.mark.slow
def test_level_partition_invariant():
    g = gnm_graph(64, 150, np.random.default_rng(21))
    o = CcOracle(g)
    levels = build_levels(1000)
    part = _partition_levels(o, 1000, levels, np.random.default_rng(22))
    blocks = part.s_classes + [part.residual]
    combined = sorted(v for block in blocks for v in block)
    assert combined == list(range(64))  # disjoint and covering


def test_phases_on_fabricated_three_level_partition(rng):
    # Drive the pair, cross-level, and residual phases directly with a
    # hand-built partition, reaching the multi-level code paths that full runs
    # only hit at infeasible scale.
    s1 = list(range(0, 20))
    s3 = list(range(20, 28))
    residual = [28, 29]
    edges = set()
    edges |= {(i, i + 1) for i in range(0, 10)}  # path inside s1
    edges |= {edge(20 + i, 20 + (i + 1) % 8) for i in range(8)}  # cycle inside s3
    for idx, v in enumerate(s3):  # cross-scale edges s3 -> s1
        edges.add(edge(v, s1[(2 * idx) % 20]))
        edges.add(edge(v, s1[(2 * idx + 7) % 20]))
    edges |= {edge(28, w) for w in range(6)} | {edge(28, 21)}
    edges |= {edge(29, 12), edge(29, 22), edge(28, 29)}
    g = Graph(30, edges)
    m = 100
    part = LevelPartition(
        alphas=(0.0, 0.0, 0.0),  # unused by the phases
        thresholds=(2.0, 3.0, 5.0),
        s_classes=[s1, [], s3],
        residual=residual,
    )
    o = CcOracle(g)
    known = _pair_phase(o, part, m, set(), rng)
    known = _coloring_sweeps(o, part, known)
    assert known == set(g.edges)


def test_reports_never_claim_wrong_graph(monkeypatch):
    # With a starvation-level forest budget the pipeline misses edges; the
    # verification then reports failure, and every edge it did return is true.
    monkeypatch.setattr(primitives, "FOREST_DENSITY_RATE", 1.0)
    g = gnm_graph(64, 150, np.random.default_rng(5))
    cfg = AdaptiveConfig(small_m_cutoff=0, restart_cap=0)
    o = CcOracle(g)
    rep = adaptive_reconstruct(o, 1000, np.random.default_rng(6), cfg)
    assert not rep.success
    assert rep.edges < g.edges
