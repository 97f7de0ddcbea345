"""Degree estimation, group-testing recovery, and the two-batch contract."""

import math

import numpy as np
import pytest

from ccquery import (
    BatchContractError,
    CcOracle,
    Graph,
    decode_neighborhood,
    degree_repetitions,
    estimate_degree,
    gnm_graph,
    group_test_query_count,
    plan_degree,
    plan_neighborhood,
    resolve_profile,
    star_graph,
    submit_degree_plan,
    submit_neighborhood_plan,
    two_round_reconstruct,
)
from conftest import all_graphs, brute_has_neighbor, random_graph


def test_profiles():
    assert resolve_profile("paper", 10) == (0.01, 0.01)
    assert resolve_profile("practical", 10) == (0.05, 0.05)
    with pytest.raises(ValueError):
        resolve_profile("bogus", 10)


def test_degree_repetition_formula():
    assert degree_repetitions(0.01) == 7153


def test_degree_plan_shape(rng):
    plan = plan_degree(3, 17, 0.2, rng)
    assert plan.p_max == math.ceil(math.log2(16)) == 4
    assert plan.query_count == 2 * plan.ell * 4
    for p, rows in enumerate(plan.draws, start=1):
        assert rows.shape == (plan.ell, 2**p)
        assert rows.min() >= 0 and rows.max() < 17
        assert not (rows == 3).any()  # never samples the probed vertex


def test_estimator_star_center_fallback(rng):
    # Every sample hits a neighbor of the center, so no scale qualifies and
    # the estimate falls back to 2(n-1), inside [deg, 4 deg] for deg = n-1.
    star = star_graph(32, 31)
    o = CcOracle(star, mode="batched")
    est = estimate_degree(o, 0, 0.05, rng)
    assert est == 2 * 31
    assert 31 <= est <= 4 * 31


def test_estimator_isolated_vertex(rng):
    g = Graph(33, [(1, 2)])
    o = CcOracle(g, mode="batched")
    est = estimate_degree(o, 0, 0.05, rng)
    assert est <= 2  # documented degree-0 fallback


def test_estimator_query_accounting(rng):
    g = gnm_graph(20, 30, rng)
    o = CcOracle(g, mode="batched")
    o.open_batch()
    plan = plan_degree(5, 20, 0.05, rng)
    submit_degree_plan(o, plan)
    o.close_batch()
    assert o.ledger.total_queries == plan.query_count
    assert o.ledger.batch_sizes == [plan.query_count]


@pytest.mark.slow
def test_estimator_statistical_range(rng):
    # Practical profile, degree 8 out of n=256: the estimate lands within a
    # factor of four at well above the nominal rate.
    g = star_graph(256, 8)
    trials = 200
    hits = 0
    for _ in range(trials):
        o = CcOracle(g, mode="batched")
        est = estimate_degree(o, 0, 0.05, rng)
        hits += 8 <= est <= 32
    assert hits / trials >= 1 - 0.05 - 0.05


@pytest.mark.slow
def test_estimator_paper_profile_frequency(rng):
    # Paper-profile failure probability at n=64 is 1/n^2; over 1000 runs the
    # empirical out-of-range frequency must stay within twice that, which at
    # this scale means no failures at all.
    n = 64
    epsilon = 1.0 / n**2
    out_of_range = 0
    runs_per_degree = 250
    for deg in (1, 4, 16, 63):
        g = star_graph(n, deg)
        for _ in range(runs_per_degree):
            o = CcOracle(g, mode="batched")
            est = estimate_degree(o, 0, epsilon, rng)
            out_of_range += not deg <= est <= 4 * deg
    assert out_of_range / (4 * runs_per_degree) <= 2 * epsilon


def test_or_query_requires_open_batch(rng):
    g = gnm_graph(10, 12, rng)
    o = CcOracle(g, mode="batched")
    with pytest.raises(BatchContractError):
        o.submit_or_probe(0, [1, 2])


def test_or_query_matches_has_neighbor(rng):
    for _ in range(20):
        g = random_graph(rng, 9)
        o = CcOracle(g, mode="batched")
        o.open_batch()
        cases = []
        for _ in range(12):
            u = int(rng.integers(9))
            size = int(rng.integers(0, 8))
            s = [v for v in rng.choice(9, size=size, replace=False).tolist() if v != u]
            cases.append((u, s, o.submit_or_probe(u, s)))
        answers = o.close_batch()
        for u, s, idx in cases:
            assert answers[idx] == brute_has_neighbor(g, u, s)


def test_or_query_empty_set_is_free(rng):
    g = gnm_graph(6, 5, rng)
    o = CcOracle(g, mode="batched")
    o.open_batch()
    idx = o.submit_or_probe(0, [])
    answers = o.close_batch()
    assert answers[idx] is False
    assert o.ledger.total_queries == 0


def test_group_test_count_formula():
    assert group_test_query_count(4, 128, 0.01, 8.0) == math.ceil(
        8.0 * 4 * math.log(128 / 0.01)
    )


def test_group_test_no_false_negatives_exhaustive():
    # Survivors always include the true neighborhood, whatever the answers.
    rng = np.random.default_rng(5)
    for g in all_graphs(5):
        o = CcOracle(g, mode="batched")
        u = 2
        plan = plan_neighborhood(u, 5, d=4, alpha=0.2, rng=rng)
        o.open_batch()
        submit_neighborhood_plan(o, plan)
        got = decode_neighborhood(plan, o.close_batch())
        assert got is not None
        assert set(got) >= set(g.adjacency[u])


def test_group_test_fail_certain_when_degree_exceeds_bound(rng):
    g = star_graph(16, 3)  # deg(0) = 3
    for _ in range(25):
        o = CcOracle(g, mode="batched")
        plan = plan_neighborhood(0, 16, d=1, alpha=0.1, rng=rng)
        o.open_batch()
        submit_neighborhood_plan(o, plan)
        assert decode_neighborhood(plan, o.close_batch()) is None


def test_group_test_isolated_vertex(rng):
    g = Graph(24, [(1, 2), (3, 4)])
    o = CcOracle(g, mode="batched")
    plan = plan_neighborhood(0, 24, d=2, alpha=0.05, rng=rng)
    o.open_batch()
    submit_neighborhood_plan(o, plan)
    assert decode_neighborhood(plan, o.close_batch()) == []


@pytest.mark.slow
def test_group_test_statistical_recovery(rng):
    g = star_graph(128, 4)
    trials = 200
    exact = 0
    for _ in range(trials):
        o = CcOracle(g, mode="batched")
        plan = plan_neighborhood(0, 128, d=8, alpha=0.01, rng=rng)
        o.open_batch()
        submit_neighborhood_plan(o, plan)
        got = decode_neighborhood(plan, o.close_batch())
        exact += got == [1, 2, 3, 4]
    assert exact / trials >= 0.98


def test_two_round_on_empty_graph(rng):
    g = Graph(16, [])
    o = CcOracle(g, mode="batched", max_rounds=2)
    rep = two_round_reconstruct(o, 0, rng)
    assert rep.success and rep.edges == frozenset() and rep.rounds == 2


def test_two_round_requires_batched_oracle(rng):
    g = gnm_graph(8, 6, rng)
    with pytest.raises(BatchContractError):
        two_round_reconstruct(CcOracle(g), 6, rng)


def test_two_round_gate_failure_still_two_rounds(rng):
    # One true edge but a bound of one: isolated-vertex estimates inflate the
    # degree sum past 8m, so the run fails explicitly after round one.
    g = Graph(24, [(0, 1)])
    o = CcOracle(g, mode="batched", max_rounds=2)
    stats = {}
    rep = two_round_reconstruct(o, 1, rng, stats_out=stats)
    assert not rep.success
    assert rep.rounds == 2
    assert stats["gate_passed"] is False


def test_two_round_small_gnm_practical(rng):
    for seed in range(3):
        g = gnm_graph(48, 72, np.random.default_rng(seed))
        o = CcOracle(g, mode="batched", max_rounds=2)
        stats = {}
        rep = two_round_reconstruct(o, g.m, np.random.default_rng(seed + 50), stats_out=stats)
        assert rep.rounds == 2
        assert rep.success and rep.edges == g.edges
        assert stats["gate_passed"]
        # round-1 accounting is exact: every plan row costs two queries
        n = 48
        ell = degree_repetitions(0.05)
        p_max = math.ceil(math.log2(n - 1))
        assert o.ledger.batch_sizes[0] == n * 2 * ell * p_max


def test_two_round_paper_profile_smoke(rng):
    g = gnm_graph(24, 20, rng)
    o = CcOracle(g, mode="batched", max_rounds=2)
    rep = two_round_reconstruct(o, g.m, rng, profile="paper")
    assert rep.rounds == 2
    assert rep.success and rep.edges == g.edges


def test_two_round_non_adaptivity_ledger(rng):
    g = gnm_graph(32, 40, rng)
    o = CcOracle(g, mode="batched", max_rounds=2)
    rep = two_round_reconstruct(o, g.m, rng)
    assert len(o.ledger.batch_sizes) == 2
    assert sum(o.ledger.batch_sizes) == o.ledger.total_queries
    with pytest.raises(BatchContractError):
        o.open_batch()  # the round budget is spent
