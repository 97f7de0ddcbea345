"""Degree estimation, group-testing recovery, and the two-batch contract."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccquery import (
    BatchContractError,
    CcOracle,
    DegreePlan,
    ExperimentConfig,
    Graph,
    GroupTestPlan,
    decode_degree,
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
from ccquery import two_round
from ccquery.lab import reports_to_csv_text, run_experiment
from ccquery.two_round import DEGREE_THRESHOLD
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
    assert answers.dtype == bool and answers.tolist()[idx] is False
    assert o.ledger.total_queries == 0


def test_group_test_count_formula(monkeypatch):
    assert group_test_query_count(4, 128, 0.01) == math.ceil(
        3.0 * math.e * 4 * math.log(128 / 0.01)
    )
    monkeypatch.setattr(two_round, "GROUP_TEST_RATE", 8.0)  # read at each call
    assert group_test_query_count(4, 128, 0.01) == math.ceil(8.0 * 4 * math.log(128 / 0.01))


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
    # 120 edges against a claimed bound of 5: the degree estimates sum to at
    # least 240, past the gate's 8m + 2n = 88, so the run fails explicitly
    # after round one and still closes two rounds.
    g = gnm_graph(24, 120, rng)
    o = CcOracle(g, mode="batched", max_rounds=2)
    stats = {}
    rep = two_round_reconstruct(o, 5, rng, stats_out=stats)
    assert not rep.success
    assert rep.rounds == 2
    assert stats["gate_passed"] is False
    assert sum(stats["degree_estimates"]) > 8 * 5 + 2 * 24


def test_two_round_sparse_graph_with_isolated_vertices(rng):
    # Each isolated vertex is estimated at about 2. With 34 to 38 of them the
    # estimates sum past 8m, so the gate must allow 2 for each vertex.
    for seed in range(2):
        g = gnm_graph(64, 16, np.random.default_rng(seed))
        assert sum(1 for v in range(64) if not g.adjacency[v]) > 16
        o = CcOracle(g, mode="batched", max_rounds=2)
        stats = {}
        rep = two_round_reconstruct(o, g.m, np.random.default_rng(seed + 100), stats_out=stats)
        assert sum(stats["degree_estimates"]) > 8 * g.m
        assert stats["gate_passed"]
        assert rep.success and rep.edges == g.edges and rep.rounds == 2


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


def reference_decode_degree(plan, answers):
    """The per-answer degree decoder the sliced one replaced."""
    p_star = 0
    for p_idx, sl in enumerate(plan.answer_slices):
        hit_count = sum(1 for i in sl if answers[i])
        z = 1.0 - hit_count / plan.ell
        if z > DEGREE_THRESHOLD:
            p_star = p_idx + 1
    return 2.0 * (plan.n - 1) / 2.0**p_star


def reference_decode_neighborhood(plan, answers):
    """The per-answer group-test decoder the sliced one replaced."""
    hits = np.fromiter((bool(answers[i]) for i in plan.answer_slice), dtype=bool)
    excluded = plan.membership[~hits].any(axis=0)
    survivors = ~excluded
    survivors[plan.u] = False
    candidates = np.flatnonzero(survivors)
    if candidates.size > plan.d:
        return None
    return candidates.tolist()


@st.composite
def batch_answers(draw, min_size):
    """A batch answer array as close_batch returns it, bool or int64."""
    size = draw(st.integers(min_size, min_size + 12))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    values = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
    return np.array(values, dtype=np.int64)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sliced_decoders_match_per_answer_reference(data):
    n = data.draw(st.integers(2, 12))
    u = data.draw(st.integers(0, n - 1))
    ell = data.draw(st.integers(1, 8))
    p_max = data.draw(st.integers(0, 4))
    answers = data.draw(batch_answers(ell * p_max))
    offset = data.draw(st.integers(0, answers.size - ell * p_max))
    slices = [range(offset + i * ell, offset + (i + 1) * ell) for i in range(p_max)]
    plan = DegreePlan(u=u, n=n, ell=ell, p_max=p_max, draws=None, answer_slices=slices)
    assert decode_degree(plan, answers) == reference_decode_degree(plan, answers)

    t = data.draw(st.integers(0, 8))
    answers = data.draw(batch_answers(t))
    start = data.draw(st.integers(0, answers.size - t))
    cells = data.draw(st.lists(st.booleans(), min_size=t * n, max_size=t * n))
    membership = np.array(cells, dtype=bool).reshape(t, n)
    membership[:, u] = False
    d = data.draw(st.floats(1.0, float(n)))
    plan = GroupTestPlan(u=u, n=n, d=d, membership=membership)
    plan.answer_slice = range(start, start + t)
    assert decode_neighborhood(plan, answers) == reference_decode_neighborhood(plan, answers)


def test_seeded_two_round_fingerprint():
    # Pinned from the code that kept batch answers in a Python list and
    # decoded them one answer at a time; the answer array must not move a
    # query, an edge or a CSV byte.
    g = gnm_graph(24, 40, np.random.default_rng(3))
    o = CcOracle(g, mode="batched", max_rounds=2)
    rep = two_round_reconstruct(o, g.m, np.random.default_rng(4))
    assert rep.success and rep.edges == g.edges
    assert o.ledger.total_queries == 1383520
    assert o.ledger.batch_sizes == [1369200, 14320]
    digest = hashlib.sha256(repr(sorted(rep.edges)).encode()).hexdigest()
    assert digest == "0cc60ca0386f511a81053ed3ec45001a8f6fb7149c14bf6df5135bd2326b16c2"
    cfg = ExperimentConfig(algorithm="two-round", family="gnm", n=24, m=48, trials=2, seed=1)
    assert reports_to_csv_text(run_experiment(cfg)) == (
        "algo,family,n,m,trial,seed,queries,rounds,success,restarts,wall_ms\n"
        "two-round,gnm,24,48,0,1,1384712,2,1,0,0.000\n"
        "two-round,gnm,24,48,1,1,1385224,2,1,0,0.000\n"
    )


def test_two_round_memory_per_round_one_probe():
    # A staged probe answer costs one byte. Measured peaks at this size: about
    # 3.9 bytes per round-one probe with the answer array (the answers staged
    # so far, one vertex's draws and the intp copy np.take makes of its
    # largest draw matrix), 9.9 with the 8-byte slots of a Python list.
    g = gnm_graph(64, 128, np.random.default_rng(1))
    o = CcOracle(g, mode="batched", max_rounds=2)
    tracemalloc.start()
    try:
        rep = two_round_reconstruct(o, g.m, np.random.default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.success
    round_one_probes = o.ledger.batch_sizes[0] // 2
    assert peak / round_one_probes < 6.0
