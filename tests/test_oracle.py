"""Oracle accounting, round contracts, budget signals, and answer fidelity."""

import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccquery import (
    BatchContractError,
    CcOracle,
    Graph,
    QueryBudgetExceeded,
    adaptive_reconstruct,
    binary_search_reconstruct,
    cc_count,
    find_adjacent_to_set,
    gnm_graph,
    has_cross_edge,
    has_neighbor,
    reconstruct_forest,
)
from conftest import formula_cross, formula_probe, random_graph


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_query_counts_and_answers():
    o = CcOracle(triangle())
    assert o.query([0, 1, 2]) == 1
    assert o.ledger.total_queries == 1
    assert o.query([0]) == 1
    assert o.query([]) == 0
    assert o.ledger.total_queries == 3
    assert o.ledger.num_rounds == 3  # adaptive: one round per query


def test_budget_error_at_violating_query():
    o = CcOracle(triangle(), budget=5)
    for _ in range(5):
        o.query([0, 1])
    with pytest.raises(QueryBudgetExceeded):
        o.query([0, 1])
    assert o.ledger.total_queries == 5  # the violating query is not counted


def test_batched_contract():
    o = CcOracle(triangle(), mode="batched", max_rounds=2)
    with pytest.raises(BatchContractError):
        o.query([0, 1])  # answers must wait for close_batch
    with pytest.raises(BatchContractError):
        o.submit([0, 1])  # no batch open
    o.open_batch()
    with pytest.raises(BatchContractError):
        o.open_batch()
    i = o.submit([0, 1, 2])
    j = o.submit([0, 2])
    answers = o.close_batch()
    assert answers[i] == 1 and answers[j] == 1
    assert o.ledger.num_rounds == 1
    o.open_batch()
    assert o.close_batch() == []  # empty batch still counts as a round
    assert o.ledger.num_rounds == 2
    with pytest.raises(BatchContractError):
        o.open_batch()  # round budget exhausted


def test_single_round_mode_records_one_round():
    # A non-adaptive run is batched mode with a round budget of one.
    o = CcOracle(triangle(), mode="batched", max_rounds=1)
    o.open_batch()
    for s in ([0, 1], [1, 2], [0, 1, 2]):
        o.submit(s)
    o.close_batch()
    assert o.ledger.num_rounds == 1
    with pytest.raises(BatchContractError):
        o.open_batch()


def test_out_of_range_and_duplicate_handling():
    o = CcOracle(triangle())
    with pytest.raises(ValueError):
        o.query([0, 7])
    assert o.query([0, 0, 1]) == 1  # duplicates collapse


def test_replay_trace_reproduces_answers(rng):
    hidden = gnm_graph(12, 16, rng)
    o = CcOracle(hidden, record_trace=True)
    binary_search_reconstruct(o, list(range(12)), set())
    assert o.ledger.trace, "trace should be populated"
    for _, members, answer in o.ledger.trace:
        assert cc_count(hidden, members) == answer


def test_or_probe_matches_predicate_in_both_modes(rng):
    hidden = random_graph(rng, 9)
    for record in (False, True):
        o = CcOracle(hidden, mode="batched", record_trace=record)
        o.open_batch()
        cases = []
        for _ in range(30):
            u = int(rng.integers(9))
            size = int(rng.integers(0, 9))
            s = [v for v in rng.choice(9, size=size, replace=False).tolist() if v != u]
            cases.append((u, s, o.submit_or_probe(u, s)))
        answers = o.close_batch()
        for u, s, idx in cases:
            expect = any(w in hidden.adjacency[u] for w in s)
            assert answers[idx] == expect


def test_or_probe_accounting():
    o = CcOracle(triangle(), mode="batched")
    o.open_batch()
    o.submit_or_probe(0, [1, 2])
    o.submit_or_probe(0, [])  # empty set costs nothing
    o.close_batch()
    assert o.ledger.total_queries == 2
    assert o.ledger.batch_sizes == [2]
    o.open_batch()
    with pytest.raises(ValueError):
        o.submit_or_probe(0, [0, 1])  # probe vertex inside the set


def test_bulk_probes_match_single_probes(rng):
    hidden = random_graph(rng, 10)
    o = CcOracle(hidden, mode="batched")
    o.open_batch()
    rows = rng.integers(0, 9, size=(40, 5), dtype=np.int32)
    rows += rows >= 3
    sl = o.submit_or_probes(3, rows)
    singles = [o.submit_or_probe(3, sorted(set(row.tolist()))) for row in rows]
    answers = o.close_batch()
    assert [answers[i] for i in sl] == [answers[i] for i in singles]
    # boolean membership form agrees as well
    o.open_batch()
    member = np.zeros((40, 10), dtype=bool)
    for r, row in enumerate(rows):
        member[r, row] = True
    sl2 = o.submit_or_probes(3, member)
    answers2 = o.close_batch()
    assert [answers2[i] for i in sl2] == [answers[i] for i in sl]


def test_bulk_probe_empty_rows_are_free():
    o = CcOracle(triangle(), mode="batched")
    o.open_batch()
    member = np.zeros((3, 3), dtype=bool)
    member[0, 1] = True  # only the first row queries anything
    sl = o.submit_or_probes(0, member)
    answers = o.close_batch()
    assert o.ledger.total_queries == 2
    assert [answers[i] for i in sl] == [True, False, False]


def test_bulk_probe_trace_mode_consistent(rng):
    hidden = random_graph(rng, 8)
    fast = CcOracle(hidden, mode="batched")
    traced = CcOracle(hidden, mode="batched", record_trace=True)
    rows = rng.integers(0, 7, size=(25, 4), dtype=np.int32)
    rows += rows >= 2
    for o in (fast, traced):
        o.open_batch()
        o.submit_or_probes(2, rows)
    assert fast.close_batch() == traced.close_batch()
    assert fast.ledger.total_queries == traced.ledger.total_queries == 50
    for _, members, answer in traced.ledger.trace:
        assert cc_count(hidden, members) == answer


def test_trace_dump_format(tmp_path):
    o = CcOracle(triangle(), record_trace=True)
    o.query([0, 1, 2])
    o.query([0, 2])
    path = tmp_path / "trace.txt"
    o.ledger.dump_trace(str(path))
    assert path.read_text() == "0 3 1\n1 2 1\n"
    o.ledger.dump_trace(str(path), verbose=True)
    assert path.read_text() == "0 3 1 0 1 2\n1 2 1 0 2\n"


def test_recorded_trace_is_pinned(tmp_path):
    # Traced predicates write one record per formula query, in formula order
    # and with per-query round indices; the digest pins that output.
    hidden = gnm_graph(24, 40, np.random.default_rng(3))
    o = CcOracle(hidden, record_trace=True)
    assert adaptive_reconstruct(o, 40, np.random.default_rng(4)).total_queries == 648
    assert find_adjacent_to_set(o, [0, 5, 9]) == [0, 4, 8, 9, 10, 13, 14, 15, 16, 17, 20, 21]
    assert o.ledger.total_queries == 780
    path = tmp_path / "trace.txt"
    o.ledger.dump_trace(str(path), verbose=True)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "bffd6cf7bd927dc9fd8c3bfc52e5245f40087b905497ab8c8f725e017f6e47c9"


def test_trace_dump_requires_recording():
    o = CcOracle(triangle())
    o.query([0])
    with pytest.raises(ValueError):
        o.ledger.dump_trace("/tmp/nope.txt")


class _GarbageOracle:
    """Mimics the oracle surface but answers nonsense; nothing can leak."""

    def __init__(self, n: int):
        self.n = n
        from ccquery.oracle import QueryLedger

        self.ledger = QueryLedger("adaptive", None, False)
        self.mode = "adaptive"

    def query(self, s):
        self.ledger.total_queries += 1
        return 1

    def probe(self, u, s):
        return formula_probe(self.query, u, s)

    def cross(self, s, u):
        return formula_cross(self.query, s, u)


def test_reconstruction_fails_on_garbage_oracle(rng):
    hidden = gnm_graph(16, 20, rng)
    got = binary_search_reconstruct(_GarbageOracle(16), list(range(16)), set())
    assert got != hidden.edges  # the only path to the graph is honest queries


# -- traced and untraced predicates ----------------------------------------------


@st.composite
def predicate_cases(draw):
    """A small graph, a sequence of probes and cross-edge tests, and a budget."""
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    vertex_lists = st.lists(st.integers(0, n - 1), max_size=n + 2)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("probe"), st.integers(0, n - 1), vertex_lists),
                st.tuples(st.just("cross"), vertex_lists, vertex_lists),
            ),
            max_size=8,
        )
    )
    budget = draw(st.none() | st.integers(0, 30))
    return Graph(n, edges), ops, budget


def _outcome(call):
    try:
        return call()
    except (QueryBudgetExceeded, ValueError) as exc:
        return type(exc).__name__


def _counted_formula(formula, g, *args):
    """The reference formula's answer and the number of queries it asks."""
    asked = []

    def query(s):
        asked.append(s)
        return cc_count(g, s)

    return formula(query, *args), len(asked)


@given(predicate_cases())
@settings(max_examples=300, deadline=None)
def test_traced_and_untraced_predicates_agree(case):
    g, ops, budget = case
    runs = {}
    for record in (False, True):
        o = CcOracle(g, budget=budget, record_trace=record)
        steps = []
        for op, a, b in ops:
            fn = has_neighbor if op == "probe" else has_cross_edge
            steps.append((_outcome(lambda: fn(o, a, b)), o.ledger.total_queries))
        batched = CcOracle(g, mode="batched", budget=budget, record_trace=record)
        batched.open_batch()
        staged = [
            (_outcome(lambda: batched.submit_or_probe(a, b)), batched.ledger.total_queries)
            for op, a, b in ops
            if op == "probe"
        ]
        runs[record] = (steps, staged, batched.close_batch())
        for traced in (o.ledger.trace, batched.ledger.trace):
            for _, members, answer in traced or ():
                assert answer == cc_count(g, members)
    assert runs[False] == runs[True]
    # Answered predicates match the cc formulas in value and in queries asked.
    steps = runs[False][0]
    before = 0
    for (op, a, b), (outcome, total) in zip(ops, steps):
        if isinstance(outcome, bool):
            formula = formula_probe if op == "probe" else formula_cross
            assert _counted_formula(formula, g, a, b) == (outcome, total - before)
        else:
            assert total == before  # a refused predicate charges nothing
        before = total


def test_traced_and_untraced_halving_reconstruction_agree():
    hidden = gnm_graph(48, 120, np.random.default_rng(5))
    reports = [
        adaptive_reconstruct(CcOracle(hidden, record_trace=record), 120, np.random.default_rng(6))
        for record in (False, True)
    ]
    assert reports[0] == reports[1]
    assert reports[0].success and reports[0].edges == hidden.edges


def test_finished_searches_free_the_oracle_without_the_cycle_collector(rng):
    hidden = gnm_graph(40, 80, rng)
    enabled = gc.isenabled()
    gc.disable()
    try:
        o = CcOracle(hidden, record_trace=True)
        assert adaptive_reconstruct(o, 80, np.random.default_rng(1)).success
        assert find_adjacent_to_set(o, [0, 1, 2], max_queries=3) is None  # halted search
        reconstruct_forest(o, list(range(0, 40, 4)), set())
        ref = weakref.ref(o)
        del o
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
