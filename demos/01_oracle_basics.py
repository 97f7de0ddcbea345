"""Tour of the hidden-graph oracle: queries, accounting, budgets, traces.

Run with: python demos/01_oracle_basics.py
"""

from ccquery import CcOracle, InstanceSpec, QueryBudgetExceeded, generate

hidden = generate(InstanceSpec("gnm", n=12, m=16, seed=7))
print(f"hidden instance: {hidden}")

# Every algorithm sees the graph only through component-count queries.
oracle = CcOracle(hidden, record_trace=True)
print("cc of all vertices:", oracle.query(range(12)))
print("cc of {0,1,2}:     ", oracle.query([0, 1, 2]))
print("queries so far:    ", oracle.ledger.total_queries)

# A budget is a recoverable halting signal, not a crash.
tight = CcOracle(hidden, budget=3)
try:
    for _ in range(5):
        tight.query([0, 1])
except QueryBudgetExceeded as exc:
    print("budget signal:", exc)

# Batched mode withholds answers until the round closes.
batched = CcOracle(hidden, mode="batched", max_rounds=2)
batched.open_batch()
first = batched.submit([0, 1, 2, 3])
second = batched.submit_or_probe(5, [0, 1, 2])
answers = batched.close_batch()  # one int64 array, since it holds a count
print("batched answers:", answers[first], bool(answers[second]))
print("rounds used:", batched.ledger.num_rounds)

# Traces replay: each recorded answer matches a fresh evaluation.
trace = oracle.ledger.trace
print(f"trace holds {len(trace)} entries, e.g. {trace[0]}")
