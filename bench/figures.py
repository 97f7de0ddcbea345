"""Reference figures: each workload's queries against the paper's bounds.

    python3 bench/figures.py

Runs every workload's reconstruction once on seed 1's instance, checks it
as ``run.py`` does, and prints a Markdown table of its query count divided
by the paper's bound shape (``m log n / log m`` adaptive,
``m log2 n + n log2^2 n`` two-round) and by the query count of the halving
search (the default adaptive config plus its exact verification) on the same
instance.
"""

from __future__ import annotations

import math
import sys
import tempfile

import numpy as np

import run
import workloads

SEED = 1


def bound_shape(w: workloads.Workload) -> float:
    log_n = math.log2(w.n)
    if w.algo == "two-round":
        return w.m * log_n + w.n * log_n**2
    return w.m * log_n / math.log2(w.m)


def main() -> int:
    cq = run.import_ccquery()

    print("| workload | n | m | queries | bound shape | queries / shape "
          "| halving queries | queries / halving |")
    print("|---|---|---|---|---|---|---|---|")
    problems = []
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR, prefix=".trace-") as trace_dir:
        for w in workloads.WORKLOADS.values():
            edges = workloads.gnm_edges(w.n, w.m, SEED)
            reps = run.Repetitions(cq, w, edges, SEED, trace_dir)
            reps.run()
            problems += [f"{w.name}: {p}" for p in reps.problems]
            if reps.failed:
                continue
            halving = cq.adaptive_reconstruct(
                cq.CcOracle(cq.Graph(w.n, edges)),
                w.m,
                np.random.default_rng(SEED),
                cq.AdaptiveConfig(small_m_cutoff=w.m),
            ).total_queries
            shape = bound_shape(w)
            print(f"| {w.name} | {w.n} | {w.m} | {reps.queries} | {shape:.0f} "
                  f"| {reps.queries / shape:.2f} | {halving} | {reps.queries / halving:.2f} |")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
