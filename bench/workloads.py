"""Workload definitions, input generation and output checks of the benchmark.

Nothing here imports ``ccquery`` at module level: ``run.py`` times the first
import of the package as part of set-up, so the package object is passed in
as ``cq`` wherever the library is needed. Inputs come from the standard
library's seeded generator, so the program only ever sees a ``Graph`` built
from the benchmark's own edge list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# The practical profile's failure probability, which fixes the two-round
# degree estimator's sample count; restated here so the round-one check does
# not read it back from the code under test.
TWO_ROUND_EPSILON = 0.05
TRACE_SAMPLE_LINES = 200


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape: which reconstructor runs on which gnm graph."""

    name: str
    algo: str  # "halving", "pipeline" or "two-round"
    n: int
    m: int
    record_trace: bool = False


def _table(*rows: Workload) -> dict[str, Workload]:
    return {w.name: w for w in rows}


# Sizes keep every repetition short enough for several to fit in a run,
# except the pipeline's. The pipeline only runs for m >= 1000 (below that
# adaptive_reconstruct uses the halving search whatever the cutoff), and
# degree detection puts every vertex of degree above about 7 into the
# residual, so pair sampling and the coloring sweeps only get vertices of
# their own once the average degree nears 10: n=192 is the smallest such
# graph, at one repetition per run.
WORKLOADS = _table(
    Workload("halving-gnm", "halving", 512, 2048),
    Workload("pipeline-gnm", "pipeline", 192, 1000),
    Workload("two-round-gnm", "two-round", 128, 512),
    Workload("halving-recorded", "halving", 512, 2048, record_trace=True),
)

# Same algorithms and checks at sizes small enough for the benchmark's tests.
QUICK_WORKLOADS = _table(
    Workload("halving-gnm", "halving", 40, 80),
    Workload("pipeline-gnm", "pipeline", 46, 1000),
    Workload("two-round-gnm", "two-round", 24, 48),
    Workload("halving-recorded", "halving", 40, 80, record_trace=True),
)


def gnm_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """A uniform random simple graph with exactly ``m`` edges, as sorted pairs.

    Each new distinct pair is uniform among the pairs not yet drawn, so the
    edge set is a uniform ``m``-subset of all pairs.
    """
    if m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds the pairs of n={n} vertices")
    rng = random.Random(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return sorted(chosen)


def make_oracle(cq, w: Workload, graph):
    """The oracle each workload's algorithm needs, fresh for every repetition."""
    if w.algo == "two-round":
        return cq.CcOracle(graph, mode="batched", max_rounds=2)
    return cq.CcOracle(graph, record_trace=w.record_trace)


def reconstruct(cq, w: Workload, oracle, seed: int, trace_path: Path):
    """Run the workload's reconstruction (and trace dump) once; returns the report."""
    import numpy as np  # already loaded by ccquery; see the module docstring

    rng = np.random.default_rng(seed)
    if w.algo == "two-round":
        return cq.two_round_reconstruct(oracle, w.m, rng, profile="practical")
    config = cq.AdaptiveConfig(small_m_cutoff=0) if w.algo == "pipeline" else None
    report = cq.adaptive_reconstruct(oracle, w.m, rng, config)
    if w.record_trace:
        oracle.ledger.dump_trace(str(trace_path), verbose=True)
    return report


def information_floor(n: int, m: int) -> int:
    """``ceil(log_{n+1} C(C(n,2), m))``: each answer is one of 0..n."""
    pairs = n * (n - 1) // 2
    log_graphs = math.lgamma(pairs + 1) - math.lgamma(m + 1) - math.lgamma(pairs - m + 1)
    return math.ceil(log_graphs / math.log(n + 1))


def halving_bound(n: int, m: int) -> int:
    """Halving search's own bound plus the exact verification's queries."""
    return 2 * n + 4 * m * math.ceil(math.log2(n)) + m + 2 * n


def two_round_first_batch(n: int) -> int:
    """Round one: one two-query probe per sample, scale and vertex."""
    ell = math.ceil(450.0 * math.log(800.0 / TWO_ROUND_EPSILON**2))
    return 2 * n * ell * math.ceil(math.log2(n - 1))


class ComponentCounter:
    """Component counts of induced subgraphs by a union-find of its own."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            self.adj[u].append(v)
            self.adj[v].append(u)

    def count(self, members: list[int]) -> int:
        parent = {v: v for v in members}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = len(parent)
        for v in parent:
            for w in self.adj[v]:
                if w in parent:
                    rv, rw = find(v), find(w)
                    if rv != rw:
                        parent[rw] = rv
                        comps -= 1
        return comps


def check_trace(path: Path, total: int, counter: ComponentCounter, seed: int) -> list[str]:
    """Recompute the answers on a seeded sample of trace lines."""
    sample = set(random.Random(seed).sample(range(total), min(TRACE_SAMPLE_LINES, total)))
    problems = []
    lines = 0
    with open(path, encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            lines += 1
            if index not in sample:
                continue
            fields = [int(x) for x in line.split()]
            size, answer, members = fields[1], fields[2], fields[3:]
            if size != len(members) or answer != counter.count(members):
                problems.append(f"trace line {index + 1} disagrees: {line.strip()[:80]}")
    if lines != total:
        problems.append(f"trace has {lines} lines for {total} queries")
    return problems


def check_report(w: Workload, edges, report, oracle) -> list[str]:
    """Problems with a successful report, judged from the benchmark's own inputs."""
    problems = []
    if set(report.edges) != set(edges):
        missing = len(set(edges) - set(report.edges))
        extra = len(set(report.edges) - set(edges))
        problems.append(f"recovered edges differ: {missing} missing, {extra} extra")
    queries = report.total_queries
    if queries != oracle.ledger.total_queries:
        problems.append(f"report charges {queries}, ledger {oracle.ledger.total_queries}")
    floor = information_floor(w.n, w.m)
    if queries < floor:
        problems.append(f"{queries} queries is below the information floor {floor}")
    if w.algo == "halving" and queries > halving_bound(w.n, w.m):
        problems.append(f"{queries} queries exceeds the halving bound {halving_bound(w.n, w.m)}")
    if w.algo == "two-round":
        batches = oracle.ledger.batch_sizes
        if len(batches) != 2 or report.rounds != 2:
            problems.append(f"closed {len(batches)} batches, reported {report.rounds} rounds")
        elif batches[0] != two_round_first_batch(w.n):
            problems.append(f"round one charged {batches[0]}, expected {two_round_first_batch(w.n)}")
    return problems
