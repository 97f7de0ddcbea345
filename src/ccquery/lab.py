"""Experiment harness: batch trials, CSV emission, lower-bound checks, CLI.

Each trial owns its instance, oracle, and randomness stream, all derived from
the experiment seed by deterministic stream splitting, so a configuration maps
to byte-identical CSV output (timing is opt-in for exactly that reason).
Individual trial failure is data, not an error.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .adaptive import AdaptiveConfig, adaptive_reconstruct
from .graph_core import (
    Edge,
    Graph,
    InstanceSpec,
    cc_count,
    clique_minus_edge_shape,
    edge,
    generate,
)
from .oracle import CcOracle, write_trace_lines
from .primitives import binary_search_reconstruct
from .reporting import ReconstructionReport
from .two_round import PROFILES, two_round_reconstruct

ALGORITHMS = ("adaptive", "two-round", "binary-search", "pairwise")

CSV_HEADER = "algo,family,n,m,trial,seed,queries,rounds,success,restarts,wall_ms"

_FAMILY_ALIASES = {"two-path": "two-path-pair"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an algorithm against a family of seeded instances."""

    algorithm: str
    family: str
    n: int
    m: int
    trials: int = 1
    seed: int = 0
    profile: str = "practical"
    jobs: int = 1
    csv_path: str | None = None
    trace_path: str | None = None
    measure_time: bool = False
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    def normalized(self) -> "ExperimentConfig":
        fam = _FAMILY_ALIASES.get(self.family, self.family)
        return replace(self, family=fam) if fam != self.family else self

    def validate(self) -> None:
        cfg = self.normalized()
        if cfg.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
        if cfg.profile not in PROFILES:
            raise ValueError(f"unknown profile {cfg.profile!r}")
        if cfg.trials < 1:
            raise ValueError("trials must be at least 1")
        if cfg.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if cfg.trace_path is not None and cfg.jobs > 1:
            raise ValueError("trace capture requires jobs=1")
        InstanceSpec(cfg.family, cfg.n, cfg.m, seed=0).validate()


def _instance_for_trial(cfg: ExperimentConfig, instance_seed: int) -> Graph:
    spec = InstanceSpec(cfg.family, cfg.n, cfg.m, seed=instance_seed)
    built = generate(spec)
    if isinstance(built, tuple):
        return built[1]  # the gadget variant carrying the distinguished edge
    return built


def _run_trial(cfg: ExperimentConfig, trial: int) -> tuple[ReconstructionReport, list | None]:
    trial_ss = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)[trial]
    inst_ss, algo_ss = trial_ss.spawn(2)
    hidden = _instance_for_trial(cfg, int(inst_ss.generate_state(1)[0]))
    rng = np.random.default_rng(algo_ss)
    mode = "batched" if cfg.algorithm == "two-round" else "adaptive"
    oracle = CcOracle(
        hidden,
        mode=mode,
        max_rounds=2 if mode == "batched" else None,
        record_trace=cfg.trace_path is not None,
    )
    start = time.perf_counter() if cfg.measure_time else 0.0

    if cfg.algorithm == "binary-search":
        edges = binary_search_reconstruct(oracle, list(range(hidden.n)), set())
        report = ReconstructionReport(algorithm="binary-search", success=True, edges=frozenset(edges))
    elif cfg.algorithm == "pairwise":
        edges = {
            (u, v)
            for u in range(hidden.n)
            for v in range(u + 1, hidden.n)
            if oracle.query([u, v]) == 1
        }
        report = ReconstructionReport(algorithm="pairwise", success=True, edges=frozenset(edges))
    elif cfg.algorithm == "adaptive":
        report = adaptive_reconstruct(oracle, hidden.m, rng, cfg.adaptive)
    else:
        report = two_round_reconstruct(oracle, hidden.m, rng, cfg.profile)

    report.success = report.success and report.edges == hidden.edges
    report.total_queries = oracle.ledger.total_queries
    report.rounds = oracle.ledger.num_rounds
    report.family = cfg.family
    report.n = cfg.n
    report.m = hidden.m
    report.trial = trial
    report.seed = cfg.seed
    if cfg.measure_time:
        report.wall_ms = (time.perf_counter() - start) * 1000.0
    return report, oracle.ledger.trace


def run_experiment(cfg: ExperimentConfig) -> list[ReconstructionReport]:
    """Run all trials of the experiment; one report per trial, in trial order."""
    cfg = cfg.normalized()
    cfg.validate()
    reports: list[ReconstructionReport] = []
    traces: list[list | None] = []
    if cfg.jobs == 1:
        outcomes = (_run_trial(cfg, i) for i in range(cfg.trials))
        for rep, tr in outcomes:
            reports.append(rep)
            traces.append(tr)
    else:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            for rep, tr in pool.map(_run_trial, [cfg] * cfg.trials, range(cfg.trials)):
                reports.append(rep)
                traces.append(tr)
    if cfg.trace_path is not None:
        _write_traces(cfg.trace_path, traces)
    if cfg.csv_path is not None:
        emit_csv(reports, cfg.csv_path)
    return reports


def _write_traces(path: str, traces: list[list | None]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for trial, trace in enumerate(traces):
            fh.write(f"# trial {trial}\n")
            write_trace_lines(fh, trace or ())


def reports_to_csv_text(reports: list[ReconstructionReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.algorithm},{r.family},{r.n},{r.m},{r.trial},{r.seed},"
            f"{r.total_queries},{r.rounds},{int(r.success)},{r.restarts},{r.wall_ms:.3f}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(reports: list[ReconstructionReport], path: str) -> None:
    """Write the fixed-schema CSV; header plus one row per trial."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(reports_to_csv_text(reports))


def parse_csv_text(text: str) -> list[dict]:
    """Parse CSV produced by :func:`emit_csv` back into typed row dicts."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    cols = CSV_HEADER.split(",")
    out = []
    for line in lines[1:]:
        raw = line.split(",")
        row = dict(zip(cols, raw))
        for key in ("n", "m", "trial", "seed", "queries", "rounds", "restarts"):
            row[key] = int(row[key])
        row["success"] = bool(int(row["success"]))
        row["wall_ms"] = float(row["wall_ms"])
        out.append(row)
    return out


# -- lower-bound harnesses --------------------------------------------------


def distinguishing_pairs(queries: list, n: int) -> int:
    """How many gadget pairs the query family can tell apart.

    For each vertex pair the two candidate hidden graphs differ only in the
    edge between the pair, and any query set with a third vertex induces a
    connected subgraph in both, so a family distinguishes exactly the pairs it
    queries bare. The count is therefore at most ``len(queries)``.
    """
    if n < 3:
        raise ValueError("gadget construction needs n >= 3")
    pairs = set()
    for q in queries:
        members = set(int(v) for v in q)
        if any(not 0 <= v < n for v in members):
            raise ValueError("query vertex out of range")
        if len(members) == 2:
            a, b = sorted(members)
            pairs.add((a, b))
    return len(pairs)


def _lex_pairs(k: int) -> list[Edge]:
    return [(a, b) for a in range(k) for b in range(a + 1, k)]


class AdaptiveLbAdapter:
    """Answer component counts for the near-clique family from a Boolean array.

    The array encodes which clique slot holds the single missing edge (its
    unique zero). Queries that meet the clique in anything but exactly two
    vertices are answered without consulting the array, since the missing edge
    cannot change the count there; only bare clique pairs cost one probe.
    ``probes`` exposes the running probe count.
    """

    def __init__(self, array: list[int], n: int, m: int):
        n0, m_dum = clique_minus_edge_shape(m)
        if len(array) != n0 * (n0 - 1) // 2:
            raise ValueError(
                f"array length {len(array)} != {n0 * (n0 - 1) // 2} clique slots for m={m}"
            )
        if sum(1 for x in array if not x) != 1:
            raise ValueError("array must contain exactly one zero")
        if n < n0 + (1 if m_dum > 0 else 0):
            raise ValueError(f"need n >= {n0 + (1 if m_dum > 0 else 0)}")
        self.array = list(array)
        self.n = n
        self.m = m
        self.n0 = n0
        self.m_dum = m_dum
        self.dummy = n0 if m_dum > 0 else None
        self._pair_index = {p: i for i, p in enumerate(_lex_pairs(n0))}
        self.probes = 0

    def answer(self, query) -> int:
        members = sorted(set(int(v) for v in query))
        if any(not 0 <= v < self.n for v in members):
            raise ValueError("query vertex out of range")
        if not members:
            return 0
        in_k = [v for v in members if v < self.n0]
        comps = len(members)
        parent = {v: v for v in members}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            nonlocal comps
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
                comps -= 1

        if len(in_k) >= 3:
            # A clique minus at most one edge on three or more vertices is
            # connected no matter which edge is missing: no probe needed.
            for v in in_k[1:]:
                union(in_k[0], v)
        elif len(in_k) == 2:
            self.probes += 1
            if self.array[self._pair_index[(in_k[0], in_k[1])]]:
                union(in_k[0], in_k[1])
        if self.dummy is not None and self.dummy in parent:
            for w in range(self.m_dum):
                if w in parent:
                    union(self.dummy, w)
        return comps


def materialize_lb_instance(array: list[int], n: int, m: int) -> Graph:
    """Build the actual graph the adapter simulates, for replay checks."""
    adapter = AdaptiveLbAdapter(array, n, m)  # reuse validation and shape
    edges = [p for i, p in enumerate(_lex_pairs(adapter.n0)) if array[i]]
    if adapter.dummy is not None:
        edges.extend(edge(adapter.dummy, w) for w in range(adapter.m_dum))
    return Graph(n, edges)


# -- command line -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccquery",
        description="Reconstruct hidden graphs from component-count queries and "
        "run the query-complexity experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run reconstruction trials")
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument(
        "--family",
        required=True,
        choices=["gnm", "forest", "star", "two-path", "clique-minus-edge"],
    )
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--m", type=int, required=True)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--profile", choices=["paper", "practical"], default="practical")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--csv", dest="csv_path", default=None)
    run.add_argument("--trace", dest="trace_path", default=None)
    run.add_argument("--measure-time", action="store_true")

    lb = sub.add_parser("lbcheck", help="run a lower-bound property experiment")
    lb.add_argument("--which", required=True, choices=["nonadaptive", "adaptive"])
    lb.add_argument("--n", type=int, required=True)
    lb.add_argument("--queries", type=int, default=1000)
    lb.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        algorithm=args.algo,
        family=args.family,
        n=args.n,
        m=args.m,
        trials=args.trials,
        seed=args.seed,
        profile=args.profile,
        jobs=args.jobs,
        csv_path=args.csv_path,
        trace_path=args.trace_path,
        measure_time=args.measure_time,
    )
    reports = run_experiment(cfg)
    ok = sum(1 for r in reports if r.success)
    for r in reports:
        status = "ok" if r.success else "FAIL"
        print(
            f"trial {r.trial}: {status} edges={r.edge_count} queries={r.total_queries} "
            f"rounds={r.rounds} restarts={r.restarts}"
        )
    print(f"{ok}/{len(reports)} trials succeeded")
    return 0


def _cmd_lbcheck(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.which == "nonadaptive":
        n = args.n
        if n < 3:
            raise ValueError("nonadaptive check needs n >= 3")
        queries = []
        for _ in range(args.queries):
            size = int(rng.integers(1, n + 1))
            queries.append(rng.choice(n, size=size, replace=False).tolist())
        count = distinguishing_pairs(queries, n)
        print(f"distinguishing pairs: {count} of {len(queries)} queries")
        if count <= len(queries):
            print("bound holds: distinguished pairs <= number of queries")
            return 0
        print("VIOLATION: more distinguished pairs than queries")
        return 1

    n0 = args.n
    if n0 < 3:
        raise ValueError("adaptive check needs n >= 3")
    m = n0 * (n0 - 1) // 2 - 1
    array = [1] * (m + 1)
    array[int(rng.integers(m + 1))] = 0
    adapter = AdaptiveLbAdapter(array, n0, m)
    hidden = materialize_lb_instance(array, n0, m)
    mismatches = 0
    pair_queries = 0
    for _ in range(args.queries):
        size = int(rng.integers(1, n0 + 1))
        q = rng.choice(n0, size=size, replace=False).tolist()
        if len([v for v in q if v < adapter.n0]) == 2:
            pair_queries += 1
        if adapter.answer(q) != cc_count(hidden, q):
            mismatches += 1
    print(
        f"queries={args.queries} mismatches={mismatches} "
        f"array_probes={adapter.probes} pair_queries={pair_queries}"
    )
    if mismatches == 0 and adapter.probes == pair_queries:
        print("adapter matches the materialized instance; probes only on bare clique pairs")
        return 0
    print("VIOLATION: adapter disagreed with the materialized instance")
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_lbcheck(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
