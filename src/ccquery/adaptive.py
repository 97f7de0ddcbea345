"""Adaptive reconstruction: random-sample forest peeling and its orchestration.

The core loop samples low-rate induced subgraphs, which are near-matchings
(hence forests) with constant probability, and reconstructs each through the
component-count/edge-count identity. Two wrappers turn the loop into
whole-graph reconstructors; the full pipeline layers degree classes on top so
dissimilar degrees meet through coloring instead of sampling, and a final
exact verification converts constant success probability into
never-silently-wrong output with restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_core import Edge, edge
from .oracle import CcOracle
from .primitives import (
    binary_search_reconstruct,
    find_high_degree,
    find_neighbors_in_known_subgraph,
    has_neighbor,
    reconstruct_forest,
)
from .reporting import ReconstructionReport

# Failure probability of the whp sampling reconstruction in the pair phase.
PAIR_DELTA = 0.01
# Degree detection runs each of the L levels at failure probability
# 1 / (LEVEL_DELTA_FACTOR * L).
LEVEL_DELTA_FACTOR = 10.0


def sample_rate(m: int, d: float) -> float:
    """Vertex sampling probability ``1 / (10 m^(1/3) d^(1/3))``."""
    if m < 1:
        raise ValueError("edge bound must be positive")
    return 1.0 / (10.0 * m ** (1.0 / 3.0) * max(1.0, d) ** (1.0 / 3.0))


def whp_iterations(p: float, m: int, delta: float) -> int:
    """Rounds for failure probability ``delta``: ``ceil(2/p^2 (ln m + ln 1/delta))``."""
    return math.ceil(2.0 / (p * p) * (math.log(m) + math.log(1.0 / delta)))


def expected_iterations(p: float, n_sub: int, m: int) -> int:
    """Rounds of the expected-cost variant: ``ceil(2 ln(n^2/m) / p^2)``, floored at 0."""
    ratio = n_sub * n_sub / m
    if ratio <= 1.0:
        return 0
    return math.ceil(2.0 * math.log(ratio) / (p * p))


def key_subroutine(
    oracle: CcOracle,
    vs: list[int],
    m: int,
    d: float,
    ell: int,
    known: set[Edge],
    rng: np.random.Generator,
) -> set[Edge]:
    """Grow ``known`` by repeatedly reconstructing random induced subgraphs.

    Each of the ``ell`` rounds samples ``vs`` at rate ``1/(10 m^(1/3) d^(1/3))``,
    skips oversized samples (``|S| > 100 p |vs|``), and runs forest
    reconstruction on the sample with the known edges threaded through. Only
    verified true edges are ever added, so the result is sound regardless of
    how unlucky the sampling is.
    """
    order = sorted(set(vs))
    found = set(known)
    if len(order) < 2 or ell <= 0:
        return found
    p = sample_rate(m, d)
    gate = 100.0 * p * len(order)
    arr = np.asarray(order, dtype=np.int64)
    for _ in range(ell):
        k = int(rng.binomial(len(order), p))
        if k > gate or k < 2:
            continue
        sample = rng.choice(arr, size=k, replace=False)
        found |= reconstruct_forest(oracle, sample.tolist(), found)
    return found


def reconstruct_bounded_degree_whp(
    oracle: CcOracle,
    vs: list[int],
    m: int,
    d: float,
    delta: float,
    rng: np.random.Generator,
    known: set[Edge] | None = None,
) -> set[Edge]:
    """Sampling reconstruction tuned to find all of ``g[vs]`` w.p. >= 1-delta.

    The output is always a sound edge set; with the chosen round count it is
    the complete induced edge set with probability at least ``1 - delta``,
    provided the degree bound stays within the sampling regime
    ``d <= sqrt(m)``. Larger bounds only weaken the success guarantee.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    p = sample_rate(m, d)
    ell = whp_iterations(p, m, delta)
    return key_subroutine(oracle, vs, m, d, ell, known or set(), rng)


def reconstruct_bounded_degree_expected(
    oracle: CcOracle,
    vs: list[int],
    m: int,
    d: float,
    rng: np.random.Generator,
    known: set[Edge] | None = None,
) -> set[Edge]:
    """Exact reconstruction of ``g[vs]`` with good expected query cost.

    Runs the sampling loop just long enough to leave few edges in expectation,
    then finishes with the deterministic halving search, so the result is
    exact with probability 1; the expected-cost bound assumes the sampling
    regime ``d <= sqrt(m)``.
    """
    order = sorted(set(vs))
    p = sample_rate(m, d)
    ell = expected_iterations(p, len(order), m)
    found = key_subroutine(oracle, order, m, d, ell, known or set(), rng)
    found |= binary_search_reconstruct(oracle, order, found)
    return found


@dataclass
class LevelPartition:
    """Degree-scale decomposition driving the full pipeline.

    ``alphas`` decays from ``m^(1/3)`` by the 0.9 power until it reaches 100;
    ``thresholds[i] = sqrt(m / alphas[i])`` is the degree scale of level i.
    After the detection sweep, ``s_classes`` and ``residual`` partition the
    vertex set.
    """

    alphas: tuple[float, ...]
    thresholds: tuple[float, ...]
    h_sets: list[list[int]] = field(default_factory=list)
    s_classes: list[list[int]] = field(default_factory=list)
    residual: list[int] = field(default_factory=list)

    @property
    def levels(self) -> int:
        return len(self.alphas)


def build_levels(m: int) -> LevelPartition:
    """Level skeleton (scales and thresholds only) for edge bound ``m >= 2``."""
    if m < 2:
        raise ValueError("level construction needs m >= 2")
    alphas = [m ** (1.0 / 3.0)]
    while alphas[-1] > 100.0:
        alphas.append(alphas[-1] ** 0.9)
    thresholds = tuple(math.sqrt(m / a) for a in alphas)
    return LevelPartition(alphas=tuple(alphas), thresholds=thresholds)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Settings of the adaptive pipeline.

    Its fixed constants are module constants: :data:`PAIR_DELTA` and
    :data:`LEVEL_DELTA_FACTOR` here, ``ADJACENCY_STEP_QUERIES`` and
    ``FOREST_DENSITY_RATE`` in :mod:`ccquery.primitives`.

    ``small_m_cutoff``: at or below this edge bound (or whenever the first
    degree threshold would drop under the detector's minimum of 10) the
    pipeline is skipped for a direct halving search, whose constants win at
    small scale anyway. ``restart_cap`` bounds verification restarts before an
    explicit failure is reported.
    """

    small_m_cutoff: int = 4096
    restart_cap: int = 20


def verify_reconstruction(oracle: CcOracle, candidate: set[Edge]) -> bool:
    """Exact two-sided check of a candidate edge set; <= |candidate| + 2n queries.

    Every candidate pair must answer one component (a true edge), and no
    vertex may have a neighbor outside its candidate neighborhood. True iff
    the candidate equals the hidden edge set.
    """
    nbrs: dict[int, set[int]] = {}
    for a, b in sorted(candidate):
        if oracle.query([a, b]) != 1:
            return False
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    n = oracle.n
    for v in range(n):
        claimed = nbrs.get(v, set())
        rest = [w for w in range(n) if w != v and w not in claimed]
        if has_neighbor(oracle, v, rest):
            return False
    return True


def _partition_levels(
    oracle: CcOracle,
    m: int,
    levels: LevelPartition,
    rng: np.random.Generator,
) -> LevelPartition:
    """Fill the level partition by running the degree detector per threshold.

    Raw detector outputs are intersected down the chain so the classes and the
    residual are a true partition of the vertex set on every run; a vertex
    above twice a threshold also clears all smaller ones with the same
    probability margin, so nesting costs nothing.
    """
    n = oracle.n
    delta = 1.0 / (LEVEL_DELTA_FACTOR * levels.levels)
    h_sets: list[list[int]] = [list(range(n))]
    for t in levels.thresholds:
        raw = find_high_degree(oracle, m, t, delta, rng)
        h_sets.append(sorted(set(raw) & set(h_sets[-1])))
    s_classes = [
        sorted(set(h_sets[i]) - set(h_sets[i + 1])) for i in range(levels.levels)
    ]
    return LevelPartition(
        alphas=levels.alphas,
        thresholds=levels.thresholds,
        h_sets=h_sets,
        s_classes=s_classes,
        residual=list(h_sets[-1]),
    )


def _pair_phase(
    oracle: CcOracle,
    part: LevelPartition,
    m: int,
    known: set[Edge],
    rng: np.random.Generator,
) -> set[Edge]:
    """Edges within each class and between adjacent classes, via sampling."""
    t = part.thresholds
    s = part.s_classes
    if part.levels == 1:
        if len(s[0]) >= 2:
            known = reconstruct_bounded_degree_whp(
                oracle, s[0], m, 2.0 * t[0], PAIR_DELTA, rng, known
            )
        return known
    for i in range(part.levels - 1):
        vs = sorted(set(s[i]) | set(s[i + 1]))
        if len(vs) < 2:
            continue
        d = 2.0 * t[i + 1]
        if i == 0:
            known = reconstruct_bounded_degree_whp(oracle, vs, m, d, PAIR_DELTA, rng, known)
        else:
            known = reconstruct_bounded_degree_expected(oracle, vs, m, d, rng, known)
    return known


def _coloring_sweeps(
    oracle: CcOracle,
    part: LevelPartition,
    known: set[Edge],
) -> set[Edge]:
    """Cross-scale and residual edges, given complete class interiors.

    A vertex two or more levels above a class (or in the residual) learns its
    neighbors there through the coloring routine; residual-internal edges are
    settled by exhaustive pair queries, of which there are only O(m).
    """
    s = part.s_classes
    t = part.thresholds
    class_edges = [
        {e for e in known if e[0] in cls_set and e[1] in cls_set}
        for cls_set in (set(cls) for cls in s)
    ]
    for i in range(part.levels):
        if not s[i]:
            continue
        far_vertices = [v for j in range(i + 2, part.levels) for v in s[j]]
        for v in far_vertices:
            known |= find_neighbors_in_known_subgraph(oracle, v, s[i], class_edges[i], 2.0 * t[i])
    res = part.residual
    for idx, a in enumerate(res):
        for b in res[idx + 1 :]:
            if edge(a, b) not in known and oracle.query([a, b]) == 1:
                known.add(edge(a, b))
    for v in res:
        for i in range(part.levels):
            if s[i]:
                known |= find_neighbors_in_known_subgraph(
                    oracle, v, s[i], class_edges[i], 2.0 * t[i]
                )
    return known


def _attempt(
    oracle: CcOracle,
    m: int,
    cfg: AdaptiveConfig,
    rng: np.random.Generator,
) -> set[Edge]:
    """One reconstruction attempt; the caller verifies and may restart."""
    n = oracle.n
    if m <= cfg.small_m_cutoff or m < 1000:
        # Below the cutoff (or whenever m^(1/3) < 10 would starve the degree
        # detector) the asymptotic machinery loses to plain halving search.
        return binary_search_reconstruct(oracle, list(range(n)), set())
    levels = build_levels(m)
    part = _partition_levels(oracle, m, levels, rng)
    known = _pair_phase(oracle, part, m, set(), rng)
    known = _coloring_sweeps(oracle, part, known)
    return known


def adaptive_reconstruct(
    oracle: CcOracle,
    m: int,
    rng: np.random.Generator,
    config: AdaptiveConfig | None = None,
) -> ReconstructionReport:
    """Reconstruct the hidden graph exactly, given an upper bound on its edges.

    Runs attempts until the exact verification passes, each with a fresh
    randomness stream; at most ``config.restart_cap`` restarts are made before
    an explicit failure report. A successful report is never wrong: the
    verification is two-sided and exact.
    """
    cfg = config or AdaptiveConfig()
    last: set[Edge] = set()
    for attempt in range(cfg.restart_cap + 1):
        last = _attempt(oracle, m, cfg, rng.spawn(1)[0])
        if verify_reconstruction(oracle, last):
            return ReconstructionReport(
                algorithm="adaptive",
                success=True,
                edges=frozenset(last),
                total_queries=oracle.ledger.total_queries,
                rounds=oracle.ledger.num_rounds,
                restarts=attempt,
            )
    return ReconstructionReport(
        algorithm="adaptive",
        success=False,
        edges=frozenset(last),
        total_queries=oracle.ledger.total_queries,
        rounds=oracle.ledger.num_rounds,
        restarts=cfg.restart_cap,
    )
