"""Two-round reconstruction: batched degree estimation, then group testing.

Round one estimates every degree to within a factor of four using only
neighbor probes on random samples; round two recovers each neighborhood with a
randomized group-testing design sized by the estimate. Both rounds are
non-adaptive internally (all queries staged before any answer is released), so
the whole algorithm closes exactly two oracle batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_core import Edge, edge
from .oracle import BatchContractError, CcOracle
from .reporting import ReconstructionReport

GROUP_TEST_RATE = 3.0 * math.e
DEGREE_THRESHOLD = 1.0 / (2.0 * math.e)

PROFILES = ("paper", "practical")


def resolve_profile(profile: str, n: int) -> tuple[float, float]:
    """Failure-probability pair (epsilon, alpha) for the named constant profile.

    The paper profile uses ``1/n^2`` for both, which is prohibitively many
    queries beyond a few dozen vertices; the practical profile fixes 0.05.
    """
    if profile == "paper":
        e = 1.0 / max(2, n) ** 2
        return e, e
    if profile == "practical":
        return 0.05, 0.05
    raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")


def degree_repetitions(epsilon: float) -> int:
    """Samples per scale for the degree estimator: ``ceil(450 ln(800/eps^2))``."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    return math.ceil(450.0 * math.log(800.0 / (epsilon * epsilon)))


@dataclass
class DegreePlan:
    """Non-adaptive sampling plan for one vertex's degree estimate.

    For every scale ``p`` the plan holds ``ell`` rows of ``2^p`` iid uniform
    draws from the other vertices (duplicates collapse in the queried set);
    each row is materialized as one two-query neighbor probe. Draw matrices
    are released after submission by default since decoding needs only the
    probe answers.
    """

    u: int
    n: int
    epsilon: float
    ell: int
    p_max: int
    draws: list[np.ndarray] | None
    answer_slices: list[range] = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return 2 * self.ell * self.p_max


def plan_degree(u: int, n: int, epsilon: float, rng: np.random.Generator) -> DegreePlan:
    """Draw the degree-estimation plan for ``u``; fixed before any answer."""
    if n < 2:
        raise ValueError("degree estimation needs n >= 2")
    if not 0 <= u < n:
        raise ValueError(f"vertex {u} out of range")
    ell = degree_repetitions(epsilon)
    p_max = math.ceil(math.log2(n - 1)) if n > 2 else 0
    draws = []
    for p in range(1, p_max + 1):
        x = rng.integers(0, n - 1, size=(ell, 2**p), dtype=np.int32)
        x += x >= u  # shift to skip u itself
        draws.append(x)
    return DegreePlan(u=u, n=n, epsilon=epsilon, ell=ell, p_max=p_max, draws=draws)


def submit_degree_plan(oracle: CcOracle, plan: DegreePlan, release_draws: bool = True) -> None:
    """Stage every probe of the plan into the open batch."""
    if plan.draws is None:
        raise ValueError("plan was already submitted")
    for rows in plan.draws:
        plan.answer_slices.append(oracle.submit_or_probes(plan.u, rows))
    if release_draws:
        plan.draws = None


def decode_degree(plan: DegreePlan, answers: list) -> float:
    """Degree estimate from the batch answers of a submitted plan.

    ``Z_p`` is the fraction of scale-``p`` samples disjoint from the
    neighborhood; the estimate is ``2(n-1)/2^p*`` for the largest scale still
    above ``1/(2e)``. When no scale qualifies (very high degree) the scale
    falls back to 0, and isolated vertices come out at most 2 rather than 0.
    """
    p_star = 0
    for p_idx, sl in enumerate(plan.answer_slices):
        hit_count = sum(1 for i in sl if answers[i])
        z = 1.0 - hit_count / plan.ell
        if z > DEGREE_THRESHOLD:
            p_star = p_idx + 1
    return 2.0 * (plan.n - 1) / 2.0**p_star


def estimate_degree(
    oracle: CcOracle, u: int, epsilon: float, rng: np.random.Generator
) -> float:
    """One-shot degree estimate: plan, submit as a single batch, decode."""
    oracle.open_batch()
    plan = plan_degree(u, oracle.n, epsilon, rng)
    submit_degree_plan(oracle, plan)
    return decode_degree(plan, oracle.close_batch())


def group_test_query_count(d: float, n: int, alpha: float, c_gt: float = GROUP_TEST_RATE) -> int:
    """Number of random test sets: ``ceil(c_gt * d * ln(n/alpha))``."""
    return math.ceil(c_gt * d * math.log(n / alpha))


@dataclass
class GroupTestPlan:
    """Random group-testing design for one vertex's neighborhood.

    Each of the ``T`` test sets includes every other vertex independently with
    probability ``1/(d+1)``. The membership matrix is retained because the
    decoder needs it.
    """

    u: int
    n: int
    d: float
    alpha: float
    c_gt: float
    membership: np.ndarray
    answer_slice: range | None = None

    @property
    def query_count(self) -> int:
        return 2 * self.membership.shape[0]


def plan_neighborhood(
    u: int,
    n: int,
    d: float,
    alpha: float,
    rng: np.random.Generator,
    c_gt: float = GROUP_TEST_RATE,
) -> GroupTestPlan:
    """Draw the group-testing plan for ``u`` with support bound ``d``."""
    if d < 1:
        raise ValueError("support bound must be at least 1")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    t = group_test_query_count(d, n, alpha, c_gt)
    membership = rng.random((t, n)) < 1.0 / (d + 1.0)
    membership[:, u] = False
    return GroupTestPlan(u=u, n=n, d=d, alpha=alpha, c_gt=c_gt, membership=membership)


def submit_neighborhood_plan(oracle: CcOracle, plan: GroupTestPlan) -> None:
    plan.answer_slice = oracle.submit_or_probes(plan.u, plan.membership)


def decode_neighborhood(plan: GroupTestPlan, answers: list) -> list[int] | None:
    """Neighbor set of ``u`` from the test answers, or None for a certain FAIL.

    A vertex survives iff every test set containing it answered positively, so
    the survivors always include the true neighborhood (no false negatives).
    More than ``d`` survivors proves the degree exceeds the bound and decodes
    as FAIL; in particular a too-small bound fails with probability 1.
    """
    if plan.answer_slice is None:
        raise ValueError("plan was not submitted")
    hits = np.fromiter((bool(answers[i]) for i in plan.answer_slice), dtype=bool)
    excluded = plan.membership[~hits].any(axis=0)
    survivors = ~excluded
    survivors[plan.u] = False
    candidates = np.flatnonzero(survivors)
    if candidates.size > plan.d:
        return None
    return candidates.tolist()


def _trivial_report(oracle: CcOracle, success: bool) -> ReconstructionReport:
    # Close two (possibly empty) rounds so the two-round contract holds even
    # on degenerate inputs and gate failures.
    while oracle.ledger.num_rounds < 2:
        oracle.open_batch()
        oracle.close_batch()
    return ReconstructionReport(
        algorithm="two-round",
        success=success,
        edges=frozenset(),
        total_queries=oracle.ledger.total_queries,
        rounds=oracle.ledger.num_rounds,
    )


def two_round_reconstruct(
    oracle: CcOracle,
    m: int,
    rng: np.random.Generator,
    profile: str = "practical",
    c_gt: float = GROUP_TEST_RATE,
    stats_out: dict | None = None,
) -> ReconstructionReport:
    """Reconstruct the hidden graph in exactly two batched rounds.

    Round one estimates all degrees; if the estimates already contradict the
    edge bound (sum above ``8m``) the run fails explicitly. Round two recovers
    every neighborhood by group testing with the per-vertex estimates. The
    result is accepted only if all decodes succeed and the neighborhoods are
    mutually consistent, so a returned graph is never silently wrong. An edge
    bound of zero short-circuits to the empty graph.

    ``stats_out``, when given, receives the degree estimates and the gate
    verdict for query-accounting checks.
    """
    if oracle.mode != "batched":
        raise BatchContractError("two-round reconstruction requires a batched oracle")
    n = oracle.n
    if n < 2 or m == 0:
        return _trivial_report(oracle, success=True)
    epsilon, alpha = resolve_profile(profile, n)

    oracle.open_batch()
    plans = []
    for u in range(n):
        plan = plan_degree(u, n, epsilon, rng)
        submit_degree_plan(oracle, plan)
        plans.append(plan)
    answers = oracle.close_batch()
    estimates = [decode_degree(plan, answers) for plan in plans]
    if stats_out is not None:
        stats_out["degree_estimates"] = list(estimates)
        stats_out["epsilon"] = epsilon
        stats_out["alpha"] = alpha

    if sum(estimates) > 8.0 * m:
        if stats_out is not None:
            stats_out["gate_passed"] = False
        return _trivial_report(oracle, success=False)
    if stats_out is not None:
        stats_out["gate_passed"] = True

    oracle.open_batch()
    gt_plans = []
    for u in range(n):
        plan = plan_neighborhood(u, n, estimates[u], alpha, rng, c_gt)
        submit_neighborhood_plan(oracle, plan)
        gt_plans.append(plan)
    answers = oracle.close_batch()
    neighborhoods = [decode_neighborhood(plan, answers) for plan in gt_plans]

    report = ReconstructionReport(
        algorithm="two-round",
        success=False,
        edges=frozenset(),
        total_queries=oracle.ledger.total_queries,
        rounds=oracle.ledger.num_rounds,
    )
    if any(nb is None for nb in neighborhoods):
        return report
    nb_sets = [set(nb) for nb in neighborhoods]
    edges: set[Edge] = set()
    for u in range(n):
        for v in nb_sets[u]:
            if u not in nb_sets[v]:
                return report
            edges.add(edge(u, v))
    report.success = True
    report.edges = frozenset(edges)
    return report
