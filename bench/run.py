"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; ``ccquery`` is imported from its
``src`` directory. The seed fixes the hidden graph and the algorithm's random
stream. The same reconstruction is repeated, each time on a fresh oracle,
until the next repetition would end past ``--seconds``; every repetition's
output is checked against the benchmark's own inputs.

``--trace 0`` prints the end-to-end metrics: the set-up time and the median
time of the reconstruction call, both scaled to a reference host speed (see
``HostSpeed``), its query count and the process's peak RSS over the first
repetition. ``--trace 1`` alternates traced and untraced repetitions and
prints the per-layer metrics of the traced ones (medians), the tracing
overhead, the unscaled time and the reference kernel's pass time.
``--quick`` runs the same workloads and checks at tiny sizes.
"""

import argparse
import gc
import importlib
import json
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# (name, unit) of every end-to-end metric, in the order printed.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("queries", "count"),
    ("peak_rss_mb", "MB"),
]


# The host's speed changes by a quarter within seconds and drifts further
# over minutes, which no number of repetitions averages out. So each timed
# block (the set-up, each repetition) is scaled by a fixed pure-Python kernel
# whose passes run just before the block, every KERNEL_PERIOD_S while it runs
# (on SIGALRM) and just after it. setup_s and wall_s are the times a block
# would take on a host where one pass takes REFERENCE_PASS_S (its median on a
# 2-core Xeon VM at 2.1 GHz); the passes inside a block are not counted in
# its time.
REFERENCE_PASS_S = 0.006
KERNEL_PERIOD_S = 0.1


def kernel_pass() -> tuple[float, float]:
    """Union-find over pseudo-random pairs from a fixed LCG; no ccquery code.

    Returns the pass's start and duration.
    """
    start = time.perf_counter()
    parent = list(range(4096))
    x = 1
    for _ in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = (x >> 7) & 4095, (x >> 19) & 4095
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[b] = a
    return start, time.perf_counter() - start


class HostSpeed:
    """Scales timed blocks by the kernel passes run around and inside them."""

    def __init__(self):
        self.passes: list[float] = []

    def measure(self, block):
        """Run ``block()``; return its result, its own time and that time scaled.

        Its own time leaves out the passes that ran inside it. The host's
        mean speed over the block is the harmonic mean of the pass times.
        """
        passes = [kernel_pass()]
        in_pass = False

        def on_alarm(signum, frame):
            # A signal that arrives during a pass skips a pass, not nests one.
            nonlocal in_pass
            if not in_pass:
                in_pass = True
                passes.append(kernel_pass())
                in_pass = False

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_PERIOD_S, KERNEL_PERIOD_S)
        start = time.perf_counter()
        try:
            result = block()
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        passes.append(kernel_pass())
        inside = sum(d for t, d in passes if start <= t and t + d <= end)
        durations = [d for _, d in passes]
        self.passes += durations
        own = end - start - inside
        return result, own, own * REFERENCE_PASS_S / statistics.harmonic_mean(durations)

    def boundary(self) -> None:
        """Passes between two blocks that are timed without the alarm."""
        self.passes += [kernel_pass()[1] for _ in range(3)]


def import_ccquery():
    """Import the package from the checkout's sources, never an installed copy."""
    if not (SRC / "ccquery" / "__init__.py").is_file():
        raise SystemExit(f"no ccquery sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cq = importlib.import_module("ccquery")
    if Path(cq.__file__).resolve().parent != SRC / "ccquery":
        raise SystemExit(f"imported ccquery from {cq.__file__}, not from {SRC}")
    return cq


class Repetitions:
    """Runs and checks one reconstruction per call; tallies the outcomes."""

    def __init__(self, cq, w, edges, seed, trace_dir, first_oracle=None):
        self.cq = cq
        self.next_oracle = first_oracle
        self.w = w
        self.edges = edges
        self.seed = seed
        self.trace_path = Path(trace_dir) / "trace.txt"
        self.counter = workloads.ComponentCounter(w.n, edges) if w.record_trace else None
        self.attempted = 0
        self.failed = 0
        self.queries = None
        self.first_peak_rss_mb = None
        self.problems: list[str] = []

    def run(self, tracer=None, speed=None) -> tuple[float, float]:
        """One repetition; returns the time of the reconstruction call.

        The time comes unscaled and, with a ``HostSpeed``, scaled; without
        one, both are the plain time.

        The first repetition may use the oracle built during set-up; nothing
        else keeps it, so its ledger is freed with the repetition.
        The recursive closures of the search routines form reference cycles
        that keep a finished oracle alive until the cyclic collector runs, so
        every later repetition starts with a collection, which frees the
        previous one's ledger and trace. The first repetition runs without
        one, and the process's peak RSS is read right after it.
        """
        if self.attempted:
            gc.collect()
        cq = self.cq
        oracle, self.next_oracle = self.next_oracle, None
        restore = tracing.install(cq, tracer) if tracer else None
        try:
            if oracle is None:
                oracle = workloads.make_oracle(cq, self.w, cq.Graph(self.w.n, self.edges))

            def block():
                return workloads.reconstruct(cq, self.w, oracle, self.seed, self.trace_path)

            if speed:
                report, own, scaled = speed.measure(block)
            else:
                start = time.perf_counter()
                report = block()
                own = scaled = time.perf_counter() - start
        finally:
            if restore:
                restore()
        self.attempted += 1
        if self.first_peak_rss_mb is None:
            self.first_peak_rss_mb = tracing.peak_rss_mb()
        # Every workload is chosen to succeed, so a reported failure also
        # fails the run's checks rather than passing as a cheaper repetition.
        if report.success:
            problems = workloads.check_report(self.w, self.edges, report, oracle)
        else:
            self.failed += 1
            problems = [f"reconstruction reported failure after {report.total_queries} queries"]
        if self.queries is None:
            self.queries = report.total_queries
        elif report.total_queries != self.queries:
            problems.append(f"queries changed between repetitions: {report.total_queries}")
        if self.counter is not None and report.success:
            problems += workloads.check_trace(
                self.trace_path, report.total_queries, self.counter, self.seed
            )
        self.problems += problems
        return own, scaled


def until_deadline(seconds: float, round_once) -> None:
    """Call ``round_once`` at least once, and again while the next should fit."""
    start = time.perf_counter()
    rounds = 0
    while True:
        round_once()
        rounds += 1
        now = time.perf_counter()
        if now + (now - start) / rounds > start + seconds:
            return


def end_to_end(reps: Repetitions, speed: HostSpeed, setup: tuple, seconds: float) -> dict:
    setup_own, setup_s = setup
    owns, walls = [], []

    def round_once():
        own, scaled = reps.run(speed=speed)
        owns.append(own)
        walls.append(scaled)

    until_deadline(seconds, round_once)
    print(
        f"unscaled setup_s {setup_own:.4f} s; "
        f"unscaled wall_s median {statistics.median(owns):.4f} s over {len(owns)} repetitions; "
        f"kernel pass median {statistics.median(speed.passes):.5f} s",
        file=sys.stderr,
    )
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "queries": reps.queries,
        "peak_rss_mb": reps.first_peak_rss_mb,
    }


def per_layer(reps: Repetitions, speed: HostSpeed, seconds: float) -> dict:
    # Traced first in each round, so that the first traced repetition's
    # round high-water marks are not raised by an earlier repetition. No
    # kernel pass runs inside a repetition here, so self times hold none.
    traced, plain, layers = [], [], []

    def round_once():
        tracer = tracing.Tracer()
        traced.append(reps.run(tracer=tracer)[0])
        layers.append(tracer.metrics())
        speed.boundary()
        plain.append(reps.run()[0])

    until_deadline(seconds, round_once)
    speed.boundary()
    out = {}
    for name in layers[0]:
        if name.endswith(".rss_mb"):
            out[name] = layers[0][name]
        else:
            out[name] = statistics.median(layer[name] for layer in layers)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["bench.wall_unscaled_s"] = statistics.median(plain)
    out["bench.reference_kernel_s"] = statistics.median(speed.passes)
    return out


def set_up(w: workloads.Workload, edges):
    """The library's part of set-up: the first import of ccquery, the Graph
    and the first CcOracle."""
    cq = import_ccquery()
    return cq, workloads.make_oracle(cq, w, cq.Graph(w.n, edges))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    table = workloads.QUICK_WORKLOADS if args.quick else workloads.WORKLOADS
    w = table[args.workload]

    edges = workloads.gnm_edges(w.n, w.m, args.seed)
    speed = HostSpeed()
    (cq, oracle), *setup = speed.measure(lambda: set_up(w, edges))

    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".trace-") as trace_dir:
        # Traced repetitions build their own oracles, under the tracer.
        reps = Repetitions(cq, w, edges, args.seed, trace_dir, None if args.trace else oracle)
        del oracle
        if args.trace:
            values = per_layer(reps, speed, args.seconds)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            values = end_to_end(reps, speed, setup, args.seconds)
            units = dict(END_TO_END)

    for problem in reps.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not reps.problems,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
