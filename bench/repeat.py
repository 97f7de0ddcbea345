"""Repeat workloads over seeds and print each metric's median and quartiles.

    python3 bench/repeat.py [--workloads a,b] [--runs 10] [--sets 1|2]
                            [--out bench/results/NAME.json]

Each run is a fresh untraced ``run.py`` process of ``run_seconds`` from
``BENCHMARK.json``, one after another, on seeds ``1 .. runs``; a second set
continues with seeds ``runs + 1 .. 2 * runs``. For every end-to-end metric
the table shows the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, the distance between the quartiles as a share of
the median, next to the bound from ``BENCHMARK.json``; with two sets it
adds the drift of the second set's median from the first's. Spreads at or
above a third of the bound, and drifts above the bound, are marked. The
exit code is 1 when any run failed its checks, any spread or drift exceeds
its bound, or the sets' shares of failed operations differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--out", type=Path, help="also write every run's result here")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    for name in chosen:
        if name not in names:
            parser.error(f"unknown workload {name!r}")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results: dict[str, list[list[dict]]] = {name: [] for name in chosen}
    for s in range(args.sets):
        for name in chosen:
            results[name].append([])
        # Seeds outermost, so slow drift of the machine spreads over every workload.
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for name in chosen:
                result = run_once(name, seed, config["run_seconds"])
                results[name][s].append(result)
                print(f"set {s + 1} {name} seed {seed}: " + json.dumps(result), file=sys.stderr)

    ok = True
    for name in chosen:
        print(f"\n{name}")
        sets = results[name]
        shares = []
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append(failed / attempted)
            ok &= all(r["correct"] for r in runs)
            print(f"  runs {len(runs)}, attempted {attempted}, failed {failed}, "
                  f"correct {all(r['correct'] for r in runs)}")
        if len(set(shares)) > 1:
            print(f"  failed shares differ between sets: {shares}")
            ok = False
        print(f"  {'metric':<54} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
        for metric, unit in ((k, v["unit"]) for k, v in sets[0][0]["metrics"].items()):
            bound = bounds.get(metric)
            medians = []
            for s, runs in enumerate(sets):
                median, q1, q3 = summarize([r["metrics"][metric]["value"] for r in runs])
                medians.append(median)
                spread = (q3 - q1) / median if median else 0.0
                label = metric + f" ({unit})" + (f" set {s + 1}" if len(sets) > 1 else "")
                line = f"  {label:<54} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}"
                if bound is not None:
                    line += f" {bound:>6}"
                    if spread >= bound / 3:
                        line += " wide"
                    if spread >= bound:
                        ok = False
                if s == 1:
                    drift = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
                    line += f" drift {drift:.4f}"
                    if bound is not None and drift > bound:
                        line += " worse"
                        ok = False
                print(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
