"""Experiment harness: trials, CSV determinism, lower-bound checks, CLI."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ccquery import (
    AdaptiveLbAdapter,
    CcOracle,
    ExperimentConfig,
    InstanceSpec,
    ReconstructionReport,
    adaptive_reconstruct,
    cc_count,
    distinguishing_pairs,
    emit_csv,
    generate,
    materialize_lb_instance,
    parse_csv_text,
    run_experiment,
    two_path_pair,
)
from ccquery import lab, two_round
from ccquery.lab import main, reports_to_csv_text


def small_cfg(**overrides) -> ExperimentConfig:
    base = dict(algorithm="binary-search", family="gnm", n=24, m=36, trials=3, seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_report_count():
    reports = run_experiment(small_cfg(trials=5))
    assert len(reports) == 5
    assert [r.trial for r in reports] == list(range(5))
    assert all(r.success for r in reports)


def test_run_experiment_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(small_cfg(algorithm="adaptive", csv_path=str(a)))
    run_experiment(small_cfg(algorithm="adaptive", csv_path=str(b)))
    assert a.read_bytes() == b.read_bytes()


def test_run_experiment_rejects_bad_config():
    with pytest.raises(ValueError):
        run_experiment(small_cfg(trials=0))
    with pytest.raises(ValueError):
        run_experiment(small_cfg(family="forest", m=24))  # forest needs m <= n-1
    with pytest.raises(ValueError):
        run_experiment(small_cfg(algorithm="magic"))


def test_two_path_family_alias_runs():
    reports = run_experiment(small_cfg(family="two-path", trials=2))
    g1 = two_path_pair(24, 0, 1)[1]
    assert all(r.success and r.m == g1.m for r in reports)


def test_trial_failure_is_data_not_error(monkeypatch):
    # A group-testing rate of 0.01 stages one test per vertex, too few to
    # decode any neighborhood, so every trial fails, but the experiment itself
    # completes.
    monkeypatch.setattr(two_round, "GROUP_TEST_RATE", 0.01)
    reports = run_experiment(small_cfg(algorithm="two-round", trials=2))
    assert len(reports) == 2
    assert not any(r.success for r in reports)
    assert all(r.rounds == 2 for r in reports)


def test_parallel_jobs_match_serial():
    serial = run_experiment(small_cfg(trials=4, jobs=1))
    parallel = run_experiment(small_cfg(trials=4, jobs=2))
    assert reports_to_csv_text(serial) == reports_to_csv_text(parallel)


def test_csv_shapes(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([], str(path))
    assert path.read_text().splitlines() == [
        "algo,family,n,m,trial,seed,queries,rounds,success,restarts,wall_ms"
    ]
    reports = run_experiment(small_cfg())
    emit_csv(reports, str(path))
    assert len(path.read_text().splitlines()) == 4


def test_csv_round_trip():
    reports = run_experiment(small_cfg())
    rows = parse_csv_text(reports_to_csv_text(reports))
    for rep, row in zip(reports, rows):
        assert row["algo"] == rep.algorithm
        assert row["family"] == rep.family
        assert (row["n"], row["m"], row["trial"], row["seed"]) == (rep.n, rep.m, rep.trial, rep.seed)
        assert row["queries"] == rep.total_queries
        assert row["rounds"] == rep.rounds
        assert row["success"] == rep.success
        assert row["restarts"] == rep.restarts
        assert row["wall_ms"] == 0.0  # timing is opt-in so bytes stay stable


def test_trace_file_written(tmp_path):
    path = tmp_path / "trace.txt"
    run_experiment(small_cfg(n=8, m=6, trials=2, trace_path=str(path)))
    lines = path.read_text().splitlines()
    assert lines.count("# trial 0") == 1 and lines.count("# trial 1") == 1
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data and all(len(ln.split()) == 3 for ln in data)


def test_trace_file_blocks_match_dump_trace(tmp_path):
    # Each trial's block is what the trial's own ledger dumps, rebuilt here
    # from the experiment seed the way run_experiment splits it.
    cfg = small_cfg(algorithm="adaptive", n=12, m=20, trials=3, seed=5)
    path = tmp_path / "trace.txt"
    run_experiment(replace(cfg, trace_path=str(path)))
    blocks = path.read_text().split("# trial ")[1:]
    assert len(blocks) == cfg.trials
    for trial, trial_ss in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.trials)):
        inst_ss, algo_ss = trial_ss.spawn(2)
        spec = InstanceSpec(cfg.family, cfg.n, cfg.m, seed=int(inst_ss.generate_state(1)[0]))
        hidden = generate(spec)
        oracle = CcOracle(hidden, record_trace=True)
        adaptive_reconstruct(oracle, hidden.m, np.random.default_rng(algo_ss), cfg.adaptive)
        single = tmp_path / f"trial{trial}.txt"
        oracle.ledger.dump_trace(str(single))
        assert blocks[trial] == f"{trial}\n" + single.read_text()


# -- lower-bound harnesses ------------------------------------------------------


def test_distinguishing_pairs_examples():
    n = 6
    all_pairs = [[a, b] for a in range(n) for b in range(a + 1, n)]
    assert distinguishing_pairs(all_pairs, n) == n * (n - 1) // 2
    assert distinguishing_pairs([[0, 1, 2]], n) == 0
    assert distinguishing_pairs([[0, 1], [0, 1], [1, 0]], n) == 1
    with pytest.raises(ValueError):
        distinguishing_pairs([[0, 1]], 2)
    with pytest.raises(ValueError):
        distinguishing_pairs([[0, 9]], 6)


def test_distinguishing_pairs_matches_brute_force(rng):
    # Brute force: evaluate both gadget graphs on every query for every pair.
    n = 8
    for _ in range(20):
        queries = []
        for _ in range(int(rng.integers(1, 12))):
            size = int(rng.integers(1, n + 1))
            queries.append(rng.choice(n, size=size, replace=False).tolist())
        brute = 0
        for u in range(n):
            for v in range(u + 1, n):
                g0, g1 = two_path_pair(n, u, v)
                if any(cc_count(g0, q) != cc_count(g1, q) for q in queries):
                    brute += 1
        got = distinguishing_pairs(queries, n)
        assert got == brute
        assert got <= len(queries)


def test_lb_adapter_probe_rules(rng):
    n0 = 12
    m = n0 * (n0 - 1) // 2 - 1
    array = [1] * (m + 1)
    array[al := int(rng.integers(m + 1))] = 0
    adapter = AdaptiveLbAdapter(array, n0, m)
    # no clique pair involved: answered without probing
    adapter.answer([0])
    adapter.answer([])
    assert adapter.probes == 0
    # the missing pair itself: answered 2 with one probe
    pairs = [(a, b) for a in range(n0) for b in range(a + 1, n0)]
    u, v = pairs[al]
    assert adapter.answer([u, v]) == 2
    assert adapter.probes == 1


def test_lb_adapter_matches_materialized_graph(rng):
    n0 = 12
    m = n0 * (n0 - 1) // 2 - 1
    array = [1] * (m + 1)
    array[int(rng.integers(m + 1))] = 0
    adapter = AdaptiveLbAdapter(array, n0, m)
    hidden = materialize_lb_instance(array, n0, m)
    pair_queries = 0
    for _ in range(1000):
        size = int(rng.integers(1, n0 + 1))
        q = rng.choice(n0, size=size, replace=False).tolist()
        if sum(1 for v in q if v < adapter.n0) == 2:
            pair_queries += 1
        assert adapter.answer(q) == cc_count(hidden, q)
    assert adapter.probes == pair_queries


def test_lb_adapter_with_dummy_vertex(rng):
    # A bound above the near-clique size forces dummy edges; replay still matches.
    m = 60  # n0 = 11 (C(11,2)-1 = 54), m_dum = 6
    array = [1] * 55
    array[20] = 0
    adapter = AdaptiveLbAdapter(array, 16, m)
    assert (adapter.n0, adapter.m_dum, adapter.dummy) == (11, 6, 11)
    hidden = materialize_lb_instance(array, 16, m)
    for _ in range(500):
        size = int(rng.integers(1, 17))
        q = rng.choice(16, size=size, replace=False).tolist()
        assert adapter.answer(q) == cc_count(hidden, q)


def test_lb_adapter_validation():
    with pytest.raises(ValueError):
        AdaptiveLbAdapter([1, 1, 1], 3, 2)  # no zero
    with pytest.raises(ValueError):
        AdaptiveLbAdapter([0, 0, 1], 3, 2)  # two zeros
    with pytest.raises(ValueError):
        AdaptiveLbAdapter([0, 1], 3, 2)  # wrong length


# -- command line ----------------------------------------------------------------


def test_cli_run_writes_csv(tmp_path, capsys):
    path = tmp_path / "cli.csv"
    code = main(
        [
            "run", "--algo", "binary-search", "--family", "gnm",
            "--n", "16", "--m", "20", "--trials", "2", "--seed", "3",
            "--csv", str(path),
        ]
    )
    assert code == 0
    assert "2/2 trials succeeded" in capsys.readouterr().out
    assert len(path.read_text().splitlines()) == 3


def test_cli_failing_trials_still_exit_zero(capsys, monkeypatch):
    def failing_reconstruct(oracle, m, rng, *args):
        return ReconstructionReport(algorithm="two-round", success=False)

    monkeypatch.setattr(lab, "two_round_reconstruct", failing_reconstruct)
    code = main(
        ["run", "--algo", "two-round", "--family", "gnm", "--n", "16", "--m", "1",
         "--trials", "1", "--seed", "2"]
    )
    assert code == 0  # trial failure is data, not an error
    assert "0/1 trials succeeded" in capsys.readouterr().out


def test_cli_infeasible_config_errors(capsys):
    code = main(
        ["run", "--algo", "binary-search", "--family", "forest", "--n", "8",
         "--m", "99", "--trials", "1", "--seed", "0"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_lbcheck_both_variants(capsys):
    assert main(["lbcheck", "--which", "nonadaptive", "--n", "16", "--queries", "40", "--seed", "1"]) == 0
    assert main(["lbcheck", "--which", "adaptive", "--n", "12", "--queries", "200", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "bound holds" in out
    assert "probes only on bare clique pairs" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ccquery", "lbcheck", "--which", "nonadaptive", "--n", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "bound holds" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
