"""Tests of the benchmark's own rules.

Run from the repository root: PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
import time

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(metrics):
    return {name: unit for name, (_value, unit) in metrics.items()}


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_the_spec():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


def test_every_end_to_end_metric_with_its_unit():
    metrics, notes = run.end_to_end_metrics([2.0] * 30, [False] * 30, 3.0, 0.5, 20.0)
    assert units(metrics) == declared("end_to_end")
    assert "10 of 30 samples beyond" in notes["op_tail_ms"]


def test_every_per_layer_metric_with_its_unit(tmp_path):
    ew = workloads.program()
    original = ew.sandpile.stabilize
    workload = workloads.GrainWalk(ew, seed=5)
    workload.trace_ops = len(workloads.FAMILIES)
    traced, plain, metrics = run.run_traced(workload, tmp_path / "spans.json.gz", {})
    assert units(metrics) == declared("per_layer")
    assert traced.correct and plain.correct
    assert ew.sandpile.stabilize is original  # wrappers removed
    assert metrics["sandpile.stabilize.calls"][0] == workload.trace_ops
    assert metrics["permutations.topples"][0] == metrics["sandpile.topples"][0]
    assert (tmp_path / "spans.json.gz").stat().st_size > 0


@pytest.mark.parametrize("n, rank", [(1, 0), (10, 9), (11, 0), (12, 1), (100, 89), (1000, 989)])
def test_tail_rank_leaves_ten_samples_beyond(n, rank):
    assert run.tail_rank(n) == rank
    if n > run.SAMPLES_BEYOND:
        assert n - 1 - rank == run.SAMPLES_BEYOND


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    latencies = [float(ms) for ms in range(1, 101)]
    p50, tail, pct = run.latency_metrics(latencies, [False] * 100, 5000.0)
    assert p50 == 50.5
    assert tail == 90.0 and pct == 90.0


def test_failures_rank_above_every_success():
    latencies = [float(ms) for ms in range(1, 31)]
    failed = [ms <= 3 for ms in range(1, 31)]  # the three fastest ops failed
    _p50, tail, _pct = run.latency_metrics(latencies, failed, 5000.0)
    # successes 4..30 then three failures on top: rank 19 is 23 ms, not 20
    assert tail == 23.0


def test_tail_on_a_failure_reads_as_the_whole_run():
    latencies = [1.0] * 40
    failed = [i < 11 for i in range(40)]
    _p50, tail, _pct = run.latency_metrics(latencies, failed, 20000.0)
    assert tail == 20000.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    ew = workloads.program()
    make = workloads.WORKLOADS[name]
    first = make(ew, seed=11).fingerprint()
    assert make(ew, seed=11).fingerprint() == first
    assert make(ew, seed=12).fingerprint() != first


class Steady:
    """A stand-in workload whose ops take about a millisecond."""

    cycle = 3

    def __init__(self, ew, seed):
        pass

    def op(self, i):
        time.sleep(0.001)


def test_timed_run_is_whole_cycles_of_at_least_the_seconds():
    outcome, elapsed, _setup_s = run.run_timed(Steady, 1, 0.05)
    assert elapsed >= 0.05
    assert len(outcome.latencies) % Steady.cycle == 0


def test_paced_run_is_a_fixed_number_of_cycles():
    paced = type("Paced", (Steady,), {"round_s": 0.01})
    for _ in range(2):
        outcome, _elapsed, _setup_s = run.run_timed(paced, 1, 0.05)
        assert len(outcome.latencies) == 5 * Steady.cycle


def test_cli_mix_round_follows_its_rule():
    workload = workloads.CliMix(workloads.program(), seed=3)
    kinds = [kind for kind, _argv, _expect in workload.round]
    assert len(kinds) == 10 * workload.blocks
    for kind in ("graph", "convert", "stabilize", "enumerate", "certify"):
        assert kinds.count(kind) == 2 * workload.blocks
    formats = [argv[argv.index("--format") + 1] for _k, argv, _e in workload.round]
    assert formats.count("text") == formats.count("json")
    perm = [argv for kind, argv, _e in workload.round if "--via" in argv]
    beyond = [argv for argv in perm
              if workloads.stable_count(tuple(map(int, argv[2].split(",")))) > 10**7]
    assert len(perm) == workload.blocks and len(beyond) == workload.blocks // 2


@pytest.mark.parametrize("code, error", [(3, workloads.Refused), (2, workloads.WrongResult),
                                         (4, workloads.WrongResult)])
def test_only_exit_3_is_a_refusal(code, error):
    workload = workloads.CliMix(workloads.program(), seed=3)
    workload.ew = type("Program", (), {"cli": type("Cli", (), {
        "main": staticmethod(lambda argv: code)})})
    with pytest.raises(error):
        workload.op(0)


def test_objects_count_once_through_nested_enumerators():
    ew = workloads.program()
    d = ew.diagrams.FerrersDiagram((3, 2, 1))
    minimal = len(list(ew.oracles.enumerate_minimal(d)))
    t = tracer.Tracer()
    undo = tracer.install(t, ew)
    try:
        assert len(list(ew.oracles.enumerate_minimal(d))) == minimal
    finally:
        tracer.uninstall(undo)
    assert t.objects == {"oracles.enumerate_minimal": minimal}
    assert t.summary()["oracles.enumerate_stable"]["calls"] == 1
