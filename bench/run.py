"""ewtab benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root (the package is read from ./src, it need
not be installed):

    python3 bench/run.py --workload grain-walk --seed 1 --seconds 10 --trace 0

--trace 0 runs the workload's closed loop (one client, one process, no
threads) in whole cycles of its ops for --seconds (cli-mix: for a fixed
number of rounds, see run_timed) and reports the end-to-end metrics;
set-up (fresh import, diagrams, inputs) is repeated through the run and
setup_s is the median. --trace 1 runs a fixed, seed-determined pass of
the workload twice, untraced and then
with every public function of the eight layer modules wrapped in a span,
and reports the per-layer metrics; the pass is fixed rather than timed so
that every count repeats exactly for a seed. Spans are written to
.bench_out/ when the run ends.

Each op checks its own result. A wrong result or an exception makes the
run incorrect (exit 1); a valid request the program refuses counts as a
failure only. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; lines before it describe
the run for a reader.
"""

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7  # at least; cheap set-ups repeat until SETUP_BUDGET_S
SETUP_BUDGET_S = 1.5
LIMIT_S = 120  # a run starts no cycle after this many seconds of ops
SAMPLES_BEYOND = 10
HOT_FUNCTIONS = (
    "diagrams.degree",
    "diagrams.neighbors",
    "diagrams.spanning_tree_count",
    "sandpile.stabilize",
    "sandpile.canonical_toppling",
    "sandpile.burning_order",
    "tableaux.validate",
    "tableaux.corner_support",
    "tableaux.canonical_bounds",
    "tableaux.canonical_toppling",
    "permutations.stabilize",
    "permutations.decorated_from_config",
    "trees.perm_to_tree",
    "trees.tree_to_perm",
    "oracles.enumerate_recurrent",
    "oracles.enumerate_tableaux",
)


def tail_rank(n):
    """Index, in ascending order, of the highest percentile that still has
    SAMPLES_BEYOND samples above it; the maximum when there are too few
    samples for that."""
    return n - SAMPLES_BEYOND - 1 if n > SAMPLES_BEYOND else n - 1


def latency_metrics(latencies, failed_flags, run_ms):
    """Median and tail latency over every attempted op.

    Failed ops rank above every success. When the tail rank falls on a
    failure, the tail is reported as the whole run's duration, the most a
    run can measure. Returns (p50_ms, tail_ms, tail_percentile).
    """
    ranked = sorted(
        (float("inf") if bad else ms) for ms, bad in zip(latencies, failed_flags)
    )
    rank = tail_rank(len(ranked))
    p50 = statistics.median(ranked)
    tail = ranked[rank]
    return (
        run_ms if p50 == float("inf") else p50,
        run_ms if tail == float("inf") else tail,
        100.0 * (rank + 1) / len(ranked),
    )


def end_to_end_metrics(latencies, failed_flags, elapsed_s, setup_s, peak_rss_mb):
    attempted = len(latencies)
    failed = sum(failed_flags)
    p50, tail, pct = latency_metrics(latencies, failed_flags, elapsed_s * 1000.0)
    metrics = {
        "ops_per_s": ((attempted - failed) / elapsed_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "op_tail_ms": "p%.2f, %d of %d samples beyond" % (
            pct, attempted - tail_rank(attempted) - 1, attempted),
        "success_ratio": "fail_ratio %.6f ratio = %d failed / %d attempted" % (
            failed / attempted, failed, attempted),
    }
    return metrics, notes


def per_layer_metrics(summary, untraced_s, traced_s, counts):
    op_ns = summary[tracer.ROOT]["total_ns"]
    metrics = {}
    for layer in tracer.LAYERS:
        rows = [v for k, v in summary.items() if k.split(".", 1)[0] == layer]
        self_ns = sum(r["self_ns"] for r in rows)
        metrics[layer + ".calls"] = (sum(r["calls"] for r in rows), "count")
        metrics[layer + ".self_s"] = (self_ns / 1e9, "s")
        metrics[layer + ".share"] = (self_ns / op_ns, "ratio")
    empty = {"calls": 0, "self_ns": 0}
    for name in HOT_FUNCTIONS:
        row = summary.get(name, empty)
        metrics[name + ".calls"] = (row["calls"], "count")
        metrics[name + ".self_s"] = (row["self_ns"] / 1e9, "s")
    metrics["sandpile.topples"] = (counts["topples"], "count")
    metrics["permutations.settles"] = (counts["settles"], "count")
    metrics["permutations.topples"] = (counts["word_topples"], "count")
    metrics["oracles.objects"] = (counts["objects"], "count")
    metrics["oracles.enum_per_s"] = (
        counts["objects"] / (counts["enum_ns"] / 1e9) if counts["enum_ns"] else 0.0, "1/s")
    metrics["cli.refusals"] = (counts["refusals"], "count")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


def environment():
    """Interpreter and machine facts. Also unsets EWTAB_ORACLE_BUDGET, so
    the oracles run at their default budget, and records what it was."""
    budget_env = os.environ.pop("EWTAB_ORACLE_BUDGET", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "oracle_budget_env": budget_env,
    }


def setup(workload_cls, seed):
    """Import, construct diagrams and generate inputs; returns the workload
    and the seconds it took."""
    start = time.perf_counter()
    workload = workload_cls(workloads.load_program(), seed)
    return workload, time.perf_counter() - start


class Outcome:
    """Tally of a sequence of ops."""

    def __init__(self):
        self.latencies = []
        self.failed = []
        self.errors = []

    def run(self, op, i):
        """Run op(i), timing it and recording how it ended."""
        start = time.perf_counter()
        bad = False
        try:
            op(i)
        except workloads.Refused:
            bad = True
        except Exception:
            bad = True
            self.errors.append(traceback.format_exc())
        self.latencies.append((time.perf_counter() - start) * 1000.0)
        self.failed.append(bad)

    @property
    def correct(self):
        return not self.errors


def run_timed(workload_cls, seed, seconds):
    """Run whole cycles of the workload's ops, so that every run measures
    the same mix whatever its seed: until `seconds` have passed, or, for a
    workload with a `round_s`, a fixed number of cycles that take about
    `seconds` at that pace, so that attempted and failed repeat exactly.
    Fresh set-ups, SETUP_REPEATS or enough to fill SETUP_BUDGET_S, are
    spread between cycles, so that their median sees the same machine
    conditions as the ops; the ops carry on with the first workload.
    Returns the outcome, the seconds spent in ops and the median set-up
    time."""
    workload, first = setup(workload_cls, seed)
    setups = [first]
    repeats = max(SETUP_REPEATS, math.ceil(SETUP_BUDGET_S / first))
    round_s = getattr(workload, "round_s", None)
    cycles = max(1, round(seconds / round_s)) if round_s else None
    outcome = Outcome()
    elapsed = 0.0
    done = 0
    while (done < cycles if cycles else elapsed < seconds) and elapsed < LIMIT_S:
        if elapsed >= seconds * len(setups) / repeats:
            setups.append(setup(workload_cls, seed)[1])
        start = time.perf_counter()
        for _ in range(workload.cycle):
            outcome.run(workload.op, len(outcome.latencies))
        elapsed += time.perf_counter() - start
        done += 1
    while len(setups) < repeats:
        setups.append(setup(workload_cls, seed)[1])
    return outcome, elapsed, statistics.median(setups)


def run_traced(workload, out_path, meta):
    """The workload's fixed pass, untraced and then traced; returns both
    outcomes and the per-layer metrics, and writes the spans."""
    ew = workload.ew
    ops = workload.trace_ops
    workload.reset()
    plain = Outcome()
    start = time.perf_counter()
    for i in range(ops):
        plain.run(workload.op, i)
    untraced_s = time.perf_counter() - start

    workload.reset()
    t = tracer.Tracer()
    undo = tracer.install(t, ew, capture_args={"permutations.stabilize"},
                          capture_results={"sandpile.stabilize", "cli.main"})
    traced = Outcome()
    op = functools.partial(t.run_op, workload.op)
    try:
        start = time.perf_counter()
        for i in range(ops):
            traced.run(op, i)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall(undo)

    # Replays and sums run after uninstall, outside every span.
    settles = word_topples = 0
    for args, kwargs in t.calls.get("permutations.stabilize", []):
        events = ew.permutations.stabilize(*args, **dict(kwargs, trace=True))[2]
        settles += sum(1 for e in events if e["action"] == "settle")
        word_topples += sum(1 for e in events if e["action"] == "topple")
    counts = {
        "topples": sum(sum(c.values()) for _h, c in t.results.get("sandpile.stabilize", [])),
        "settles": settles,
        "word_topples": word_topples,
        "objects": sum(v for k, v in t.objects.items() if k.startswith("oracles.")),
        "enum_ns": sum(v for k, v in t.object_ns.items() if k.startswith("oracles.")),
        "refusals": sum(1 for code in t.results.get("cli.main", [])
                        if code == workloads.REFUSED_EXIT),
    }
    metrics = per_layer_metrics(t.summary(), untraced_s, traced_s, counts)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    t.write(out_path, meta)
    return traced, plain, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ewtab" / "__init__.py").is_file():
        print("error: %s/ewtab not found; run from a source checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    env = environment()
    ew = workloads.program()
    if not Path(ew.package.__file__).resolve().is_relative_to(src):
        print("error: ewtab was imported from %s, not %s" % (ew.package.__file__, src),
              file=sys.stderr)
        return 2
    meta = dict(env, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, oracle_budget=ew.oracles.DEFAULT_BUDGET)
    print("# " + " ".join("%s=%s" % kv for kv in meta.items()))

    workload_cls = workloads.WORKLOADS[args.workload]
    notes = {}
    if args.trace == 0:
        outcome, elapsed, setup_s = run_timed(workload_cls, args.seed, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, notes = end_to_end_metrics(
            outcome.latencies, outcome.failed, elapsed, setup_s, rss_mb)
    else:
        out_path = ROOT / ".bench_out" / ("%s-spans.json.gz" % args.workload)
        workload, _seconds = setup(workload_cls, args.seed)
        outcome, plain, metrics = run_traced(workload, out_path, meta)
        outcome.errors += plain.errors
        print("# spans written to %s" % out_path.relative_to(ROOT))

    for name, (value, unit) in metrics.items():
        extra = "  (%s)" % notes[name] if name in notes else ""
        print("# %-36s %16.6f %s%s" % (name, value, unit, extra))
    for error in outcome.errors[:3]:
        print(error, file=sys.stderr)
    result = {
        "correct": outcome.correct,
        "attempted": len(outcome.latencies),
        "failed": sum(outcome.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
