#!/usr/bin/env python3
"""memlit benchmark: time to verdict, decided share and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, on one thread: whole rounds until S
seconds have passed, and at least five rounds.  A pair is one (program,
model) verdict, and a round runs every pair of the workload once.  A pair's
time to verdict is the fastest of its repeats in the run: on a shared host
the slower repeats mostly measure other tenants.  Every answer is checked.
After the rounds, the workload's ROADMAP baseline rungs are decided once
more, off the clock, and their explored counts checked.  The run prints one
row per pair with its outcome digest, then each metric with its unit, then,
as its last line, one JSON object.  The exit code is 1 when an answer check
fails and 2 when the benchmark cannot run at all (for example when
src/memlit is missing).

--trace 0 reports the end-to-end metrics.  --trace 1 runs rounds for S/2
seconds untraced, repeats the same rounds with a span around every call into
memlit, runs the sc/tso pairs once more under tracemalloc, and reports the
per-layer metrics.  Spans are written to perfbench/out/.  README.md gives the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from tracing import NullTracer, Tracer
from workloads import ROOT, VARIANTS, WORKLOADS, Workload, build

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11


def import_memlit():
    """Import memlit from this checkout's src/, never from an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import memlit

    if src not in Path(memlit.__file__).resolve().parents:
        raise ImportError(f"memlit was imported from {memlit.__file__}, not from {src}")


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process that imports memlit and builds the inputs."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.split()[-1])


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks; budget exits sort last as infinity."""
    position = p / 100 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    a, b = ordered[low], ordered[high]
    if fraction == 0:
        return a
    if math.isinf(b):
        return b
    return a + (b - a) * fraction


def tail_percentile(n: int) -> int:
    """The highest whole percentile of n sorted samples with at least ten samples beyond it."""
    for p in range(99, 50, -1):
        if n - 1 - math.floor(p / 100 * (n - 1)) >= 10:
            return p
    raise ValueError(f"{n} samples leave no percentile above the median with ten beyond it")


def end_to_end(tally, setup: list[float]) -> tuple[dict, list[str]]:
    # A pair's sample is its fastest repeat.  A budget exit or a wrong answer
    # misses every latency limit, so such a pair ranks as infinity.
    best = {key: min(times) for key, times in tally.times.items()}
    ordered = sorted(best[key] if tally.all_decided[key] else math.inf for key in best)
    p = tail_percentile(len(ordered))
    p50, tail_value = percentile(ordered, 50), percentile(ordered, p)
    if math.isinf(tail_value):
        raise RuntimeError(f"more than {100 - p}% of the pairs are undecided or wrong")
    beyond = sum(t > tail_value for t in ordered)
    repeats = [len(times) for times in tally.times.values()]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdicts_per_s": (sum(tally.all_decided.values()) / sum(best.values()), "1/s"),
        "verdict_ms.p50": (p50 * 1000, "ms"),
        "verdict_ms.tail": (tail_value * 1000, "ms"),
        "decided_ratio": (tally.decided / tally.attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh processes spread over the run: " + " ".join(f"{s:.4f}" for s in setup),
        f"verdicts_per_s: decided pairs / summed fastest times of all {len(best)} pairs, budget exits included",
        f"verdict_ms: samples are the {len(best)} pairs' fastest times, each of {min(repeats)}-{max(repeats)} repeats",
        f"verdict_ms.tail: p{p} of {len(ordered)} samples, {beyond} beyond it",
        f"decided_ratio: {tally.decided} of {tally.attempted} attempts; "
        f"{tally.undecided} budget exits, {tally.failed} failed",
    ]
    return metrics, notes


def per_layer(tracer: Tracer, traced: list, rounds: int, untraced_seconds: float, memory: dict) -> dict:
    """Per-layer metrics, each per round (one pass over every pair of the workload).

    check_axioms runs only in the first round of each renaming, so its
    metrics are per such round.
    """
    totals = tracer.totals()

    def calls(*names: str, per: int = rounds) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names) / per

    def seconds(*names: str, per: int = rounds) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names) / per

    def count(model: str, field: str) -> float:
        return sum(getattr(a, field) for a in traced if a.pair.model == model) / rounds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {
        "dsl.parse_litmus.calls": (calls("dsl.parse_litmus"), "count"),
        "dsl.parse_litmus.s": (seconds("dsl.parse_litmus"), "s"),
        "dsl.lines_per_s": (ratio(sum(a.lines for a in traced) / rounds, seconds("dsl.parse_litmus")), "1/s"),
        "dsl.parse_expectations.s": (seconds("dsl.parse_expectations"), "s"),
        "model.validate.s": (seconds("model.validate"), "s"),
        "model.eval_assertion.s": (seconds("model.eval_assertion"), "s"),
        "model.eval_assertion.outcomes": (sum(a.outcomes for a in traced) / rounds, "count"),
    }
    for model, span in (("sc", "sc.enumerate_sc"), ("tso", "tso.enumerate_tso")):
        states, runs, outcomes = count(model, "explored"), count(model, "complete_runs"), count(model, "outcomes")
        metrics.update({
            f"{span}.calls": (calls(span), "count"),
            f"{span}.s": (seconds(span), "s"),
            f"{model}.states": (states, "count"),
            f"{model}.complete_runs": (runs, "count"),
            f"{model}.states_per_s": (ratio(states, seconds(span)), "1/s"),
            f"{model}.outcomes": (outcomes, "count"),
            f"{model}.useful_ratio": (ratio(outcomes, runs), "ratio"),
            f"{model}.bytes_per_state": (memory[model], "B"),
        })
    candidates, outcomes = count("cxx11", "explored"), count("cxx11", "outcomes")
    judged = min(rounds, VARIANTS)
    metrics.update({
        "axiomatic.enumerate_cxx11.s": (seconds("axiomatic.enumerate_cxx11"), "s"),
        "axiomatic.candidates": (candidates, "count"),
        "axiomatic.candidates_per_s": (ratio(candidates, seconds("axiomatic.enumerate_cxx11")), "1/s"),
        "axiomatic.outcomes": (outcomes, "count"),
        "axiomatic.useful_ratio": (ratio(outcomes, candidates), "ratio"),
        "axiomatic.budget_exits": (count("cxx11", "undecided"), "count"),
        "axiomatic.check_axioms.calls": (calls("axiomatic.check_axioms", per=judged), "count"),
        "axiomatic.check_axioms.s": (seconds("axiomatic.check_axioms", per=judged), "s"),
        "dot.graphs": (calls("dot.trace_dot", "dot.execution_dot"), "count"),
        "dot.s": (seconds("dot.trace_dot", "dot.execution_dot"), "s"),
        "trace.overhead_ratio": (ratio(sum(a.seconds for a in traced), untraced_seconds), "ratio"),
    })
    return metrics


def print_rows(tally) -> None:
    """One row per pair: counts and digest of its first attempt, fastest and median time of all."""
    print(f"{'pair':<32} {'explored':>9} {'outcomes':>8} {'verdict':<9} {'digest':<16} {'ms best':>9} {'ms p50':>9}  n")
    for key, first in tally.first.items():
        verdict = "budget" if first.undecided else first.verdict
        times = tally.times[key]
        print(f"{key:<32} {first.explored:>9} {first.outcomes:>8} {verdict:<9} {first.digest:<16} "
              f"{min(times) * 1000:>9.3f} {statistics.median(times) * 1000:>9.3f}  {len(times)}")


def print_baseline(workload: Workload, tally) -> None:
    for (_, explored), a in zip(workload.baseline, tally.first.values()):
        print(f"baseline {a.pair.key:<32} explored {a.explored:>7} (ROADMAP {explored:>7})  {a.digest}  {a.seconds:.3f} s")


def print_layers(tracer: Tracer, traced: list, rounds: int) -> None:
    """The per-layer table, then per-pair rows of median milliseconds per layer."""
    print(f"{'span':<28} {'calls/round':>11} {'s/round':>10} {'self s/round':>12}")
    for name, (calls, seconds, own) in sorted(tracer.totals().items()):
        print(f"{name:<28} {calls / rounds:>11.1f} {seconds / rounds:>10.4f} {own / rounds:>12.4f}")
    layer_ms: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, start, end, parent, pair_id in tracer.spans:
        if parent >= 0 and tracer.spans[parent][0] == "check":
            continue  # inside the check column
        layer_ms[pair_id][name.split(".")[0]] += (end - start) * 1000
    columns = ("pair", "dsl", "model", "sc", "tso", "axiomatic", "dot", "check")
    by_key: dict[str, list] = defaultdict(list)
    for a in traced:
        by_key[a.pair.key].append(layer_ms[a.pair_id])
    print(f"{'pair (median ms)':<32} " + " ".join(f"{c:>9}" for c in columns))
    for key, rows in by_key.items():
        print(f"{key:<32} " + " ".join(f"{statistics.median(r[c] for r in rows):>9.3f}" for c in columns))


def untraced_run(workload: Workload, seconds: float, checker) -> tuple[int, dict, list[str], list]:
    import measure  # only after import_memlit()

    setup: list[float] = []

    def probe(fraction: float) -> None:
        # Set-up is timed between rounds, spread over the run, so that its
        # median sees the same machine as the rounds do.
        while len(setup) < SETUP_PROBES and len(setup) <= fraction * SETUP_PROBES:
            setup.append(measure_setup(workload.name, workload.seed))

    tally = measure.Tally()
    rounds = measure.run_for(workload, seconds, NullTracer(), checker, tally.add, probe)
    print_rows(tally)
    metrics, notes = end_to_end(tally, setup)
    return rounds, metrics, notes, [tally]


def traced_run(workload: Workload, seconds: float, checker) -> tuple[int, dict, list[str], list]:
    import measure  # only after import_memlit()

    untraced = measure.Tally()
    rounds = measure.run_for(workload, seconds / 2, NullTracer(), checker, untraced.add)
    # The traced rounds repeat the untraced ones.  A checker of their own
    # judges the witnesses again, inside the traced rounds.
    tracer = Tracer()
    traced_checker = measure.Checker(tracer)
    traced: list = []
    for index in range(rounds):
        measure.run_round(workload, index, tracer, traced_checker, traced.append)
    tally = measure.Tally()
    for attempt in traced:
        tally.add(attempt)
    memory = measure.bytes_per_state(workload)
    print_rows(tally)
    print_layers(tracer, traced, rounds)
    metrics = per_layer(tracer, traced, rounds, untraced.seconds, memory)
    spans = HERE / "out" / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(spans)
    judged_rounds = min(rounds, VARIANTS)
    notes = [
        f"per-layer metrics are per round, check_axioms per round that judges witnesses (the first {judged_rounds}); "
        f"{rounds} rounds traced, the same {rounds} untraced",
        f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}",
    ]
    return rounds, metrics, notes, [untraced, tally]


def main() -> int:
    parser = argparse.ArgumentParser(description="memlit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        import_memlit()
        workload = build(args.workload, args.seed)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    import measure  # only after import_memlit()

    checker = measure.Checker(NullTracer())
    run = traced_run if args.trace else untraced_run
    rounds, metrics, notes, tallies = run(workload, args.seconds, checker)
    baseline = measure.Tally()
    measure.run_baseline(workload, checker, baseline.add)
    print_baseline(workload, baseline)
    tallies.append(baseline)

    problems = [problem for tally in tallies for problem in tally.problems]
    for key, index, problem in problems:
        print(f"CHECK FAILED {key} round {index}: {problem}", file=sys.stderr)
    attempted = sum(tally.attempted for tally in tallies)
    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds, {attempted} pairs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(tally.failed for tally in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
