"""Timed pairs and rounds, and the checks on their answers.

`decide` is the timed path of one pair: parse, validate, read the
expectations, enumerate, evaluate the assertion and, for the corpus, render
every witness as Graphviz text, as `memlit check --dot` does.  `Checker.check`
runs after the clock stops.  Import this module only after
`run.import_memlit()`.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import time
import traceback
import tracemalloc
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from memlit import (
    OutcomeSet,
    Program,
    ResourceLimitError,
    Verdict,
    check_axioms,
    enumerate_cxx11,
    enumerate_sc,
    enumerate_tso,
    eval_assertion,
    execution_dot,
    parse_expectations,
    parse_litmus,
    trace_dot,
    validate,
)

from tracing import NullTracer
from workloads import Pair, Workload

ENUMERATE = {  # model -> (span name, function, budget keyword)
    "sc": ("sc.enumerate_sc", enumerate_sc, "max_states"),
    "tso": ("tso.enumerate_tso", enumerate_tso, "max_states"),
    "cxx11": ("axiomatic.enumerate_cxx11", enumerate_cxx11, "max_candidates"),
}
RACE_VERDICTS = ("racy", "race-free")
MIN_ROUNDS = 5


@dataclass
class Decision:
    program: Program
    expectations: tuple[tuple[str, str], ...]
    outcomes: Optional[OutcomeSet] = None  # None on a budget exit
    verdict: Optional[Verdict] = None
    budget_used: int = 0


@dataclass
class Attempt:
    """One timed pair, with the counts taken at its boundaries and the checks' findings."""

    pair: Pair
    round: int
    pair_id: int
    seconds: float = 0.0
    lines: int = 0
    explored: int = 0  # states or candidates; the budget on a budget exit
    complete_runs: int = 0
    outcomes: int = 0
    undecided: bool = False  # ended at the budget
    verdict: str = ""
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def decided(self) -> bool:
        return not self.undecided and not self.problems


def decide(pair: Pair, tr) -> Decision:
    program = tr.call("dsl.parse_litmus", parse_litmus, pair.text)
    problems = tr.call("model.validate", validate, program)
    if problems:
        raise ValueError(f"invalid program: {problems[0]}")
    decision = Decision(program, tr.call("dsl.parse_expectations", parse_expectations, pair.text))
    span, enumerate_fn, budget_keyword = ENUMERATE[pair.model]
    budget = {} if pair.budget is None else {budget_keyword: pair.budget}
    try:
        decision.outcomes = tr.call(span, enumerate_fn, program, **budget)
    except ResourceLimitError as exc:
        decision.budget_used = exc.limit
        return decision
    decision.verdict = tr.call("model.eval_assertion", eval_assertion, program.assertion, decision.outcomes)
    if pair.export_dot:
        span, render = ("dot.execution_dot", execution_dot) if pair.model == "cxx11" else ("dot.trace_dot", trace_dot)
        witnesses = decision.outcomes.witnesses
        for i, outcome in enumerate(decision.outcomes.sorted_outcomes()):
            tr.call(span, render, program, witnesses[outcome], title=f"{program.name}-{pair.model}-{i}")
    return decision


def digest(outcomes: OutcomeSet, pair: Pair) -> str:
    """Hash of the outcome set and race flag, with the seed's renaming undone."""

    def value(v: int) -> int:
        return pair.values.get(v, v)

    def location(name: str) -> str:
        return pair.locations.get(name, name)

    rows = []
    for o in outcomes.outcomes:
        regs = " ".join(f"{t}:{r}={value(v)}" for t, r, v in o.registers)
        mem = " ".join(f"{location(m)}={value(v)}" for m, v in sorted(o.memory, key=lambda mv: location(mv[0])))
        rows.append(f"{regs} | {mem}")
    text = ("racy" if outcomes.racy else "race-free") + "\n" + "\n".join(sorted(rows))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """Answer checks; every finding lands in the attempt's `problems`."""

    def __init__(self, tr) -> None:
        self.tr = tr  # check_axioms calls are traced in the traced run
        self.first: dict[str, tuple] = {}
        self.sc_outcomes: dict[object, frozenset] = {}
        # Witnesses are judged once per program text: a repeat must match its
        # first attempt's outcome digest, so judging it again adds nothing but
        # time that the run would otherwise spend on more repeats.
        self.witnesses_judged: set[object] = set()

    def check(self, attempt: Attempt, d: Decision) -> None:
        pair = attempt.pair
        attempt.lines = len(pair.text.splitlines())
        if d.outcomes is None:
            attempt.undecided, attempt.explored = True, d.budget_used
        else:
            self._check_answer(attempt, d)
        # Every round of a pair repeats the work: later rounds of a ladder use
        # another renaming, so this is also the check that renaming changes nothing.
        signature = (attempt.undecided, attempt.explored, attempt.complete_runs, attempt.outcomes, attempt.digest)
        first = self.first.setdefault(pair.key, signature)
        if signature != first:
            attempt.problems.append(f"(undecided, explored, runs, outcomes, digest) {signature} != first {first}")

    def _check_answer(self, attempt: Attempt, d: Decision) -> None:
        pair, outcomes = attempt.pair, d.outcomes
        attempt.explored = outcomes.stats.explored
        attempt.complete_runs = outcomes.stats.complete_runs
        attempt.outcomes = len(outcomes.outcomes)
        attempt.verdict = d.verdict.kind
        attempt.digest = digest(outcomes, pair)
        for model, expected in d.expectations:
            if model != pair.model:
                continue
            actual = ("racy" if outcomes.racy else "race-free") if expected in RACE_VERDICTS else d.verdict.kind
            if actual != expected:
                attempt.problems.append(f"expected {expected}, got {actual}")
        if pair.sc_relation is not None:
            if pair.text not in self.sc_outcomes:
                self.sc_outcomes[pair.text] = enumerate_sc(d.program).outcomes
            sc = self.sc_outcomes[pair.text]
            if pair.sc_relation == "equal" and sc != outcomes.outcomes:
                attempt.problems.append(f"{pair.model} outcomes differ from SC ({len(outcomes.outcomes)} vs {len(sc)})")
            if pair.sc_relation == "subset" and not sc <= outcomes.outcomes:
                attempt.problems.append(f"{len(sc - outcomes.outcomes)} SC outcomes missing under {pair.model}")
        if pair.check_witnesses and pair.text not in self.witnesses_judged:
            self.witnesses_judged.add(pair.text)
            for witness in outcomes.witnesses.values():
                judgment = self.tr.call("axiomatic.check_axioms", check_axioms, d.program, witness)
                if not judgment.consistent:
                    attempt.problems.append(f"witness violates {', '.join(judgment.violated)}")


def run_pair(attempt, tr, checker) -> None:
    started = time.perf_counter()
    try:
        with tr.span("pair", attempt.pair_id):
            decision = decide(attempt.pair, tr)
    except Exception:  # a crashed pair is a failed pair; the rest still run and report
        attempt.seconds = time.perf_counter() - started
        attempt.problems.append("crashed")
        print(f"{attempt.pair.key}: crashed\n{traceback.format_exc()}", file=sys.stderr)
        return
    attempt.seconds = time.perf_counter() - started
    with tr.span("check", attempt.pair_id):
        checker.check(attempt, decision)
    # Returning frees the decision here, off the clock, not inside the next pair.


class Tally:
    """The attempts of a run, folded per pair as they finish.

    Only each pair's first attempt and the times of its repeats are kept, so
    the benchmark's own memory, part of peak RSS, does not grow with the
    number of rounds a run gets through.
    """

    def __init__(self) -> None:
        self.first: dict[str, Attempt] = {}
        self.times: dict[str, array] = {}
        self.all_decided: dict[str, bool] = {}
        self.attempted = self.decided = self.undecided = self.failed = 0
        self.seconds = 0.0
        self.problems: list[tuple[str, int, str]] = []

    def add(self, attempt: Attempt) -> None:
        key = attempt.pair.key
        if key not in self.first:
            self.first[key], self.times[key], self.all_decided[key] = attempt, array("d"), True
        self.times[key].append(attempt.seconds)
        self.all_decided[key] = self.all_decided[key] and attempt.decided
        self.attempted += 1
        self.decided += attempt.decided
        self.undecided += attempt.undecided
        self.failed += bool(attempt.problems)
        self.seconds += attempt.seconds
        self.problems += [(key, attempt.round, problem) for problem in attempt.problems]


def run_round(workload: Workload, index: int, tr, checker, sink) -> None:
    """Run every pair of round `index` once and hand each checked attempt to `sink`."""
    # Each pair starts from the same collector state, as a fresh `memlit check`
    # process does: survivors of set-up and earlier rounds are frozen out of
    # the collector's view, and the garbage of the previous pair is collected
    # off the clock.  Without this, when a collection lands decides the time.
    gc.collect()
    gc.freeze()
    pairs = workload.round(index)
    for position, pair in enumerate(pairs):
        attempt = Attempt(pair, index, index * len(pairs) + position)
        gc.collect()
        run_pair(attempt, tr, checker)
        sink(attempt)


def run_for(workload: Workload, seconds: float, tr, checker, sink, between=None) -> int:
    """Whole rounds until `seconds` have passed; returns the number of rounds.

    `between(fraction)` runs after each round with the share of `seconds` gone.
    """
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        run_round(workload, rounds, tr, checker, sink)
        rounds += 1
        if between is not None:
            between((time.perf_counter() - started) / seconds)
    return rounds


def run_baseline(workload: Workload, checker, sink) -> None:
    """Decide the ROADMAP's baseline rungs once, off the clock, and check their explored counts."""
    for pair, explored in workload.baseline:
        attempt = Attempt(pair, -1, -1)
        gc.collect()
        run_pair(attempt, NullTracer(), checker)
        if attempt.undecided or attempt.explored != explored:
            attempt.problems.append(f"explored {attempt.explored}, ROADMAP baseline {explored}")
        sink(attempt)


def bytes_per_state(workload: Workload) -> dict[str, float]:
    """Peak traced bytes of each sc/tso enumeration in round 0, per state explored."""
    peak = defaultdict(int)
    states = defaultdict(int)
    for pair in workload.round(0):
        if pair.model not in ("sc", "tso"):
            continue
        program = parse_litmus(pair.text)
        tracemalloc.start()
        try:
            outcomes = ENUMERATE[pair.model][1](program)
            peak[pair.model] += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states[pair.model] += outcomes.stats.explored
    return {model: peak[model] / states[model] if states[model] else 0.0 for model in ("sc", "tso")}
