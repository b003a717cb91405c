"""Command line driver.

`memlit check FILE...` parses and validates litmus files, enumerates their
final outcomes under the selected models, evaluates each assertion, and
checks any `# expected: MODEL VERDICT` annotations found in comments.  One
file gets the full report; several get one verdict row each, and no model
runs unless every file loads.

Exit codes: 0 every expectation matches (or none present), 1 mismatch,
2 usage/I/O/parse/validation error, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .axiomatic import enumerate_cxx11
from .dot import execution_dot, trace_dot
from .dsl import ParseError, format_expr, parse_expectations, parse_litmus
from .model import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_STATES,
    OutcomeSet,
    Program,
    ResourceLimitError,
    Verdict,
    eval_assertion,
    validate,
)
from .operational import enumerate_sc, enumerate_tso

MODELS = ("sc", "tso", "cxx11")
VERDICTS = ("allowed", "forbidden", "holds", "fails", "racy", "race-free")


@dataclass
class ModelReport:
    model: str
    outcomes: OutcomeSet
    verdict: Verdict
    seconds: float

    @property
    def explored(self) -> int:
        return self.outcomes.stats.explored


@dataclass
class RunReport:
    name: str
    path: str
    condition: str
    models: dict[str, ModelReport] = field(default_factory=dict)
    expectations: list[tuple[str, str, Optional[str]]] = field(default_factory=list)
    # (model, expected, actual); actual None when the model was not run

    @property
    def matched(self) -> bool:
        return all(actual is None or actual == expected for _, expected, actual in self.expectations)


def _enumerate(model: str, program: Program, args: argparse.Namespace) -> OutcomeSet:
    if model == "sc":
        return enumerate_sc(program, max_states=args.max_states)
    if model == "tso":
        return enumerate_tso(program, max_states=args.max_states)
    return enumerate_cxx11(program, max_candidates=args.max_candidates)


def _load(path: str) -> Optional[tuple[Program, tuple[tuple[str, str], ...]]]:
    """The parsed, valid program and its expectations, or None after printing why not."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None

    try:
        program = parse_litmus(raw)
    except ParseError as exc:
        for d in exc.diagnostics:
            print(f"{path}:{d.span.line}:{d.span.column}: error: {d.message}", file=sys.stderr)
        return None

    problems = validate(program)
    if problems:
        for d in problems:
            at = "" if d.instruction is None else f", instruction {d.instruction}"
            place = "" if d.thread is None else f" (thread {d.thread}{at})"
            print(f"{path}: error: {d.rule}: {d.message}{place}", file=sys.stderr)
        return None

    expectations = parse_expectations(raw)
    for model, verdict in expectations:
        if model not in MODELS or verdict not in VERDICTS:
            print(f"{path}: error: malformed expectation '{model} {verdict}'", file=sys.stderr)
            return None
    return program, expectations


def _actual_verdict(report: ModelReport, expected: str) -> str:
    if expected in ("racy", "race-free"):
        return "racy" if report.outcomes.racy else "race-free"
    return report.verdict.kind


def build_report(program: Program, path: str, models: tuple[str, ...], expectations, args) -> RunReport:
    condition = f"{program.assertion.quantifier} {format_expr(program.assertion.formula)}"
    report = RunReport(program.name, path, condition)
    for model in models:
        started = time.perf_counter()
        outcomes = _enumerate(model, program, args)
        seconds = time.perf_counter() - started
        report.models[model] = ModelReport(model, outcomes, eval_assertion(program.assertion, outcomes), seconds)
    for model, expected in expectations:
        actual = _actual_verdict(report.models[model], expected) if model in report.models else None
        report.expectations.append((model, expected, actual))
    return report


def _print_report(report: RunReport, out) -> None:
    print(f"{report.name} ({report.path})", file=out)
    print(f"condition: {report.condition}", file=out)
    for model, m in report.models.items():
        ordered = m.outcomes.sorted_outcomes()
        marked = set(m.verdict.witnesses)
        print(
            f"{model}: {m.verdict.kind}"
            f" ({len(ordered)} outcomes, {m.explored} explored, {m.seconds:.2f}s)",
            file=out,
        )
        if m.outcomes.racy:
            print("  data race in at least one consistent execution: behavior undefined", file=out)
        for outcome in ordered:
            mark = "*" if outcome in marked else " "
            print(f"  {mark} {outcome.format()}", file=out)
    for model, expected, actual in report.expectations:
        if actual is None:
            print(f"expected {model} {expected}: skipped (model not run)", file=out)
        elif actual == expected:
            print(f"expected {model} {expected}: ok", file=out)
        else:
            print(f"expected {model} {expected}: MISMATCH (got {actual})", file=out)


def _print_row_header(models: tuple[str, ...], width: int, out) -> None:
    race = ["race"] if "cxx11" in models else []
    print(f"{'file':<{width}}  " + " ".join(f"{c:<9}" for c in [*models, *race]) + " time", file=out)


def _print_row(report: RunReport, width: int, out) -> None:
    cells = [m.verdict.kind for m in report.models.values()]
    if "cxx11" in report.models:
        cells.append("racy" if report.models["cxx11"].outcomes.racy else "race-free")
    seconds = sum(m.seconds for m in report.models.values())
    mismatches = [
        f"{model}: expected {expected}, got {actual}"
        for model, expected, actual in report.expectations
        if actual is not None and actual != expected
    ]
    row = f"{report.path:<{width}}  " + " ".join(f"{c:<9}" for c in cells) + f" {seconds:5.2f}s"
    print(row + ("  <- " + "; ".join(mismatches) if mismatches else ""), file=out)


def _print_compare(report: RunReport, out) -> None:
    print("comparison:", file=out)
    print(f"  {'model':<7} {'outcomes':>8}  {'verdict':<9} {'races':<5}", file=out)
    for model, m in report.models.items():
        races = "yes" if m.outcomes.racy else "no"
        print(f"  {model:<7} {len(m.outcomes.outcomes):>8}  {m.verdict.kind:<9} {races:<5}", file=out)
    sc = report.models.get("sc")
    tso = report.models.get("tso")
    if sc is not None and tso is not None:
        extra = sc.outcomes.outcomes - tso.outcomes.outcomes
        if extra:
            sample = sorted(extra, key=lambda o: o.format())[0]
            print(f"  SC within TSO: VIOLATED, e.g. {sample.format()}", file=out)
        else:
            strict = tso.outcomes.outcomes - sc.outcomes.outcomes
            note = f" (TSO adds {len(strict)})" if strict else " (equal)"
            print(f"  SC within TSO: holds{note}", file=out)


def _json_document(report: RunReport) -> dict:
    doc: dict = {
        "name": report.name,
        "file": report.path,
        "condition": report.condition,
        "match": report.matched,
        "models": {},
        "expectations": [
            {"model": m, "expected": e, "actual": a, "match": a is None or a == e}
            for m, e, a in report.expectations
        ],
    }
    for model, m in report.models.items():
        doc["models"][model] = {
            "verdict": m.verdict.kind,
            "racy": m.outcomes.racy,
            "outcomes": [o.format() for o in m.outcomes.sorted_outcomes()],
            "witnesses": [o.format() for o in m.verdict.witnesses],
            "explored": m.explored,
            "seconds": round(m.seconds, 6),
        }
    return doc


def _write_dots(report: RunReport, program: Program, directory: Path, out) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for model, m in report.models.items():
        for i, outcome in enumerate(m.outcomes.sorted_outcomes()):
            witness = m.outcomes.witnesses[outcome]  # every backend keeps one per outcome
            title = f"{report.name}-{model}-{i}"  # the parser admits only [A-Za-z_][A-Za-z0-9_]* names
            if model == "cxx11":
                text = execution_dot(program, witness, title=title)
            else:
                text = trace_dot(program, witness, title=title)
            target = directory / f"{title}.dot"
            target.write_text(text)
            print(f"wrote {target}", file=out)


def _positive_int(text: str) -> int:
    value = int(text)  # argparse turns a ValueError into a usage error too
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="memlit", description="litmus test checker for SC, x86-TSO, and C++11 atomics")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run litmus files under one or all models")
    check.add_argument("file", nargs="+", help="litmus files; several print one verdict row each")
    check.add_argument("--model", choices=MODELS + ("all",), default="all")
    check.add_argument("--compare", action="store_true",
                       help="per-model summary table plus the SC-within-TSO check (one file only)")
    check.add_argument("--dot", metavar="DIR", help="write one witness graph per (model, outcome)")
    check.add_argument("--max-states", type=_positive_int, default=DEFAULT_MAX_STATES, metavar="N")
    check.add_argument("--max-candidates", type=_positive_int, default=DEFAULT_MAX_CANDIDATES, metavar="N")
    check.add_argument("--json-ish", metavar="FILE", help="write a single-document JSON summary (one file only)")
    args = parser.parse_args(argv)

    several = len(args.file) > 1
    if several and (args.compare or args.json_ish):
        check.error("--compare and --json-ish take a single file")

    loaded = [_load(path) for path in args.file]
    if None in loaded:
        return 2
    if args.dot:
        # graph files are named after the test, so two tests of one name would collide
        named: dict[str, str] = {}
        for path, (program, _) in zip(args.file, loaded):
            if program.name in named:
                print(f"error: {named[program.name]} and {path} both name their test {program.name};"
                      " --dot would overwrite its graphs", file=sys.stderr)
                return 2
            named[program.name] = path

    models = MODELS if (args.model == "all" or args.compare) else (args.model,)
    width = max(len(path) for path in args.file)
    if several:
        _print_row_header(models, width, sys.stdout)
    started = time.perf_counter()
    mismatched = 0
    for path, (program, expectations) in zip(args.file, loaded):
        try:
            report = build_report(program, path, models, expectations, args)
        except ResourceLimitError as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            return 3
        mismatched += not report.matched
        if several:
            _print_row(report, width, sys.stdout)
        else:
            _print_report(report, sys.stdout)
            if args.compare:
                _print_compare(report, sys.stdout)
        try:
            if args.json_ish:
                Path(args.json_ish).write_text(json.dumps(_json_document(report), indent=2) + "\n")
            if args.dot:
                _write_dots(report, program, Path(args.dot), sys.stdout)
        except OSError as exc:
            print(f"error: cannot write: {exc}", file=sys.stderr)
            return 2
    if several:
        seconds = time.perf_counter() - started
        print(f"{len(args.file)} tests, {mismatched} mismatched, {seconds:.2f} s")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
