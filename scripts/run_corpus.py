#!/usr/bin/env python3
"""Run every litmus file in a corpus directory and print a verdict table.

Checks "# expected:" annotations the same way the CLI does; exits 1 on the
first-class failure modes (mismatch, parse or validation error).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from memlit import (
    ParseError,
    enumerate_cxx11,
    enumerate_sc,
    enumerate_tso,
    eval_assertion,
    parse_expectations,
    parse_litmus,
    validate,
)

ENUMERATE = {"sc": enumerate_sc, "tso": enumerate_tso, "cxx11": enumerate_cxx11}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "corpus",
        nargs="?",
        default=str(Path(__file__).resolve().parent.parent / "corpus"),
        help="directory of .lit files (default: the repository corpus)",
    )
    args = parser.parse_args()

    paths = sorted(Path(args.corpus).glob("*.lit"))
    if not paths:
        print(f"no .lit files under {args.corpus}", file=sys.stderr)
        return 1

    failures = 0
    width = max(len(p.stem) for p in paths)
    print(f"{'test':<{width}}  {'sc':<9} {'tso':<9} {'cxx11':<9} {'race':<9} time")
    started_all = time.perf_counter()
    for path in paths:
        raw = path.read_bytes()
        try:
            program = parse_litmus(raw)
        except ParseError as exc:
            print(f"{path.stem:<{width}}  parse error: {exc}", file=sys.stderr)
            failures += 1
            continue
        problems = validate(program)
        if problems:
            print(f"{path.stem:<{width}}  invalid: {problems[0]}", file=sys.stderr)
            failures += 1
            continue

        started = time.perf_counter()
        results = {model: run(program) for model, run in ENUMERATE.items()}
        seconds = time.perf_counter() - started
        verdicts = {
            model: eval_assertion(program.assertion, outcomes).kind
            for model, outcomes in results.items()
        }
        race = "racy" if results["cxx11"].racy else "race-free"

        mismatches = []
        for model, expected in parse_expectations(raw):
            actual = race if expected in ("racy", "race-free") else verdicts[model]
            if actual != expected:
                mismatches.append(f"{model}: expected {expected}, got {actual}")
        if mismatches:
            failures += 1

        line = (
            f"{path.stem:<{width}}  {verdicts['sc']:<9} {verdicts['tso']:<9}"
            f" {verdicts['cxx11']:<9} {race:<9} {seconds:5.2f}s"
        )
        print(line + ("  <- " + "; ".join(mismatches) if mismatches else ""))

    total = time.perf_counter() - started_all
    print(f"\n{len(paths)} tests, {failures} failures, {total:.1f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
