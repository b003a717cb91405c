#!/usr/bin/env python3
"""Export one dot graph per witnessed outcome for the given litmus files.

Axiomatic witnesses become event graphs (sb/rf/mo/sw edges); operational
witnesses become numbered traces with program-order and propagation edges.
Render with e.g.: dot -Tsvg out/dekker-tso-0.dot > dekker-tso-0.svg
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from memlit import (
    ParseError,
    Program,
    enumerate_cxx11,
    enumerate_sc,
    enumerate_tso,
    execution_dot,
    parse_litmus,
    trace_dot,
    validate,
)

ENUMERATE = {"sc": enumerate_sc, "tso": enumerate_tso, "cxx11": enumerate_cxx11}


def load(name: str) -> Optional[Program]:
    """The parsed, valid program, or None after printing why it is not one."""
    try:
        program = parse_litmus(Path(name).read_bytes())
    except ParseError as exc:
        for d in exc.diagnostics:
            where = f":{d.span.line}:{d.span.column}" if d.span else ""
            print(f"{name}{where}: error: {d.message}", file=sys.stderr)
        return None
    problems = validate(program)
    for d in problems:
        place = "" if d.thread is None else f" (thread {d.thread}, instruction {d.instruction})"
        print(f"{name}: error: {d.rule}: {d.message}{place}", file=sys.stderr)
    return None if problems else program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="litmus files to export")
    parser.add_argument("--out", default="witnesses", help="output directory")
    parser.add_argument(
        "--model", choices=(*ENUMERATE, "all"), default="all", help="which model(s) to run"
    )
    args = parser.parse_args()

    models = tuple(ENUMERATE) if args.model == "all" else (args.model,)
    programs = [load(name) for name in args.files]
    if any(program is None for program in programs):
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for program in programs:
        for model in models:
            outcomes = ENUMERATE[model](program)
            for i, outcome in enumerate(outcomes.sorted_outcomes()):
                witness = outcomes.witnesses[outcome]
                title = f"{program.name}-{model}-{i}"
                render = execution_dot if model == "cxx11" else trace_dot
                target = out_dir / f"{title}.dot"
                target.write_text(render(program, witness, title=title))
                print(f"{target}  # {outcome.format()}")
                written += 1
    print(f"{written} graphs under {out_dir}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
