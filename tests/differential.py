"""Differential check: memlit's src/ at a git revision against the working tree.

    python tests/differential.py REV [--programs N] [--seed S]

The cases are every corpus file and every program of SINGLE_AXIOM_CASES,
S_EDGE_PROGRAMS and SW_INPUT_PROGRAMS in tests/support.py under sc, tso and
cxx11, once without a budget and once at a budget of TIGHT_BUDGET, which
more than half of those runs exceed (68 of the 123 corpus runs), so where a
budget stops each backend is compared too; every ladder rung of the
benchmark (`perfbench/workloads.py`, imported read-only: its LADDERS and
BASELINE rungs, under the rung's model and candidate budget); and N distinct
programs drawn from `programs()` in tests/support.py with seed S, under all
three models at a budget of RANDOM_BUDGET.  Each case is litmus text, so
both sides parse it themselves.  The parser is compared on its own, too:
each side parses every case text, and the texts of MUTATIONS corpus files
mutated with seed S by `mutated_corpus` in tests/support.py, as str and as
bytes.  It yields the print_litmus text of the program or each diagnostic's
message, line, column, start and end, then what parse_expectations finds in
the text, and, when the text parses, validate's diagnostics as a sorted list
of (rule, message, thread, instruction).  Only the mutated texts that are
UTF-8 and end in a newline are kept: a revision whose spans count an invalid
byte as the three bytes of U+FFFD, or whose end-of-file column ignores a
last line with no newline, differs from the working tree there by design.
Each corpus file and hand-built program also carries every candidate
`grounded_candidates` in tests/support.py builds for it, as plain data, when
there are at most JUDGE_LIMIT of them.  The hand-built programs reach what
the corpus does not: no corpus candidate breaks SC-FENCE-2 alone.

`git archive` extracts src/ at REV into a temporary directory; that copy
and the working tree's src/ then run every case, each in its own
subprocess.  Each run yields its outcome set, the outcomes in report order
(`sorted_outcomes`, as texts), the kind of eval_assertion's verdict on the
program's condition with its witness outcomes' texts in order, racy,
stats.explored, stats.complete_runs, the text of each witness's trace_dot or
execution_dot and each cxx11 witness's S (which no dot draws), or the budget
it exceeded.  Each side also judges those
candidates with its own check_axioms, and yields how many are consistent
and a digest of each whole judgment: consistent, violated, races and the sb,
sw and hb pair sets, so REV must be 2cf8531 or later, where check_axioms
returns pair sets.  For each case that differs
between the sides (the first 20), the script prints the name of each field
that differs and, for a dict-valued field such as the witness dot digests,
the keys whose values differ, and it exits 1; it exits 0 when nothing
differs.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RANDOM_BUDGET = 20_000
TIGHT_BUDGET = 8
JUDGE_LIMIT = 2_000
MUTATIONS = 2_000
MODELS = ("sc", "tso", "cxx11")


def build_cases(count: int, seed: int) -> list[dict]:
    """[{"name", "text", "models": [[model, budget or None], ...]}], working tree's strategy and printer."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import seed as with_seed

    from memlit import parse_litmus, print_litmus
    from perfbench.workloads import BASELINE, LADDER_CANDIDATES, LADDERS, ladder_text
    from support import (
        S_EDGE_PROGRAMS, SINGLE_AXIOM_CASES, SW_INPUT_PROGRAMS, grounded_candidates, mutated_corpus, programs
    )

    def plain(candidate) -> dict:
        events = [
            [e.id, e.thread, e.index, e.kind.value, e.atomic, e.order and e.order.value, e.location,
             e.value_read, e.value_written]
            for e in candidate.events
        ]
        return {"events": events, "rf": list(candidate.rf.items()), "mo": candidate.mo, "sc": candidate.sc_order}

    every_model = [[model, None] for model in MODELS]
    cases = []
    named = [(path.name, path.read_text()) for path in sorted((ROOT / "corpus").glob("*.lit"))]
    named += [(f"single-axiom {case[0]}", case[1]) for case in SINGLE_AXIOM_CASES]
    named += [(f"s-edge {i}", text) for i, text in enumerate(S_EDGE_PROGRAMS)]
    named += [(f"sw-input {i}", text) for i, text in enumerate(SW_INPUT_PROGRAMS)]
    tight_models = [[model, TIGHT_BUDGET] for model in MODELS]
    for name, text in named:
        case = {"name": name, "text": text, "models": every_model}
        candidates = grounded_candidates(parse_litmus(text), JUDGE_LIMIT)
        if candidates is not None:
            case["judge"] = [plain(c) for c in candidates]
        cases.append(case)
        cases.append({"name": f"{name} (budget {TIGHT_BUDGET})", "text": text, "models": tight_models})
    rungs = [(rung, LADDER_CANDIDATES) for ladder in LADDERS.values() for rung in ladder]
    rungs += [(rung, None) for pins in BASELINE.values() for rung, _ in pins]
    for rung, budget in rungs:
        text = ladder_text(rung, ("x", "y"), list(range(1, len(rung.lengths) + 1)))
        budget = budget if rung.model == "cxx11" else None
        cases.append({"name": f"{rung.name} (budget {budget})", "text": text, "models": [[rung.model, budget]]})

    texts: dict[str, None] = {}  # distinct program texts, in draw order
    batch = seed
    while len(texts) < count:

        @with_seed(batch)
        @settings(
            max_examples=count, database=None, deadline=None, phases=[Phase.generate], suppress_health_check=list(HealthCheck)
        )
        @given(programs())
        def draw(program):
            if len(texts) < count:
                texts[print_litmus(program)] = None

        draw()
        batch += 1
    random_models = [[model, RANDOM_BUDGET] for model in MODELS]
    cases += [{"name": f"random {i}", "text": text, "models": random_models} for i, text in enumerate(texts)]

    for i, data in enumerate(mutated_corpus(seed, MUTATIONS)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            continue
        if text.endswith("\n"):
            cases.append({"name": f"mutated {i}", "text": text, "models": []})
    return cases


def run_cases(src: str, cases_path: str, out_path: str) -> None:
    """Run every case with the memlit under `src`, writing one result per run to `out_path`."""
    sys.path.insert(0, src)
    from memlit import (
        ParseError, ResourceLimitError, enumerate_cxx11, enumerate_sc, enumerate_tso, eval_assertion, parse_expectations,
        parse_litmus, print_litmus, validate,
    )
    from memlit.axiomatic import CandidateExecution, check_axioms
    from memlit.dot import execution_dot, trace_dot
    from memlit.model import Event, EventKind, MemoryOrder

    def parsed(source):
        try:
            return print_litmus(parse_litmus(source))
        except ParseError as exc:
            return [[d.message, d.span.line, d.span.column, d.span.start, d.span.end] for d in exc.diagnostics]

    def validated(source):
        try:
            program = parse_litmus(source)
        except ParseError:
            return None
        return sorted(([d.rule, d.message, d.thread, d.instruction] for d in validate(program)), key=json.dumps)

    enumerate_model = {"sc": enumerate_sc, "tso": enumerate_tso, "cxx11": enumerate_cxx11}
    results = {}
    for case in json.loads(Path(cases_path).read_text()):
        text = case["text"]
        results[f"{case['name']} | parse"] = {
            "parse str": parsed(text),
            "parse bytes": parsed(text.encode("utf-8")),
            "expectations": parse_expectations(text),
            "validate": validated(text),
        }
        if not case["models"]:
            continue
        program = parse_litmus(text)
        if "judge" in case:
            judgments = []
            for c in case["judge"]:
                events = tuple(
                    Event(i, t, x, EventKind(kind), atomic, order and MemoryOrder(order), *rest)
                    for i, t, x, kind, atomic, order, *rest in c["events"]
                )
                mo = {loc: tuple(order) for loc, order in c["mo"].items()}
                candidate = CandidateExecution(events, dict(c["rf"]), mo, tuple(c["sc"]))
                j = check_axioms(program, candidate)
                pairs = [sorted(r) for r in (j.sb, j.sw, j.hb)]
                judgments.append([j.consistent, j.violated, j.races] + pairs)
            results[f"{case['name']} | check_axioms"] = {
                "candidates": len(judgments),
                "consistent": sum(j[0] for j in judgments),
                "judgment sha256": hashlib.sha256(json.dumps(judgments).encode()).hexdigest(),
            }
        for model, budget in case["models"]:
            dot = execution_dot if model == "cxx11" else trace_dot
            limit = {} if budget is None else {"max_candidates" if model == "cxx11" else "max_states": budget}
            key = f"{case['name']} | {model}"
            try:
                result = enumerate_model[model](program, **limit)
            except ResourceLimitError as exc:
                results[key] = {"exit": str(exc)}
                continue
            verdict = eval_assertion(program.assertion, result)
            results[key] = {
                "outcomes": sorted(o.format() for o in result.outcomes),
                "report order": [o.format() for o in result.sorted_outcomes()],
                "verdict": [verdict.kind, [o.format() for o in verdict.witnesses]],
                "racy": result.racy,
                "explored": result.stats.explored,
                "complete_runs": result.stats.complete_runs,
                "witness dot sha256": {
                    o.format(): hashlib.sha256(dot(program, w).encode()).hexdigest()
                    for o, w in result.witnesses.items()
                },
                "witness S": {o.format(): getattr(w, "sc_order", None) for o, w in result.witnesses.items()},
            }
    Path(out_path).write_text(json.dumps(results, sort_keys=True))


def differing_fields(old: object, new: object) -> list[str]:
    """One line per field that differs between two results of one case: its
    name, then the keys whose values differ for a dict-valued field, or
    else both values, each cut at 200 characters."""
    if not (isinstance(old, dict) and isinstance(new, dict)):  # one side has no such case
        return [f"whole result: {json.dumps(old)[:200]} -> {json.dumps(new)[:200]}"]
    lines = []
    absent = object()
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, absent), new.get(name, absent)
        if a == b:
            continue
        if isinstance(a, dict) and isinstance(b, dict):
            keys = sorted(k for k in a.keys() | b.keys() if a.get(k, absent) != b.get(k, absent))
            lines.append(f"{name}: {len(keys)} keys differ: {', '.join(keys)}")
        else:
            shown = [json.dumps(v)[:200] if v is not absent else "(absent)" for v in (a, b)]
            lines.append(f"{name}: {shown[0]} -> {shown[1]}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--programs", type=int, default=500, help="distinct random programs (default 500)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random programs (default 0)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        old = Path(tmp) / "rev"
        old.mkdir()
        archive = Path(tmp) / "src.tar"
        subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), args.rev, "src"], cwd=ROOT, check=True)
        subprocess.run(["tar", "-xf", str(archive), "-C", str(old)], check=True)

        cases = build_cases(args.programs, args.seed)
        cases_path = Path(tmp) / "cases.json"
        cases_path.write_text(json.dumps(cases))
        # Same hash seed on both sides, so set iteration order cannot tell them apart.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | {"PYTHONHASHSEED": "0"}
        sides = {"rev": str(old / "src"), "tree": str(ROOT / "src")}
        workers = {
            side: subprocess.Popen(
                [sys.executable, __file__, "--worker", src, str(cases_path), str(Path(tmp) / f"{side}.json")], env=env
            )
            for side, src in sides.items()
        }
        if any(worker.wait() != 0 for worker in workers.values()):
            print("a worker failed")
            return 1
        rev, tree = (json.loads((Path(tmp) / f"{side}.json").read_text()) for side in sides)

    differences = [key for key in sorted(rev.keys() | tree.keys()) if rev.get(key) != tree.get(key)]
    for key in differences[:20]:
        print(f"DIFFERS: {key} ({args.rev} -> tree)")
        for line in differing_fields(rev.get(key), tree.get(key)):
            print(f"  {line}")
    exits = sum("exit" in result for result in tree.values() if isinstance(result, dict))
    parses = sum(key.endswith(" | parse") for key in tree)
    mutated = sum(case["name"].startswith("mutated ") for case in cases)
    print(
        f"{len(cases)} cases ({args.programs} random, {mutated} mutated), {len(tree) - parses} runs, "
        f"{parses} parses, {exits} budget exits: {len(differences)} differ between {args.rev} and the working tree"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        run_cases(*sys.argv[2:5])
    else:
        sys.exit(main())
