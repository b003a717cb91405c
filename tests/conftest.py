from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from memlit.dsl import parse_expectations, parse_litmus
from memlit.model import OutcomeSet, Program, Verdict, eval_assertion, validate
from memlit.axiomatic import enumerate_cxx11
from memlit.operational import enumerate_sc, enumerate_tso

from support import CORPUS_DIR


@dataclass
class CorpusEntry:
    path: Path
    text: bytes
    program: Program
    expectations: tuple[tuple[str, str], ...]
    results: dict[str, OutcomeSet]
    verdicts: dict[str, Verdict]
    seconds: float


def _load_corpus() -> dict[str, CorpusEntry]:
    entries: dict[str, CorpusEntry] = {}
    for path in sorted(CORPUS_DIR.glob("*.lit")):
        raw = path.read_bytes()
        program = parse_litmus(raw)
        assert program.name not in entries, f"{entries[program.name].path} and {path} share the name {program.name}"
        assert not validate(program), f"{path} fails validation"
        started = time.perf_counter()
        results = {
            "sc": enumerate_sc(program),
            "tso": enumerate_tso(program),
            "cxx11": enumerate_cxx11(program),
        }
        seconds = time.perf_counter() - started
        verdicts = {m: eval_assertion(program.assertion, outs) for m, outs in results.items()}
        entries[program.name] = CorpusEntry(
            path, raw, program, parse_expectations(raw), results, verdicts, seconds
        )
    return entries


@pytest.fixture(scope="session")
def corpus() -> dict[str, CorpusEntry]:
    return _load_corpus()
