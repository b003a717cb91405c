"""End-to-end acceptance checklist.

One test per criterion; each prints a PASS/FAIL line even under capture so
a full run reads as a checklist.  Model results come from the session-wide
corpus fixture, which also records wall-clock time per file.
"""

from __future__ import annotations

import random

from memlit.axiomatic import AXIOMS, check_axioms, enumerate_cxx11
from memlit.dsl import parse_litmus, print_litmus
from memlit.model import Kind, force_seq_cst
from memlit.operational import enumerate_sc

from support import SINGLE_AXIOM_CASES, span_problems
from test_axiomatic import judge

FUZZ_SEED = 0xC0FFEE
FUZZ_INPUTS = 10_000


def criterion(capsys, number: int, label: str, body) -> None:
    failure = None
    try:
        body()
    except BaseException as exc:
        failure = exc
    with capsys.disabled():
        print(f"{'PASS' if failure is None else 'FAIL'}  criterion {number:>2}: {label}")
    if failure is not None:
        raise failure


def atomic_only(program) -> bool:
    return all(
        instr.kind not in (Kind.NA_STORE, Kind.NA_LOAD)
        for body in program.threads
        for instr in body
    )


def test_01_dekker_suite(corpus, capsys):
    def body():
        dekker = corpus["dekker"]
        assert dekker.verdicts["sc"].kind == "forbidden"
        assert dekker.verdicts["tso"].kind == "allowed"
        assert corpus["dekker_fenced"].verdicts["tso"].kind == "forbidden"
        assert dekker.verdicts["cxx11"].kind == "forbidden"
        assert corpus["dekker_relaxed"].verdicts["cxx11"].kind == "allowed"
        for name in ("dekker", "dekker_fenced", "dekker_relaxed"):
            assert corpus[name].seconds < 5.0, name

    criterion(capsys, 1, "store buffering: SC/TSO split, fences, relaxed", body)


def test_02_message_passing(corpus, capsys):
    def body():
        assert corpus["mp_rel_acq"].verdicts["cxx11"].kind == "forbidden"
        assert corpus["mp_relaxed"].verdicts["cxx11"].kind == "allowed"
        assert corpus["mp_fences"].verdicts["cxx11"].kind == "forbidden"
        for name in ("mp_rel_acq", "mp_relaxed", "mp_fences"):
            assert corpus[name].seconds < 5.0, name

    criterion(capsys, 2, "message passing: release/acquire, relaxed, fences", body)


def test_03_release_sequences(corpus, capsys):
    def body():
        # Relaxed overwrite inside the sequence: reading it still
        # synchronizes with the release head (event 3 -> load 5).
        entry = corpus["relseq"]
        assert entry.verdicts["cxx11"].kind == "forbidden"
        result = entry.results["cxx11"]
        witness = next(
            cand
            for outcome, cand in result.witnesses.items()
            if outcome.register("P1", "r1") == 2
        )
        assert (3, 5) in check_axioms(entry.program, witness).sw

        # Two chained release CAS heads: reading the second write
        # synchronizes with both heads (events 3 and 4 -> load 5).
        cas = corpus["relseq_cas"]
        assert cas.verdicts["cxx11"].kind == "forbidden"
        witness = next(
            cand
            for outcome, cand in cas.results["cxx11"].witnesses.items()
            if outcome.register("P2", "r2") == 2
        )
        sw = check_axioms(cas.program, witness).sw
        assert (3, 5) in sw and (4, 5) in sw

    criterion(capsys, 3, "release sequences: relaxed tail and double CAS", body)


def test_04_race_detection(corpus, capsys):
    def body():
        racy = corpus["race"]
        assert racy.results["cxx11"].racy is True

        handoff = corpus["mp_na"]
        result = handoff.results["cxx11"]
        synced = next(
            o
            for o in result.outcomes
            if o.register("P1", "r1") == 1 and o.register("P1", "r2") == 1
        )
        assert check_axioms(handoff.program, result.witnesses[synced]).races == ()

    criterion(capsys, 4, "data races: flagged when free-running, absent under handoff", body)


def test_05_seq_cst_collapses_to_sc(corpus, capsys):
    def body():
        entries = [e for e in corpus.values() if atomic_only(e.program)]
        assert len(entries) >= 20
        for entry in entries:
            pinned = force_seq_cst(entry.program)
            axiomatic = enumerate_cxx11(pinned).outcomes
            interleaved = enumerate_sc(pinned).outcomes
            assert axiomatic == interleaved, entry.path.name

    criterion(capsys, 5, "all-seq_cst axiomatic outcomes equal the interleaver", body)


def test_06_sc_within_tso(corpus, capsys):
    def body():
        for entry in corpus.values():
            assert (
                entry.results["sc"].outcomes <= entry.results["tso"].outcomes
            ), entry.path.name
        dekker = corpus["dekker"]
        assert dekker.results["sc"].outcomes < dekker.results["tso"].outcomes

    criterion(capsys, 6, "every SC outcome survives under TSO; Dekker is strict", body)


def test_07_iriw(corpus, capsys):
    def body():
        entry = corpus["iriw_seq_cst"]
        assert entry.verdicts["cxx11"].kind == "forbidden"
        assert entry.verdicts["tso"].kind == "forbidden"

    criterion(capsys, 7, "IRIW all-seq_cst split observation forbidden", body)


def test_08_axiom_rejections(capsys):
    def body():
        covered = []
        for axiom, text, events, rf, mo, sc in SINGLE_AXIOM_CASES:
            judgment = judge(text, events, rf, mo, sc)
            assert judgment.violated == (axiom,), axiom
            covered.append(axiom)
        assert covered == list(AXIOMS)

    criterion(capsys, 8, "each axiom rejects its hand-built counterexample", body)


def test_09_parser_round_trip_and_fuzz(corpus, capsys):
    def body():
        for entry in corpus.values():
            assert parse_litmus(print_litmus(entry.program)) == entry.program, entry.path.name
        rng = random.Random(FUZZ_SEED)
        for _ in range(FUZZ_INPUTS):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
            try:
                diagnostics, problems = span_problems(blob)
            except Exception as exc:
                raise AssertionError(f"parser crashed on {blob!r}") from exc
            assert diagnostics, f"random bytes parsed as a program: {blob!r}"
            assert problems == [], problems

    criterion(capsys, 9, "print/parse identity plus 10k-input byte fuzz with spans on their bytes", body)


def test_10_corpus_within_budget(corpus, capsys):
    def body():
        total = sum(entry.seconds for entry in corpus.values())
        assert len(corpus) >= 20
        assert total < 120.0, f"corpus took {total:.1f}s"

    criterion(capsys, 10, "whole corpus under every model inside two minutes", body)
