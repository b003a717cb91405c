"""Axiomatic-model tests.

The TestSingleAxiom candidates are built by hand so that each one violates
exactly one named axiom; every other check must stay quiet.  Frozen outcome
sets come from working through the axioms by hand and cross-checks
against the operational backends where the models coincide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings

from memlit import axiomatic
from memlit.axiomatic import (
    AXIOMS,
    CandidateExecution,
    _checked_frame,
    _coherent_read_violated,
    _doomed_maps,
    _events,
    _Frame,
    _rf_options,
    _sc_edges,
    check_axioms,
    enumerate_cxx11,
)
from memlit.dot import execution_dot
from memlit.dsl import parse_litmus
from memlit.model import (
    Instruction,
    Kind,
    MemoryOrder,
    Outcome,
    Program,
    ResourceLimitError,
    derive_failure_order,
    eval_assertion,
    force_seq_cst,
    validate,
    with_fences_after_stores,
)
from memlit.operational import enumerate_sc, enumerate_tso

from support import (
    ACQ,
    ACQUIRE_CLASS,
    CAS_KINDS,
    DISJUNCTIVE_SC_READ,
    F,
    R,
    REL,
    RELEASE_CLASS,
    RELEASE_SEQUENCE_BROKEN_BY_MO,
    RLX,
    RMW,
    S_EDGE_PROGRAMS,
    SC,
    SINGLE_AXIOM_CASES,
    SW_INPUT_PROGRAMS,
    SW_ORDERS_MO,
    W,
    _sequenced,
    candidate_outcome,
    ev,
    grounded_candidates,
    init_w,
    is_irreflexive_and_acyclic,
    ladder,
    program_events,
    programs,
    reference_judgment,
    reference_outcomes,
    reg_pairs,
    value_mutants,
    with_cas_kind,
)


MP_REL_ACQ = """\
name: mp
init: x = 0 y = 0
thread P0:
  store x 1 relaxed
  store y 1 release
thread P1:
  r1 = load y acquire
  r2 = load x relaxed
exists: P1:r1 = 1 /\\ P1:r2 = 0
"""


# Sync-free: no RMW, no seq_cst event, no possible sw edge.  Three writes to
# x give three mo orders but two last writes, and the non-atomic y race.
SYNC_FREE_NA = """\
name: t
init: x = 0 y = 0
thread P0:
  store x 1 relaxed
  store x 2 relaxed
  na_store y 1
thread P1:
  store x 3 relaxed
  r1 = load x relaxed
  r2 = na_load y
exists: x = 1
"""

# Not sync-free: the first mo with last write x = 1, where the fetch_add
# reads 5, puts the fetch_add first, and RMW-IMMEDIATE rejects it.
RMW_LAST_WRITES = """\
name: t
init: x = 0
thread P0:
  store x 1 relaxed
thread P1:
  r1 = fetch_add x 1 relaxed
thread P2:
  store x 5 relaxed
exists: x = 1
"""


def mp_candidate(handoff: bool) -> tuple:
    program = parse_litmus(MP_REL_ACQ)
    events = (
        init_w(0, "x"),
        init_w(1, "y"),
        ev(2, 0, 0, W, RLX, "x", written=1),
        ev(3, 0, 1, W, REL, "y", written=1),
        ev(4, 1, 0, R, ACQ, "y", read=1 if handoff else 0),
        ev(5, 1, 1, R, RLX, "x", read=1 if handoff else 0),
    )
    rf = {4: 3, 5: 2} if handoff else {4: 1, 5: 0}
    candidate = CandidateExecution(events, rf, {"x": (0, 2), "y": (1, 3)}, ())
    return program, candidate


def litmus(init: str, *threads: tuple[str, ...]) -> Program:
    """A program with this init line and one thread P0, P1, ... per tuple of
    instruction lines; the condition is a placeholder."""
    body = "".join(f"thread P{t}:\n" + "".join(f"  {line}\n" for line in lines) for t, lines in enumerate(threads))
    return parse_litmus(f"name: t\ninit: {init}\n{body}exists: {init.split()[0]} = 0\n")


class TestCandidateValidation:
    """Building a candidate checks nothing; the functions that read one
    reject it when it is not one of the program's."""

    def test_events_must_be_id_ordered(self):
        program = litmus("x = 0", ("store x 1 relaxed",))
        events = (init_w(1, "x"), ev(0, 0, 0, W, RLX, "x", written=1))
        with pytest.raises(ValueError, match="ordered by id"):
            check_axioms(program, CandidateExecution(events, {}, {"x": (0, 1)}, ()))

    def test_rf_value_must_agree(self):
        program = litmus("x = 0", ("r1 = load x relaxed",))
        events = (init_w(0, "x"), ev(1, 0, 0, R, RLX, "x", read=7))
        with pytest.raises(ValueError, match="disagrees on the value"):
            check_axioms(program, CandidateExecution(events, {1: 0}, {"x": (0,)}, ()))

    def test_rf_must_point_at_a_write(self):
        program = litmus("x = 0", ("r1 = load x relaxed", "r2 = load x relaxed"))
        events = (init_w(0, "x"), ev(1, 0, 0, R, RLX, "x", read=0), ev(2, 0, 1, R, RLX, "x", read=0))
        for rf in ({1: 2, 2: 0}, {1: -1, 2: 0}):
            with pytest.raises(ValueError, match="write-to-read"):
                check_axioms(program, CandidateExecution(events, rf, {"x": (0,)}, ()))

    def test_mo_must_start_at_init(self):
        program = litmus("x = 0", ("store x 1 relaxed",))
        events = (init_w(0, "x"), ev(1, 0, 0, W, RLX, "x", written=1))
        with pytest.raises(ValueError, match="initialization"):
            check_axioms(program, CandidateExecution(events, {}, {"x": (1, 0)}, ()))

    def test_sc_order_must_cover_sc_events(self):
        program = litmus("x = 0", ("store x 1 seq_cst",))
        events = (init_w(0, "x"), ev(1, 0, 0, W, SC, "x", written=1))
        with pytest.raises(ValueError, match="sc_order"):
            check_axioms(program, CandidateExecution(events, {}, {"x": (0, 1)}, ()))

    def test_every_read_needs_a_source(self):
        # Without the check this read would take a value no write wrote.
        program = litmus("x = 0", ("r1 = load x relaxed",))
        events = (init_w(0, "x"), ev(1, 0, 0, R, RLX, "x", read=5))
        with pytest.raises(ValueError, match="rf must give every read exactly one source"):
            check_axioms(program, CandidateExecution(events, {}, {"x": (0,)}, ()))

    @pytest.mark.parametrize(
        "line, kind, rf, mo, message",
        [
            ("store x 1 relaxed", W, {}, (0, 1), "write events carry no read value"),
            ("r1 = load x relaxed", R, {1: 0}, (0,), "read events carry no written value"),
        ],
        ids=["write", "read"],
    )
    def test_write_cannot_read(self, line, kind, rf, mo, message):
        # Each event carries both a read and a written value: the one its kind lacks is the fault.
        events = (init_w(0, "x"), ev(1, 0, 0, kind, RLX, "x", read=0, written=1))
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_axioms(litmus("x = 0", (line,)), CandidateExecution(events, rf, {"x": mo}, ()))

    def test_fence_cannot_have_a_location(self):
        program = litmus("x = 0", ("fence seq_cst",))
        events = (init_w(0, "x"), ev(1, 0, 0, F, SC, "x"))
        with pytest.raises(ValueError, match="^candidate does not match the program's event layout$"):
            check_axioms(program, CandidateExecution(events, {}, {"x": (0,)}, (1,)))

    def test_fence_carries_no_value(self):
        program = litmus("x = 0", ("fence seq_cst",))
        for values, message in (({"read": 3}, "no read value"), ({"written": 4}, "no written value")):
            events = (init_w(0, "x"), ev(1, 0, 0, F, SC, **values))
            with pytest.raises(ValueError, match=f"fence events carry {message}"):
                check_axioms(program, CandidateExecution(events, {}, {"x": (0,)}, (1,)))

    def test_rmw_cannot_read_itself(self):
        program = litmus("x = 0", ("r1 = fetch_add x 0 relaxed",))
        events = (init_w(0, "x"), ev(1, 0, 0, RMW, RLX, "x", read=0, written=0))
        with pytest.raises(ValueError, match="cannot read from itself"):
            check_axioms(program, CandidateExecution(events, {1: 1}, {"x": (0, 1)}, ()))

    def test_rf_must_stay_at_one_location(self):
        program = litmus("x = 0 y = 0", ("r1 = load x relaxed",))
        events = (init_w(0, "x"), init_w(1, "y"), ev(2, 0, 0, R, RLX, "x", read=0))
        with pytest.raises(ValueError, match="mixes locations"):
            check_axioms(program, CandidateExecution(events, {2: 1}, {"x": (0,), "y": (1,)}, ()))

    def test_mo_must_cover_every_written_location(self):
        program = litmus("x = 0 y = 0", ("store x 1 relaxed",))
        events = (init_w(0, "x"), init_w(1, "y"), ev(2, 0, 0, W, RLX, "x", written=1))
        with pytest.raises(ValueError, match="mo must cover exactly the written locations"):
            check_axioms(program, CandidateExecution(events, {}, {"x": (0, 2)}, ()))

    def test_mo_must_order_every_write(self):
        program = litmus("x = 0", ("store x 1 relaxed",))
        events = (init_w(0, "x"), ev(1, 0, 0, W, RLX, "x", written=1))
        for order in ((0,), (0, 1, 1)):
            with pytest.raises(ValueError, match="not a permutation of its writes"):
                check_axioms(program, CandidateExecution(events, {}, {"x": order}, ()))

    @pytest.mark.parametrize("read", [check_axioms, execution_dot])
    def test_atomic_kind_without_its_order_is_a_value_error(self, read):
        # The witness of the ordered twin, with the order taken off the store
        # event too, so that the layout matches.
        ordered = litmus("x = 0", ("store x 1 relaxed",))
        (witness,) = enumerate_cxx11(ordered).witnesses.values()
        store = ordered.threads[0][0]
        program = replace(ordered, threads=((replace(store, order=None),),))
        events = tuple(replace(e, order=None) if e.thread == 0 else e for e in witness.events)
        candidate = CandidateExecution(events, dict(witness.rf), dict(witness.mo), ())
        message = "^thread 0 instruction 0: missing memory order: store requires a memory order$"
        with pytest.raises(ValueError, match=message):
            read(program, candidate)

    @pytest.mark.parametrize("read", [check_axioms, execution_dot])
    def test_every_function_that_reads_a_candidate_checks_it(self, read):
        program, cand = mp_candidate(handoff=True)
        read(program, cand)
        other_program = parse_litmus(MP_NA)
        with pytest.raises(ValueError, match="layout"):
            read(other_program, cand)
        with pytest.raises(ValueError, match="mixes locations"):
            read(program, replace(cand, rf={4: 3, 5: 1}))


class TestSequencedBefore:
    def test_per_thread_total_order(self):
        program = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\n  store x 2\n  store x 3\n"
            "thread P1:\n  r1 = load x\nexists: x = 3\n"
        )
        witness = next(iter(enumerate_cxx11(program).witnesses.values()))
        sb = check_axioms(program, witness).sb
        # init gets id 0; P0 events 1..3; P1 event 4
        assert sb == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_agrees_with_the_oracle_on_the_corpus(self, corpus):
        for entry in corpus.values():
            events = program_events(entry.program, {})
            want = frozenset((a.id, b.id) for a in events for b in events if _sequenced(a, b))
            for witness in entry.results["cxx11"].witnesses.values():
                assert check_axioms(entry.program, witness).sb == want, entry.path


class TestSynchronizesWith:
    def test_release_write_to_acquire_read(self):
        program, cand = mp_candidate(handoff=True)
        assert check_axioms(program, cand).sw == frozenset({(3, 4)})

    def test_no_handoff_no_sync(self):
        program, cand = mp_candidate(handoff=False)
        assert check_axioms(program, cand).sw == frozenset()

    def test_read_of_sequence_tail_syncs_with_head(self):
        program = litmus("y = 0", ("store y 1 release", "store y 2 relaxed"), ("r1 = load y acquire",))
        events = (
            init_w(0, "y"),
            ev(1, 0, 0, W, REL, "y", written=1),
            ev(2, 0, 1, W, RLX, "y", written=2),
            ev(3, 1, 0, R, ACQ, "y", read=2),
        )
        cand = CandidateExecution(events, {3: 2}, {"y": (0, 1, 2)}, ())
        assert check_axioms(program, cand).sw == frozenset({(1, 3)})

    def test_read_of_another_threads_rmw_syncs_with_head(self):
        # The RMW extends P0's release sequence though it is P1's.
        program = litmus(
            "x = 0", ("store x 1 release",), ("r1 = fetch_add x 1 relaxed",), ("r2 = load x acquire",)
        )
        events = (
            init_w(0, "x"),
            ev(1, 0, 0, W, REL, "x", written=1),
            ev(2, 1, 0, RMW, RLX, "x", read=1, written=2),
            ev(3, 2, 0, R, ACQ, "x", read=2),
        )
        cand = CandidateExecution(events, {2: 1, 3: 2}, {"x": (0, 1, 2)}, ())
        assert check_axioms(program, cand).sw == frozenset({(1, 3)})

    def test_interposed_foreign_store_breaks_sync(self):
        program = litmus("y = 0", ("store y 1 release",), ("store y 2 relaxed",), ("r1 = load y acquire",))
        events = (
            init_w(0, "y"),
            ev(1, 0, 0, W, REL, "y", written=1),
            ev(2, 1, 0, W, RLX, "y", written=2),
            ev(3, 2, 0, R, ACQ, "y", read=2),
        )
        cand = CandidateExecution(events, {3: 2}, {"y": (0, 1, 2)}, ())
        assert check_axioms(program, cand).sw == frozenset()

    def test_fence_to_fence(self):
        program = litmus(
            "x = 0 y = 0",
            ("store x 1 relaxed", "fence release", "store y 2 relaxed"),
            ("r1 = load y relaxed", "fence acquire", "r2 = load x relaxed"),
        )
        events = (
            init_w(0, "x"),
            init_w(1, "y"),
            ev(2, 0, 0, W, RLX, "x", written=1),
            ev(3, 0, 1, F, REL),
            ev(4, 0, 2, W, RLX, "y", written=2),
            ev(5, 1, 0, R, RLX, "y", read=2),
            ev(6, 1, 1, F, ACQ),
            ev(7, 1, 2, R, RLX, "x", read=1),
        )
        cand = CandidateExecution(events, {5: 4, 7: 2}, {"x": (0, 2), "y": (1, 4)}, ())
        assert check_axioms(program, cand).sw == frozenset({(3, 6)})

    def test_fence_to_acquire_read(self):
        program = litmus("y = 0", ("fence release", "store y 1 relaxed"), ("r1 = load y acquire",))
        events = (
            init_w(0, "y"),
            ev(1, 0, 0, F, REL),
            ev(2, 0, 1, W, RLX, "y", written=1),
            ev(3, 1, 0, R, ACQ, "y", read=1),
        )
        cand = CandidateExecution(events, {3: 2}, {"y": (0, 2)}, ())
        assert check_axioms(program, cand).sw == frozenset({(1, 3)})

    def test_release_write_to_acquire_fence(self):
        program = litmus("y = 0", ("store y 1 release",), ("r1 = load y relaxed", "fence acquire"))
        events = (
            init_w(0, "y"),
            ev(1, 0, 0, W, REL, "y", written=1),
            ev(2, 1, 0, R, RLX, "y", read=1),
            ev(3, 1, 1, F, ACQ),
        )
        cand = CandidateExecution(events, {2: 1}, {"y": (0, 1)}, ())
        assert check_axioms(program, cand).sw == frozenset({(1, 3)})

    @pytest.mark.parametrize("fenced", [False, True])
    @pytest.mark.parametrize("writer", ["relaxed", "acquire", "release", "acq_rel", "seq_cst"])
    @pytest.mark.parametrize("reader", ["relaxed", "acquire", "release", "acq_rel", "seq_cst"])
    def test_message_passing_needs_a_releasing_and_an_acquiring_order(self, fenced, writer, reader):
        # The flag is passed by an exchange at each order, or by relaxed
        # accesses between fences at each order; whether an order releases
        # or acquires comes from the oracle's own classification.
        if fenced:
            sides = (f"fence {writer}", "store y 1 relaxed"), ("r1 = load y relaxed", f"fence {reader}")
        else:
            sides = (f"r9 = exchange y 1 {writer}",), (f"r1 = exchange y 2 {reader}",)
        program = litmus("x = 0 y = 0", ("store x 1 relaxed", *sides[0]), (*sides[1], "r2 = load x relaxed"))
        stale = (1, 0) in reg_pairs(enumerate_cxx11(program), ("P1", "r1"), ("P1", "r2"))
        assert stale is not (MemoryOrder(writer) in RELEASE_CLASS and MemoryOrder(reader) in ACQUIRE_CLASS)


class TestHappensBefore:
    def test_handoff_orders_payload_before_read(self):
        program, cand = mp_candidate(handoff=True)
        hb = check_axioms(program, cand).hb
        assert (2, 5) in hb
        assert all((0, e) in hb for e in (2, 3, 4, 5))

    def test_without_sync_threads_stay_unordered(self):
        program, cand = mp_candidate(handoff=False)
        hb = check_axioms(program, cand).hb
        assert (2, 5) not in hb and (5, 2) not in hb

    def test_pairs_lie_within_the_events_and_hb_closes_sb_and_sw(self, corpus):
        for entry in corpus.values():
            for witness in entry.results["cxx11"].witnesses.values():
                j = check_axioms(entry.program, witness)
                ids = range(len(witness.events))
                assert all(a in ids and b in ids for a, b in j.sb | j.sw | j.hb), entry.path
                assert j.sb | j.sw <= j.hb, entry.path
                assert {(a, d) for a, b in j.hb for c, d in j.hb if b == c} <= j.hb, entry.path

    def test_layout_mismatch_rejected(self):
        program, _ = mp_candidate(handoff=True)
        other = CandidateExecution((init_w(0, "x"),), {}, {"x": (0,)}, ())
        with pytest.raises(ValueError, match="layout"):
            check_axioms(program, other)

    def test_atomicity_contradicting_the_program_rejected(self):
        # Labelling the na_store atomic would hide its race with the load.
        program = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  na_store x 1\nthread P1:\n  r1 = load x relaxed\nexists: x = 1\n"
        )
        honest, *relabeled = (
            CandidateExecution(
                (init_w(0, "x"), ev(1, 0, 0, W, order, "x", written=1, atomic=atomic), ev(2, 1, 0, R, RLX, "x", read=0)),
                {2: 0},
                {"x": (0, 1)},
                (),
            )
            for order, atomic in ((None, False), (RLX, True), (None, True))
        )
        assert check_axioms(program, honest).races == ((1, 2),)
        for cand in relabeled:
            with pytest.raises(ValueError, match="layout"):
                check_axioms(program, cand)

    def test_load_and_store_with_swapped_kinds_rejected(self):
        program = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\nthread P1:\n  r1 = load x relaxed\n"
            "exists: x = 1\n"
        )
        swapped = CandidateExecution(
            (init_w(0, "x"), ev(1, 0, 0, R, RLX, "x", read=1), ev(2, 1, 0, W, RLX, "x", written=1)),
            {1: 2},
            {"x": (0, 2)},
            (),
        )
        with pytest.raises(ValueError, match="layout"):
            check_axioms(program, swapped)

    def test_order_or_location_contradicting_the_program_rejected(self):
        program, cand = mp_candidate(handoff=False)
        payload = cand.events[2]
        for moved, mo in (
            (replace(payload, order=REL), cand.mo),
            (replace(payload, location="y"), {"x": (0,), "y": (1, 2, 3)}),
        ):
            other = replace(cand, events=cand.events[:2] + (moved,) + cand.events[3:], mo=mo)
            with pytest.raises(ValueError, match="layout"):
                check_axioms(program, other)


MP_NA = """\
name: mp_na
init: x = 0 y = 0
thread P0:
  na_store x 1
  store y 1 release
thread P1:
  r1 = load y acquire
  r2 = na_load x
exists: P1:r1 = 1 /\\ P1:r2 = 1
"""


def mp_na_candidate(handoff: bool) -> tuple:
    program = parse_litmus(MP_NA)
    events = (
        init_w(0, "x"),
        init_w(1, "y"),
        ev(2, 0, 0, W, None, "x", written=1, atomic=False),
        ev(3, 0, 1, W, REL, "y", written=1),
        ev(4, 1, 0, R, ACQ, "y", read=1 if handoff else 0),
        ev(5, 1, 1, R, None, "x", read=1 if handoff else 0, atomic=False),
    )
    rf = {4: 3, 5: 2} if handoff else {4: 1, 5: 0}
    return program, CandidateExecution(events, rf, {"x": (0, 2), "y": (1, 3)}, ())


class TestRaces:
    def test_synchronized_handoff_is_race_free(self):
        program, cand = mp_na_candidate(handoff=True)
        assert check_axioms(program, cand).races == ()

    def test_unsynchronized_non_atomics_race(self):
        program, cand = mp_na_candidate(handoff=False)
        assert check_axioms(program, cand).races == ((2, 5),)

    def test_atomics_never_race(self):
        program, cand = mp_candidate(handoff=False)
        assert check_axioms(program, cand).races == ()


# ---------------------------------------------------------------------------
# one hand-built candidate per axiom: SINGLE_AXIOM_CASES in support.py


def judge(text: str, events, rf, mo, sc=()):
    program = parse_litmus(text)
    return check_axioms(program, CandidateExecution(tuple(events), rf, mo, tuple(sc)))


class TestSingleAxiom:
    @pytest.mark.parametrize(
        "axiom,text,events,rf,mo,sc",
        SINGLE_AXIOM_CASES,
        ids=[case[0] for case in SINGLE_AXIOM_CASES],
    )
    def test_exactly_the_named_axiom_fails(self, axiom, text, events, rf, mo, sc):
        j = judge(text, events, rf, mo, sc)
        assert j.violated == (axiom,)
        assert not j.consistent

    def test_s_embed_is_skipped_on_cyclic_hb(self):
        # Load buffering with every access seq_cst and an rf cycle: no S can
        # embed the cyclic hb, and this one breaks sb in P1.  As for the other
        # hb-dependent checks, only HB-IRREFLEXIVE is reported, by both judges.
        program = parse_litmus(
            "name: lb\ninit: x = 0 y = 0\nthread P0:\n  r1 = load x seq_cst\n"
            "  store y 1 seq_cst\nthread P1:\n  r2 = load y seq_cst\n  store x 1 seq_cst\n"
            "exists: P0:r1 = 1\n"
        )
        events = (
            init_w(0, "x"),
            init_w(1, "y"),
            ev(2, 0, 0, R, SC, "x", read=1),
            ev(3, 0, 1, W, SC, "y", written=1),
            ev(4, 1, 0, R, SC, "y", read=1),
            ev(5, 1, 1, W, SC, "x", written=1),
        )
        candidate = CandidateExecution(events, {2: 5, 4: 3}, {"x": (0, 5), "y": (1, 3)}, (5, 2, 3, 4))
        assert judged_alike(program, candidate) == ("HB-IRREFLEXIVE",)

    def test_sc_axioms_are_judged_only_on_an_s_that_embeds(self, corpus):
        # corpus/dekker.lit with P0 reading P1's store: this S puts P0's load
        # before its own store, against sb.  It also puts the load before the
        # store it reads, but SC-READ and SC-FENCE-1..4 are defined for a
        # C++11 S, one that embeds hb and mo, so only S-EMBED is reported.
        program = corpus["dekker"].program
        events = (
            init_w(0, "x"),
            init_w(1, "y"),
            ev(2, 0, 0, W, SC, "x", written=1),
            ev(3, 0, 1, R, SC, "y", read=1),
            ev(4, 1, 0, W, SC, "y", written=1),
            ev(5, 1, 1, R, SC, "x", read=0),
        )
        rf, mo = {3: 4, 5: 0}, {"x": (0, 2), "y": (1, 4)}
        assert judged_alike(program, CandidateExecution(events, rf, mo, (3, 2, 4, 5))) == ("S-EMBED",)
        assert judged_alike(program, CandidateExecution(events, rf, mo, (4, 5, 2, 3))) == ()

    @pytest.mark.parametrize(
        "init, written, source",
        [(0, 7, 1), (7, 1, 0)],
        ids=["store-writes-another-value", "init-writes-another-value"],
    )
    def test_a_value_the_program_does_not_write_is_thin_air(self, init, written, source):
        # The load reads the 7 its source wrote, but the program writes 1
        # there, or initializes x to 0.
        j = judge(
            "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n"
            "thread P1:\n  r1 = load x relaxed\nexists: P1:r1 = 7\n",
            (init_w(0, "x", init), ev(1, 0, 0, W, RLX, "x", written=written), ev(2, 1, 0, R, RLX, "x", read=7)),
            {2: source},
            {"x": (0, 1)},
        )
        assert j.violated == ("NO-THIN-AIR",)

    @pytest.mark.parametrize(
        "cas, succeeded, read, violated",
        [
            ("cas_strong", True, 1, ("NO-THIN-AIR",)),
            ("cas_strong", False, 0, ("NO-THIN-AIR",)),
            ("cas_weak", False, 0, ()),
        ],
        ids=["success-on-another-value", "strong-failure-on-expected", "spurious-weak-failure"],
    )
    def test_a_cas_takes_the_branch_its_read_selects(self, cas, succeeded, read, violated):
        # The CAS expects 0 and reads `read` from event `read`: the store's 1
        # or the initial 0.  Only a cas_weak may fail on expected.
        if succeeded:
            event = ev(2, 1, 0, RMW, RLX, "x", read=read, written=5)
        else:
            event = ev(2, 1, 0, R, RLX, "x", read=read)
        j = judge(
            f"name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\nthread P1:\n  r1 = {cas} x 0 5 relaxed\n"
            "exists: x = 5\n",
            (init_w(0, "x"), ev(1, 0, 0, W, RLX, "x", written=1), event),
            {2: read},
            {"x": (0, 1, 2) if succeeded else (0, 1)},
        )
        assert j.violated == violated

    def test_every_axiom_is_covered(self):
        assert [case[0] for case in SINGLE_AXIOM_CASES] == list(AXIOMS)

    def test_consistent_control(self):
        program, cand = mp_candidate(handoff=True)
        j = check_axioms(program, cand)
        assert j.consistent and j.violated == () and j.races == ()
        assert (3, 4) in j.sw


class TestEnumeration:
    def test_load_buffering_relaxed_allowed(self):
        program = parse_litmus(
            "name: lb\ninit: x = 0 y = 0\nthread P0:\n  r1 = load x relaxed\n"
            "  store y 1 relaxed\nthread P1:\n  r2 = load y relaxed\n  store x 1 relaxed\n"
            "exists: P0:r1 = 1 /\\ P1:r2 = 1\n"
        )
        result = enumerate_cxx11(program)
        assert reg_pairs(result) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert eval_assertion(program.assertion, result).kind == "allowed"

    def test_load_buffering_rel_acq_forbidden(self):
        program = parse_litmus(
            "name: lb\ninit: x = 0 y = 0\nthread P0:\n  r1 = load x acquire\n"
            "  store y 1 release\nthread P1:\n  r2 = load y acquire\n  store x 1 release\n"
            "exists: P0:r1 = 1 /\\ P1:r2 = 1\n"
        )
        result = enumerate_cxx11(program)
        assert reg_pairs(result) == {(0, 0), (0, 1), (1, 0)}

    def test_out_of_thin_air_excluded(self):
        # Both loads feed the opposite store through a register; allowing
        # the rf cycle would conjure the value 1 from nowhere.
        program = parse_litmus(
            "name: oota\ninit: x = 0 y = 0\nthread P0:\n  r1 = load x relaxed\n"
            "  store y r1 relaxed\nthread P1:\n  r2 = load y relaxed\n  store x r2 relaxed\n"
            "exists: P0:r1 = 1\n"
        )
        result = enumerate_cxx11(program)
        assert reg_pairs(result) == {(0, 0)}
        assert eval_assertion(program.assertion, result).kind == "forbidden"

    def test_exchange_writes_only_once_its_read_is_grounded(self):
        # The exchange writes 5 whatever it reads, but grounding lets it write
        # only once its read has a source with a known value.  So the
        # candidate where it reads the store that copies its own write breaks
        # NO-THIN-AIR, and P0:r1 = 5 is missing.
        program = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  r1 = exchange x 5 relaxed\n"
            "thread P1:\n  r2 = load x relaxed\n  store x r2 relaxed\nexists: P0:r1 = 5\n"
        )
        assert sorted(o.format() for o in enumerate_cxx11(program).outcomes) == [
            "P0:r1=0 P1:r2=0 | x=0",
            "P0:r1=0 P1:r2=0 | x=5",
            "P0:r1=0 P1:r2=5 | x=5",
        ]
        events = (
            init_w(0, "x"),
            ev(1, 0, 0, RMW, RLX, "x", read=5, written=5),
            ev(2, 1, 0, R, RLX, "x", read=5),
            ev(3, 1, 1, W, RLX, "x", written=5),
        )
        judgment = check_axioms(program, CandidateExecution(events, {1: 3, 2: 1}, {"x": (0, 3, 1)}, ()))
        assert judgment.violated == ("NO-THIN-AIR",)

    def test_s_embed_forbids_dekker(self):
        # Orders S that break sb can satisfy SC-READ on Dekker's (0, 0), so
        # S-EMBED alone rejects some of its candidates, and none passes.
        _, text, events, rf, mo, sc = SINGLE_AXIOM_CASES[AXIOMS.index("S-EMBED")]
        program = parse_litmus(text)
        assert (0, 0) not in reg_pairs(enumerate_cxx11(program))
        assert check_axioms(program, CandidateExecution(events, rf, mo, sc)).violated == ("S-EMBED",)
        both_zero = [c for c in grounded_candidates(program, limit=2_000) if c.rf == rf]
        violated = {check_axioms(program, c).violated for c in both_zero}
        assert ("S-EMBED",) in violated and () not in violated

    @pytest.mark.parametrize(
        "run, keyword",
        [
            (enumerate_cxx11, "strict_s"),
            (enumerate_sc, "weak_spurious"),
            (enumerate_tso, "weak_spurious"),
            (enumerate_cxx11, "weak_spurious"),
        ],
        ids=["cxx11-strict_s", "sc-weak_spurious", "tso-weak_spurious", "cxx11-weak_spurious"],
    )
    def test_strict_s_keyword_is_gone(self, run, keyword):
        # S always embeds hb and mo, and a cas_weak may always fail
        # spuriously: there is no loose S mode and no strong cas_weak to ask
        # for.  A program that wants no spurious failure writes cas_strong.
        with pytest.raises(TypeError):
            run(parse_litmus(MP_NA), **{keyword: False})

    def test_racy_flag(self):
        program = parse_litmus(MP_NA)
        result = enumerate_cxx11(program)
        assert result.racy is True
        race_free = parse_litmus(MP_REL_ACQ)
        assert enumerate_cxx11(race_free).racy is False

    def test_weak_cas_spurious_toggle(self):
        program = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  r1 = cas_weak x 0 1\nexists: x = 1\n"
        )
        both = enumerate_cxx11(program)
        assert {o.location("x") for o in both.outcomes} == {0, 1}
        only = enumerate_cxx11(with_cas_kind(program, Kind.CAS_STRONG))
        assert {o.location("x") for o in only.outcomes} == {1}

    @settings(max_examples=100, deadline=None)
    @given(programs(max_total=5))
    def test_cas_strong_twin_has_a_subset_of_the_outcomes(self, program):
        # cas_strong is cas_weak without its spurious failure: rewriting every
        # cas_weak as cas_strong can only remove outcomes, on every backend.
        # Every CAS of the drawn program is made weak first, so that each
        # draw with a CAS compares two different programs.
        weak = with_cas_kind(program, Kind.CAS_WEAK)
        strong = with_cas_kind(weak, Kind.CAS_STRONG)
        for enumerate_fn in (enumerate_sc, enumerate_tso, enumerate_cxx11):
            assert enumerate_fn(strong).outcomes <= enumerate_fn(weak).outcomes

    def test_store_uses_the_latest_definition_of_its_register(self):
        program = parse_litmus(
            "name: t\ninit: x = 1 y = 2 z = 0\nthread P0:\n  r1 = load x relaxed\n  r1 = load y relaxed\n"
            "  store z r1 relaxed\nexists: z = 2\n"
        )
        for enumerate_fn in (enumerate_sc, enumerate_tso, enumerate_cxx11):
            assert [o.format() for o in enumerate_fn(program).outcomes] == ["P0:r1=2 | x=1 y=2 z=2"]

    def test_candidate_budget(self):
        program = parse_litmus(MP_REL_ACQ)
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_cxx11(program, max_candidates=2)
        assert exc.value.limit_name == "candidate"

    def test_witnesses_pass_the_axioms(self):
        for text in (MP_REL_ACQ, MP_NA):
            program = parse_litmus(text)
            result = enumerate_cxx11(program)
            assert result.witnesses
            for outcome, cand in result.witnesses.items():
                judgment = check_axioms(program, cand)
                assert judgment.consistent, outcome.format()

    @settings(max_examples=60, deadline=None)
    @given(programs(max_total=5))
    def test_every_witness_is_consistent_and_carries_its_outcome(self, program):
        # Witnesses share valued events and outcomes are built once per rf
        # and mo-last writes; each witness must still produce its own outcome.
        # Both judges find it consistent, so its S embeds hb and mo.
        result = enumerate_cxx11(program)
        for outcome, cand in result.witnesses.items():
            assert judged_alike(program, cand) == (), outcome.format()
            registers = {}
            for e in cand.events:
                dest = None if e.is_init else program.threads[e.thread][e.index].dest
                if dest is not None:
                    registers[program.thread_names[e.thread], dest] = e.value_read
            assert registers == {(t, r): v for t, r, v in outcome.registers}, outcome.format()
            memory = {loc: cand.events[order[-1]].value_written for loc, order in cand.mo.items()}
            assert memory == dict(outcome.memory), outcome.format()


class TestCandidateSpace:
    """Candidates explored and outcomes found on the synthetic ladder: a
    change to the rf, mo or S search shows here."""

    @pytest.mark.parametrize(
        "lengths, stores, loads, explored, outcomes",
        [
            ((4, 4), "relaxed", "relaxed", 208, 64),
            ((2, 2, 3), "relaxed", "relaxed", 144, 72),
            ((2, 3, 3), "relaxed", "relaxed", 432, 108),
            ((6, 6), "relaxed", "relaxed", 14_580, 256),
            ((2, 3, 3), "release", "acquire", 324, 63),
            ((2, 3, 3), "seq_cst", "relaxed", 378, 90),
            ((4, 4), "seq_cst", "seq_cst", 157, 13),
            ((2, 2, 3), "seq_cst", "seq_cst", 102, 30),
            ((2, 3, 3), "seq_cst", "seq_cst", 262, 32),
            ((2, 2, 2, 2), "seq_cst", "seq_cst", 444, 120),
        ],
        ids=["relaxed-2x4", "relaxed-2+2+3", "relaxed-2+3+3", "relaxed-2x6", "relacq-2+3+3", "seq_cst-stores-2+3+3",
             "seq_cst-2x4", "seq_cst-2+2+3", "seq_cst-2+3+3", "seq_cst-4x2"],
    )
    def test_ladder_counts(self, lengths, stores, loads, explored, outcomes):
        result = enumerate_cxx11(parse_litmus(ladder(lengths, stores, loads)))
        assert (result.stats.explored, len(result.outcomes)) == (explored, outcomes)

    def test_fenced_ladder_counts(self):
        result = enumerate_cxx11(with_fences_after_stores(parse_litmus(ladder((3, 4)))))
        assert (result.stats.explored, len(result.outcomes)) == (60, 12)

    def test_disjunctive_sc_read_is_judged_on_every_s(self):
        # The seq_cst load reading initialization is a disjunctive SC-READ
        # whenever the fetch_add reads P0's relaxed store: init happens-before
        # both seq_cst writes, but only one of them is mo-last.  No edge
        # states it, so each S tried is checked against it, and some fail.
        result = enumerate_cxx11(parse_litmus(DISJUNCTIVE_SC_READ))
        assert (result.stats.explored, len(result.outcomes)) == (49, 6)

    @pytest.mark.parametrize(
        "text",
        S_EDGE_PROGRAMS + [DISJUNCTIVE_SC_READ, ladder((2, 2), "seq_cst", "seq_cst")],
        ids=[f"s-edge-{i}" for i in range(len(S_EDGE_PROGRAMS))] + ["disjunctive-sc-read", "seq_cst-2x2"],
    )
    def test_witness_s_is_the_first_consistent_order(self, text):
        # S choices stop at the first consistent one per (rf, mo), in
        # lexicographic order: pruning and the one-pass first order change
        # which S is tried, never which one a witness carries.
        program = parse_litmus(text)
        for witness in enumerate_cxx11(program).witnesses.values():
            first = next(
                s
                for s in itertools.permutations(sorted(witness.sc_order))
                if check_axioms(program, replace(witness, sc_order=s)).consistent
            )
            assert witness.sc_order == first

    @pytest.mark.parametrize(
        "text",
        [
            ladder((2, 3, 3)),
            ladder((2, 3, 3), "release", "relaxed"),
            ladder((2, 3, 3), "relaxed", "acquire"),
            SYNC_FREE_NA,
            RMW_LAST_WRITES,
            ladder((2, 2, 3), "release", "acquire"),
            RELEASE_SEQUENCE_BROKEN_BY_MO,
            ladder((2, 2), "seq_cst", "seq_cst"),
            *S_EDGE_PROGRAMS,
        ],
        ids=["relaxed-2+3+3", "rel-2+3+3", "acq-2+3+3", "non-atomic", "rmw", "relacq-2+2+3", "release-sequence",
             "seq_cst-2x2"] + [f"s-edge-{i}" for i in range(len(S_EDGE_PROGRAMS))],
    )
    def test_witness_is_the_first_consistent_candidate(self, text):
        # Each witness's rf, mo and S are those of the first candidate, in
        # grounded_candidates order, that check_axioms finds consistent and
        # that yields the witness's outcome.  The first four programs are
        # sync-free, so the enumerator visits only the first mo with each
        # tuple of mo-last writes; the others need every mo.
        program = parse_litmus(text)
        candidates = grounded_candidates(program, 5_000)
        assert candidates is not None
        first: dict[Outcome, tuple] = {}
        for c in candidates:
            if check_axioms(program, c).consistent:
                first.setdefault(candidate_outcome(program, c), (c.rf, c.mo, c.sc_order))
        witnesses = enumerate_cxx11(program).witnesses
        assert {o: (dict(w.rf), dict(w.mo), w.sc_order) for o, w in witnesses.items()} == first

    @pytest.mark.parametrize("text", [ladder((2, 3, 3)), ladder((2, 2, 3), "relaxed", "acquire"), SYNC_FREE_NA])
    def test_budget_counts_the_pairs_a_sync_free_frame_skips(self, text):
        program = parse_litmus(text)
        explored = enumerate_cxx11(program).stats.explored
        assert enumerate_cxx11(program, max_candidates=explored).stats.explored == explored
        with pytest.raises(ResourceLimitError):
            enumerate_cxx11(program, max_candidates=explored - 1)

    def test_seq_cst_4x2_is_sc(self):
        # DRF-SC: a race-free all-seq_cst program has exactly its SC outcomes.
        program = parse_litmus(ladder((2, 2, 2, 2), "seq_cst", "seq_cst"))
        result = enumerate_cxx11(program)
        assert not result.racy
        assert result.outcomes == enumerate_sc(program).outcomes


class TestWitnessesBuiltOnRead:
    """enumerate_cxx11's witnesses are a read-only mapping that builds each
    witness on its first read."""

    # Two CAS branchings, several rf maps, and outcomes that share an rf map.
    PROGRAM = (
        "name: t\ninit: x = 0 y = 0\nthread P0:\n  store x 1 relaxed\n  store y 1 release\n"
        "thread P1:\n  r1 = cas_strong x 1 2 relaxed\n  r2 = load y acquire\n"
        "thread P2:\n  store x 3 relaxed\nexists: P1:r1 = 1\n"
    )

    def test_keys_len_and_membership_are_the_outcomes(self):
        result = enumerate_cxx11(parse_litmus(self.PROGRAM))
        witnesses = result.witnesses
        assert set(witnesses) == set(witnesses.keys()) == result.outcomes
        assert len(witnesses) == len(result.outcomes) > 4
        assert all(o in witnesses for o in result.outcomes)
        stranger = Outcome((("P1", "r1", 9),), (("x", 9),))
        assert stranger not in witnesses and witnesses.get(stranger) is None
        with pytest.raises(KeyError):
            witnesses[stranger]
        built = dict(witnesses)
        assert built.keys() == result.outcomes and all(built[o] is witnesses[o] for o in built)
        with pytest.raises(TypeError):
            witnesses[stranger] = built[next(iter(built))]

    def test_a_witness_is_built_once_on_its_first_read(self, monkeypatch):
        calls = []
        valued = axiomatic._valued
        monkeypatch.setattr(axiomatic, "_valued", lambda *args: calls.append(args) or valued(*args))
        result = enumerate_cxx11(parse_litmus(self.PROGRAM))
        assert calls == []
        outcome = result.sorted_outcomes()[0]
        witness = result.witnesses[outcome]
        assert len(calls) == len(witness.events)
        assert result.witnesses[outcome] is witness
        assert len(calls) == len(witness.events)

    def test_read_order_changes_neither_text_nor_sharing(self):
        program = parse_litmus(self.PROGRAM)
        order = enumerate_cxx11(program).sorted_outcomes()
        forward = enumerate_cxx11(program).witnesses
        backward = enumerate_cxx11(program).witnesses
        read_forward = [forward[o] for o in order]
        read_backward = [backward[o] for o in reversed(order)][::-1]
        assert [execution_dot(program, w) for w in read_forward] == [execution_dot(program, w) for w in read_backward]

        def sharing(witnesses):
            """Where each event object first appears, as (witness, event) positions."""
            first: dict[int, tuple[int, int]] = {}
            return [[first.setdefault(id(e), (i, j)) for j, e in enumerate(w.events)] for i, w in enumerate(witnesses)]

        assert sharing(read_forward) == sharing(read_backward)
        assert len({id(e) for w in read_forward for e in w.events}) < sum(len(w.events) for w in read_forward)


class TestHbPerSwInput:
    """enumerate_cxx11 judges hb once per rf map and sw input, the release
    heads each sync read's source carries, and HB-MO per mo choice."""

    def test_a_release_sequence_broken_in_mo_is_judged_per_mo(self):
        # P2 reads P0's y = 2.  With P1's store between P0's two y stores in
        # mo, P0's release sequence ends before y = 2: there is no sw edge,
        # and P2 may miss x = 1.  That mo leaves y = 2 last; every other
        # order keeps the sequence whole, and the sw edge forces x = 1.
        program = parse_litmus(RELEASE_SEQUENCE_BROKEN_BY_MO)
        result = enumerate_cxx11(program)
        assert (result.stats.explored, len(result.outcomes)) == (43, 13)
        stale = [o for o in result.outcomes if (o.register("P2", "r2"), o.register("P2", "r3")) == (2, 0)]
        assert [o.location("y") for o in stale] == [2]
        assert eval_assertion(program.assertion, result).kind == "allowed"

    def test_hb_mo_is_judged_when_sw_has_an_edge(self):
        # P1 reading y = 1 puts P0's x store hb-before P1's, so mo ends at
        # x = 2: the base rows alone leave the two stores unordered.
        program = parse_litmus(SW_ORDERS_MO)
        result = enumerate_cxx11(program)
        assert (result.stats.explored, len(result.outcomes)) == (7, 3)
        assert eval_assertion(program.assertion, result).kind == "forbidden"


def branching_frames(program):
    """The kernel frame of each CAS branching of `program`, in the
    enumerator's order."""
    sites = [(t, i) for t, body in enumerate(program.threads) for i, instr in enumerate(body) if instr.kind in CAS_KINDS]
    for combo in itertools.product((True, False), repeat=len(sites)):
        yield _Frame(program, _events(program, dict(zip(sites, combo))))


def assert_dropped_exactly_where_incoherent(program) -> int:
    """For each CAS branching and each rf map the enumerator could build, a
    map takes a dropped option exactly when it breaks COHERENT-READ under
    the base rows, and `_doomed_maps` yields exactly those maps, each once.
    Returns how many maps took a dropped option."""
    doomed = 0
    for frame in branching_frames(program):
        choices, kept = _rf_options(frame)
        reads = [r for r, _ in frame.read_checks]
        assert all(set(keep) <= set(sources) for sources, keep in zip(choices, kept))
        dropped = []
        for combo in itertools.product(*choices):
            incoherent = _coherent_read_violated(frame.read_checks, dict(zip(reads, combo)), frame.base)
            assert any(w not in keep for w, keep in zip(combo, kept)) == incoherent, (program.name, combo)
            if incoherent:
                dropped.append(combo)
        assert sorted(_doomed_maps(choices, kept)) == dropped
        doomed += len(dropped)
    return doomed


# Two register stores make an ungrounded rf map: P0 reads P1's x store while
# P1 reads P0's y store.  P2's load of z from initialization passes over
# P2's own z store, so every map where it does is doomed.  x has three
# program writes in three threads: six mo orders with three last writes.
REGISTER_STORE_DOOMED = """\
name: t
init: x = 0 y = 0 z = 0
thread P0:
  r1 = load x relaxed
  store y r1 relaxed
  store x 4 relaxed
thread P1:
  r2 = load y relaxed
  store x r2 relaxed
thread P2:
  store z 1 relaxed
  r3 = load z relaxed
  store x 3 relaxed
exists: x = 0
"""


class TestCoherentSources:
    """enumerate_cxx11 drops each rf option that breaks COHERENT-READ under
    the base rows before the rf product, and counts the maps that take one
    without judging them: each grounded one adds its full mo product to
    `explored`, as if every pair were judged and rejected."""

    def test_dropped_options_are_the_incoherent_ones_on_the_corpus(self, corpus):
        doomed = sum(assert_dropped_exactly_where_incoherent(entry.program) for entry in corpus.values())
        assert doomed > 0

    @settings(max_examples=100, deadline=None)
    @given(programs(max_total=5))
    def test_dropped_options_are_the_incoherent_ones_on_random_programs(self, program):
        assert_dropped_exactly_where_incoherent(program)

    @staticmethod
    def counted_grounds(monkeypatch) -> list:
        """Every `_ground` call from now on, as (rf, result)."""
        calls = []
        ground = axiomatic._ground

        def counted(plan, rf):
            result = ground(plan, rf)
            calls.append((dict(rf), result))
            return result

        monkeypatch.setattr(axiomatic, "_ground", counted)
        return calls

    def test_a_literal_ladder_grounds_only_its_kept_maps(self, monkeypatch):
        # Relaxed 2x4: 36 rf maps, 16 with every read coherent under sb.
        # With literal stores only, every map grounds, so the 20 doomed
        # maps are counted in closed form, 4 mo orders each.
        program = parse_litmus(ladder((4, 4)))
        (frame,) = branching_frames(program)
        choices, kept = _rf_options(frame)
        assert (math.prod(map(len, choices)), math.prod(map(len, kept))) == (36, 16)
        calls = self.counted_grounds(monkeypatch)
        assert enumerate_cxx11(program).stats.explored == 208
        assert len(calls) == 16

    def test_doomed_maps_with_register_stores_are_ground_only_to_be_counted(self, monkeypatch):
        # 12 rf maps: P0 reads x from init, P1 or P2 (3 options), P1 reads y
        # from init or P0 (2), P2 reads z from init or its own store (2), of
        # which init is dropped.  Each map is ground once.  Of the 6 doomed
        # maps one is ungrounded and adds 0; the 5 others add 6 pairs each.
        program = parse_litmus(REGISTER_STORE_DOOMED)
        z_read, z_init = 9, 2
        calls = self.counted_grounds(monkeypatch)
        result = enumerate_cxx11(program)
        assert result.stats.explored == 90
        assert len(calls) == len({tuple(sorted(rf.items())) for rf, _ in calls}) == 12
        doomed = [grounded for rf, grounded in calls if rf[z_read] == z_init]
        assert (len(doomed), doomed.count(None)) == (6, 1)
        monkeypatch.setattr(axiomatic, "_doomed_maps", lambda choices, kept: iter(()))
        assert enumerate_cxx11(program).stats.explored == 90 - 5 * 6

    def test_budget_edge_counts_the_doomed_maps(self):
        # 80 of relaxed 2x4's 208 candidates are its 20 doomed maps' pairs.
        program = parse_litmus(ladder((4, 4)))
        assert enumerate_cxx11(program, max_candidates=208).stats.explored == 208
        with pytest.raises(ResourceLimitError) as exceeded:
            enumerate_cxx11(program, max_candidates=207)
        assert exceeded.value.limit == 207


def assert_derived_s_edges_necessary(program, candidates) -> int:
    """For each candidate whose hb is acyclic and that passes S-EMBED, every
    axiom whose `_sc_edges` edge S breaks must be among the violations the
    pair-set judge reads off S as the axioms word it.  Returns how many
    candidates broke an edge."""
    broken = 0
    for candidate in candidates:
        judgment = check_axioms(program, candidate)
        violated = reference_judgment(program, candidate).violated
        if "HB-IRREFLEXIVE" in judgment.violated or "S-EMBED" in violated:
            continue
        frame = _checked_frame(program, candidate)
        hb = [0] * frame.n
        for a, b in judgment.hb:
            hb[a] |= 1 << b
        pos = {e: i for i, e in enumerate(candidate.sc_order)}
        edges, _ = _sc_edges(frame, frame.mo_orders(candidate.mo), candidate.rf, hb)
        names = {axiom for axiom, a, b in edges if pos[a] > pos[b]}
        if names:
            broken += 1
            assert names <= set(violated), candidate
    return broken


def judged_alike(program, candidate) -> tuple[str, ...]:
    """The axioms `candidate` breaks, once check_axioms and the pair-set
    judge agree on them and on races, sb, sw and hb."""
    got = check_axioms(program, candidate)
    want = reference_judgment(program, candidate)
    assert (got.violated, got.races, got.sb, got.sw, got.hb) == (
        want.violated, want.races, want.sb, want.sw, want.hb
    )
    return want.violated


def judged_alike_with_value_mutants(program, candidate) -> set[str]:
    """judged_alike on a grounded candidate and on each of its value
    mutants, which must break NO-THIN-AIR on top of what it breaks."""
    violated = judged_alike(program, candidate)
    assert "NO-THIN-AIR" not in violated
    seen = set(violated)
    for mutant in value_mutants(program, candidate):
        assert judged_alike(program, mutant) == violated + ("NO-THIN-AIR",)
        seen.add("NO-THIN-AIR")
    return seen


class TestAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(programs(max_total=4))
    def test_check_axioms_matches_pair_set_judge(self, program):
        candidates = grounded_candidates(program, limit=2_000)
        assume(candidates is not None)
        for candidate in candidates:
            judged_alike(program, candidate)

    @settings(max_examples=50, deadline=None)
    @given(programs(max_total=4))
    def test_value_mutants_match_pair_set_judge(self, program):
        candidates = grounded_candidates(program, limit=2_000)
        assume(candidates is not None)
        for candidate in candidates:
            judged_alike_with_value_mutants(program, candidate)

    def test_every_axiom_seen_on_corpus_and_single_axiom_programs(self, corpus):
        # Random programs rarely build the seq_cst fence shapes, so the whole
        # candidate space of each small enough corpus program, of each
        # TestSingleAxiom program and of each S_EDGE_PROGRAMS program is
        # compared too, with the value mutants of each candidate, until every
        # axiom has rejected some candidate.
        # Grounded candidates pass NO-THIN-AIR, and only their value mutants
        # break it.  The next-to-last program puts an acq_rel fence
        # between a load and a store that another thread's RMW extends: a
        # fence must never synchronize with itself.  The last puts a
        # same-thread non-atomic store, which ends a release sequence, among
        # atomic stores and another thread's RMW.
        self_sync = (
            "name: t\ninit: x = 0\nthread P0:\n  r1 = load x relaxed\n  fence acq_rel\n  store x 1 relaxed\n"
            "thread P1:\n  r2 = fetch_add x 1 relaxed\nexists: P0:r1 = 2\n"
        )
        mixed = (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1 release\n  na_store x 2\n  store x 3 relaxed\n"
            "thread P1:\n  r1 = fetch_add x 1 relaxed\nexists: x = 1\n"
        )
        texts = [entry.text for entry in corpus.values()] + [case[1] for case in SINGLE_AXIOM_CASES]
        texts += S_EDGE_PROGRAMS + [self_sync, mixed]
        seen: set[str] = set()
        for text in texts:
            program = parse_litmus(text)
            candidates = grounded_candidates(program, limit=2_000)
            for candidate in candidates or ():
                seen |= judged_alike_with_value_mutants(program, candidate)
        assert seen == set(AXIOMS)

    # The enumerator only tries orders S that keep the S-EMBED edges and
    # those `_sc_edges` derives.  Each edge must be necessary: an S that
    # passes S-EMBED but breaks one is rejected by the edge's axiom anyway.
    @settings(max_examples=100, deadline=None)
    @given(programs(max_total=4))
    def test_derived_s_edges_are_necessary(self, program):
        candidates = grounded_candidates(program, limit=2_000)
        assume(candidates is not None)
        assert_derived_s_edges_necessary(program, candidates)

    def test_derived_s_edges_are_necessary_on_corpus_and_single_axiom_programs(self, corpus):
        texts = [entry.text for entry in corpus.values()] + [case[1] for case in SINGLE_AXIOM_CASES] + S_EDGE_PROGRAMS
        broken = 0
        for text in texts:
            program = parse_litmus(text)
            broken += assert_derived_s_edges_necessary(program, grounded_candidates(program, limit=2_000) or ())
        assert broken > 0


class TestAgainstEnumeratingOracle:
    """enumerate_cxx11 prunes rf, mo and S; `reference_outcomes` tries every
    grounded candidate.  Outcomes and racy must agree."""

    @settings(max_examples=100, deadline=None)
    @given(programs(max_total=4))
    def test_on_random_programs(self, program):
        want = reference_outcomes(program, limit=2_000)
        assume(want is not None)
        got = enumerate_cxx11(program)
        assert (got.outcomes, got.racy) == want

    def test_on_corpus_and_s_edge_programs(self, corpus):
        compared = 0
        for program in [entry.program for entry in corpus.values()] + [parse_litmus(t) for t in S_EDGE_PROGRAMS]:
            want = reference_outcomes(program, limit=2_000)
            if want is None:
                continue
            got = enumerate_cxx11(program)
            assert (got.outcomes, got.racy) == want, program.name
            compared += 1
        assert compared >= 40

    @pytest.mark.parametrize("text", SW_INPUT_PROGRAMS, ids=["release-sequence-broken-by-mo", "sw-orders-mo"])
    def test_on_sw_input_programs(self, text):
        program = parse_litmus(text)
        got = enumerate_cxx11(program)
        assert (got.outcomes, got.racy) == reference_outcomes(program, limit=2_000)


class TestAgainstOperationalModels:
    @settings(max_examples=60, deadline=None)
    @given(programs(max_total=5))
    def test_contains_every_sc_outcome(self, program):
        assert enumerate_sc(program).outcomes <= enumerate_cxx11(program).outcomes

    @settings(max_examples=60, deadline=None)
    @given(programs(max_total=5))
    def test_all_seq_cst_collapses_to_sc(self, program):
        pinned = force_seq_cst(program)
        assert enumerate_cxx11(pinned).outcomes == enumerate_sc(pinned).outcomes


_READ_STEPS = {MemoryOrder.SEQ_CST: (MemoryOrder.ACQUIRE,), MemoryOrder.ACQUIRE: (MemoryOrder.RELAXED,)}
_WRITE_STEPS = {MemoryOrder.SEQ_CST: (MemoryOrder.RELEASE,), MemoryOrder.RELEASE: (MemoryOrder.RELAXED,)}
_RMW_STEPS = {
    MemoryOrder.SEQ_CST: (MemoryOrder.ACQ_REL,),
    MemoryOrder.ACQ_REL: (MemoryOrder.ACQUIRE, MemoryOrder.RELEASE),
    MemoryOrder.ACQUIRE: (MemoryOrder.RELAXED,),
    MemoryOrder.RELEASE: (MemoryOrder.RELAXED,),
}
_READ_STRENGTH = {MemoryOrder.RELAXED: 0, MemoryOrder.ACQUIRE: 1, MemoryOrder.SEQ_CST: 2}


def one_step_weakenings(instr: Instruction):
    """Every program variant reachable by weakening one order one notch."""
    if instr.order is None:
        return
    if instr.kind is Kind.LOAD:
        table = _READ_STEPS
    elif instr.kind is Kind.STORE:
        table = _WRITE_STEPS
    else:
        table = _RMW_STEPS
    for weaker in table.get(instr.order, ()):
        if instr.failure_order is None:
            yield replace(instr, order=weaker)
        else:
            derived = derive_failure_order(weaker)
            failure = min(instr.failure_order, derived, key=_READ_STRENGTH.__getitem__)
            yield replace(instr, order=weaker, failure_order=failure)
    if instr.failure_order is not None:
        for weaker in _READ_STEPS.get(instr.failure_order, ()):
            yield replace(instr, failure_order=weaker)


class TestMonotonicity:
    def test_weakening_one_order_never_drops_outcomes(self, corpus):
        variants = 0
        for entry in corpus.values():
            base = entry.results["cxx11"].outcomes
            threads = entry.program.threads
            for t, thread in enumerate(threads):
                for i, instr in enumerate(thread):
                    for variant in one_step_weakenings(instr):
                        weakened = replace(
                            entry.program,
                            threads=threads[:t]
                            + (thread[:i] + (variant,) + thread[i + 1 :],)
                            + threads[t + 1 :],
                        )
                        assert validate(weakened) == []
                        grown = enumerate_cxx11(weakened).outcomes
                        assert base <= grown, (entry.program.name, t, i, variant)
                        variants += 1
        assert variants > 50


class TestWitnessShape:
    def test_corpus_witnesses_satisfy_relation_invariants(self, corpus):
        checked = 0
        for entry in corpus.values():
            for candidate in entry.results["cxx11"].witnesses.values():
                judgment = check_axioms(entry.program, candidate)
                assert judgment.consistent
                assert judgment.sb <= judgment.hb
                assert judgment.sw <= judgment.hb
                assert is_irreflexive_and_acyclic(judgment.hb)
                for a, b in judgment.sw:
                    assert candidate.events[a].order in RELEASE_CLASS
                    assert candidate.events[b].order in ACQUIRE_CLASS
                checked += 1
        assert checked > 40
