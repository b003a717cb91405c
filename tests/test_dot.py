"""Graph export: stable text, labeled edges, graceful degenerate cases."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from memlit import axiomatic
from memlit.axiomatic import CandidateExecution, enumerate_cxx11
from memlit.dot import execution_dot, trace_dot
from memlit.dsl import parse_litmus
from memlit.model import force_seq_cst
from memlit.operational import enumerate_sc, enumerate_tso

from support import programs

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

DEKKER = """\
name: dekker
init: x = 0 y = 0
thread P0:
  store x 1
  r1 = load y
thread P1:
  store y 1
  r2 = load x
exists: P0:r1 = 0 /\\ P1:r2 = 0
"""


def witness_for(result, regs):
    return next(
        cand
        for outcome, cand in result.witnesses.items()
        if all(outcome.register(t, r) == v for (t, r), v in regs.items())
    )


class TestExecutionDot:
    def test_handoff_witness_shows_sync_on_the_flag(self):
        program = parse_litmus(MP_REL_ACQ)
        result = enumerate_cxx11(program)
        cand = witness_for(result, {("P1", "r1"): 1, ("P1", "r2"): 1})
        text = execution_dot(program, cand, title="mp")
        assert 'e3 [label="T0: W y=1 rel"]' in text
        assert 'e4 [label="T1: R y=1 acq"]' in text
        assert 'e3 -> e4 [label="sw"' in text
        assert 'label="rf"' in text and 'label="mo"' in text and 'label="sb"' in text

    def test_same_witness_same_bytes(self):
        program = parse_litmus(MP_REL_ACQ)
        result = enumerate_cxx11(program)
        cand = witness_for(result, {("P1", "r1"): 1, ("P1", "r2"): 1})
        assert execution_dot(program, cand, title="t") == execution_dot(program, cand, title="t")

    def test_instruction_free_program_is_header_only(self):
        program = parse_litmus("name: empty\ninit: x = 0\nthread P0:\nexists: x = 0\n")
        result = enumerate_cxx11(program)
        (outcome,) = result.outcomes
        text = execution_dot(program, result.witnesses[outcome], title="empty")
        assert "->" not in text
        assert text.startswith('digraph "empty" {')


def rename_location(program, old, new):
    """A copy of program whose location `old` is called `new`."""
    threads = tuple(
        tuple(replace(i, location=new) if i.location == old else i for i in body) for body in program.threads
    )
    init = {new if loc == old else loc: v for loc, v in program.init.items()}
    return replace(program, init=init, threads=threads)


class TestEnumeratorWitnessesDrawnWithoutRecheck:
    """enumerate_cxx11's own witnesses skip the candidate check; nothing else does."""

    def setup_method(self):
        self.program = parse_litmus(MP_REL_ACQ)
        self.witness = witness_for(enumerate_cxx11(self.program), {("P1", "r1"): 1, ("P1", "r2"): 1})
        # events: 0 init x, 1 init y, 2 W x=1, 3 W y=1 rel, 4 R y=1 acq, 5 R x=1
        assert dict(self.witness.rf) == {4: 3, 5: 2}

    def test_witness_is_drawn_without_the_check(self, monkeypatch):
        expected = execution_dot(self.program, self.witness)

        def refuse(program, candidate):
            raise AssertionError("the witness was checked again")

        monkeypatch.setattr(axiomatic, "_checked_frame", refuse)
        assert execution_dot(self.program, self.witness) == expected

    def test_caller_built_bad_candidate_raises(self):
        w = self.witness
        for rf in ({4: 3, 5: 3}, {4: 1, 5: 2}, {4: 3}):  # mixes locations, disagrees on the value, misses a read
            with pytest.raises(ValueError):
                execution_dot(self.program, CandidateExecution(w.events, rf, w.mo, w.sc_order))
        with pytest.raises(ValueError):
            execution_dot(self.program, CandidateExecution(w.events[:-1], {4: 3}, w.mo, w.sc_order))

    def test_replaced_witness_is_checked(self):
        with pytest.raises(ValueError):
            execution_dot(self.program, replace(self.witness, rf={4: 3, 5: 3}))
        with pytest.raises(ValueError):
            execution_dot(self.program, replace(self.witness, mo={"x": (2, 0), "y": (1, 3)}))
        assert execution_dot(self.program, replace(self.witness)) == execution_dot(self.program, self.witness)

    @pytest.mark.parametrize(
        "other",
        [force_seq_cst, lambda p: rename_location(p, "x", "z")],
        ids=["force_seq_cst", "renamed"],
    )
    def test_witness_drawn_for_another_program_is_checked(self, other):
        with pytest.raises(ValueError):
            execution_dot(other(self.program), self.witness)

    def test_equal_program_copy_takes_the_checked_path_to_the_same_text(self, monkeypatch):
        expected = execution_dot(self.program, self.witness)
        calls = []
        checked = axiomatic._checked_frame
        monkeypatch.setattr(axiomatic, "_checked_frame", lambda p, c: calls.append(c) or checked(p, c))
        assert execution_dot(replace(self.program), self.witness) == expected
        assert calls == [self.witness]

    def test_witness_rf_and_mo_are_read_only(self):
        w = self.witness
        with pytest.raises(TypeError):
            w.rf[5] = 0
        with pytest.raises(TypeError):
            del w.rf[4]
        with pytest.raises(TypeError):
            w.mo["x"] = (2, 0)
        assert dict(w.rf) == {4: 3, 5: 2} and dict(w.mo) == {"x": (0, 2), "y": (1, 3)}

    @settings(max_examples=60, deadline=None)
    @given(program=programs(max_total=5))
    def test_unchecked_text_equals_checked_text(self, program):
        result = enumerate_cxx11(program)
        for witness in result.witnesses.values():
            assert execution_dot(program, witness) == execution_dot(program, replace(witness))


class TestTraceDot:
    def test_dekker_witness_dequeues_after_both_loads(self):
        program = parse_litmus(DEKKER)
        result = enumerate_tso(program)
        cand = witness_for(result, {("P0", "r1"): 0, ("P1", "r2"): 0})
        text = trace_dot(program, cand, title="dekker")
        load_steps = [
            int(line.split(". ")[0].split('"')[1])
            for line in text.splitlines()
            if "load" in line and "label=" in line
        ]
        dequeue_steps = [
            int(line.split(". ")[0].split('"')[1])
            for line in text.splitlines()
            if "dequeue" in line and "label=" in line
        ]
        assert len(load_steps) == 2 and len(dequeue_steps) == 2
        assert max(load_steps) < min(dequeue_steps)

    @pytest.mark.parametrize("rmw", ["r1 = fetch_add y 1", "r1 = cas_strong y 5 7 seq_cst seq_cst"])
    def test_locked_rmw_drains_the_stores_before_it(self, rmw):
        # The RMW (a failed CAS too) drains `store x 1`, so the one dequeue
        # publishes `store z 1`.
        program = parse_litmus(
            "name: drain\ninit: x = 0 y = 0 z = 0\n"
            f"thread P0:\n  store x 1\n  {rmw}\n  store z 1\n"
            "thread P1:\n  r2 = load z\nexists: P1:r2 = 0\n"
        )
        result = enumerate_tso(program)
        cand = witness_for(result, {("P0", "r1"): 0, ("P1", "r2"): 0})
        text = trace_dot(program, cand)
        assert '"3. P0: store z 1 -> buffer"' in text and '"5. P0 dequeue: z = 1"' in text
        assert [line for line in text.splitlines() if "prop" in line] == [
            '  s2 -> s4 [label="prop", color=blue, fontcolor=blue, style=dashed];'
        ]

    def test_empty_trace_is_header_only(self):
        program = parse_litmus("name: empty\ninit: x = 0\nthread P0:\nexists: x = 0\n")
        result = enumerate_sc(program)
        (outcome,) = result.outcomes
        text = trace_dot(program, result.witnesses[outcome], title="empty")
        assert "->" not in text and "label=" not in text.replace("node [", "")
